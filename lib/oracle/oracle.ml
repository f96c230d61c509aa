open Rt

type oneshot_state = { shot : bool ref; promoted : bool ref }

type t = {
  globals : Globals.t;
  menv : Macro.menv;
  out : Buffer.t;
  stats : Stats.t;
  hooks : Machine_hooks.t;
      (* routes the process-shared output prims at [out] for the extent
         of every [eval_tops]; the timer hooks stay dormant (the oracle
         has no preemption: set is a no-op, get reads 0) *)
  mutable fuel : int; (* negative = unlimited *)
  mutable oneshots : oneshot_state list; (* outstanding one-shot captures *)
  mutable winders : winder list; (* native dynamic-wind extents, innermost
                                    first; shares structure across captures *)
}

exception Fuel_exhausted

(* forward reference: Sp_eval needs the top-level evaluator *)
let eval_top_fwd :
    (t -> Ast.top -> (value -> value) -> value) ref =
  ref (fun _ _ _ -> assert false)

let create ?stats () =
  let out = Buffer.create 256 in
  let globals = Globals.create () in
  Prims.install globals;
  let hooks = Machine_hooks.default () in
  hooks.Machine_hooks.out <- (fun () -> out);
  {
    globals;
    menv = Macro.create_menv ();
    out;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    hooks;
    fuel = -1;
    oneshots = [];
    winders = [];
  }

let globals t = t.globals
let stats t = t.stats
let output t = Buffer.contents t.out

let take_output t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  s

(* One interpreter step: the oracle's unit of work is an AST node or an
   application, so [instrs] counts steps rather than bytecode
   dispatches — comparable across runs of the oracle itself, not with
   the VMs' instruction counts. *)
let tick t =
  let stats = t.stats in
  if stats.Stats.enabled then stats.Stats.instrs <- stats.Stats.instrs + 1;
  if t.fuel >= 0 then begin
    if t.fuel = 0 then raise Fuel_exhausted;
    t.fuel <- t.fuel - 1
  end

(* Environments map names to mutable cells. *)
type env = (string * value ref) list

let one_value args =
  match (args : value array) with
  | [| v |] -> v
  | _ -> Mvals (Array.to_list args)

let rec apply t f (args : value array) (k : value -> value) : value =
  tick t;
  let stats = t.stats in
  match f with
  | Ofun o ->
      if stats.Stats.enabled then stats.Stats.calls <- stats.Stats.calls + 1;
      o.ofn args k
  | Prim { parity; pname; _ }
    when not (Bytecode.arity_matches parity (Array.length args)) ->
      fail t (pname ^ ": wrong number of arguments") [] k
  | Prim { pfn = Pure { fn; _ }; _ } -> (
      if stats.Stats.enabled then
        stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
      match fn args with
      | v -> k v
      | exception Scheme_error (msg, irritants) -> fail t msg irritants k)
  | Prim { pfn = Special sp; _ } ->
      if stats.Stats.enabled then
        stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
      special t sp args k
  | v -> fail t "application of non-procedure" [ v ] k

(* A runtime error goes to the head of %error-handlers, popped first
   ({!Engine.pop_error_handler}), as on the VMs: the handler is applied
   to the message and irritants and returns to [k], the continuation of
   the faulting operation.  Raise sites call this from the exception
   branch of a [match], never from inside a [try], so the rest of the
   program does not run under an OCaml exception handler. *)
and fail t msg irritants k =
  match Engine.pop_error_handler t.globals with
  | Some h ->
      apply t h
        [| Str (Bytes.of_string msg); Values.list_to_value irritants |]
        k
  | None -> raise (Scheme_error (msg, irritants))

(* Run the afters/befores needed to move the machine's winder chain from
   its current state to [target], then continue with [fin].  The chain
   arithmetic is {!Engine.wind_plan}'s — the same planner the two VM
   trampolines drive — replayed here over CPS recursion.  Ordering
   matches the Scheme protocol exactly: unwind pops the chain *before*
   running the after (innermost first); rewind runs the before *before*
   committing the chain node (outermost first). *)
and do_winds t target fin =
  match Engine.wind_plan t.winders target with
  | Engine.Wind_done -> fin ()
  | Engine.Unwind (w, rest) ->
      t.winders <- rest;
      apply t w.w_after [||] (fun _ -> do_winds t target fin)
  | Engine.Rewind (w, node) ->
      apply t w.w_before [||] (fun _ ->
          t.winders <- node;
          do_winds t target fin)

and special t sp args k =
  match sp with
  | Sp_callcc ->
      (* Over-approximate promotion: see interface comment. *)
      List.iter (fun o -> o.promoted := true) t.oneshots;
      t.stats.Stats.captures_multi <- t.stats.Stats.captures_multi + 1;
      let saved = t.winders in
      let kv =
        Ofun
          {
            oname = "continuation";
            ofn =
              (fun vals _ ->
                do_winds t saved (fun () -> k (one_value vals)));
          }
      in
      apply t args.(0) [| kv |] k
  | Sp_call1cc ->
      let st = { shot = ref false; promoted = ref false } in
      t.oneshots <- st :: t.oneshots;
      t.stats.Stats.captures_oneshot <- t.stats.Stats.captures_oneshot + 1;
      let consume () =
        if not !(st.promoted) then begin
          if !(st.shot) then raise Shot_continuation;
          st.shot := true
        end
      in
      let saved = t.winders in
      let kv =
        Ofun
          {
            oname = "one-shot-continuation";
            ofn =
              (fun vals _ ->
                (* Winds run first; the shot check fires when the raw
                   continuation is finally applied, as in the prelude's
                   wrapper. *)
                do_winds t saved (fun () ->
                    consume ();
                    k (one_value vals)));
          }
      in
      apply t args.(0) [| kv |] (fun v ->
          (* Normal return from the receiver consumes the extent too. *)
          consume ();
          k v)
  | Sp_dynamic_wind ->
      let before = args.(0) and thunk = args.(1) and after = args.(2) in
      apply t before [||] (fun _ ->
          t.winders <- { w_before = before; w_after = after } :: t.winders;
          apply t thunk [||] (fun result ->
              (match t.winders with
              | _ :: rest -> t.winders <- rest
              | [] -> ());
              apply t after [||] (fun _ -> k result)))
  | Sp_wind ->
      (* Internal trampoline driver of the stack/heap VMs; the oracle's
         winds are direct OCaml recursion, so it can never be applied. *)
      Values.err "%wind: internal primitive" []
  | Sp_apply -> (
      let f = args.(0) in
      let n = Array.length args in
      let fixed = Array.sub args 1 (n - 2) in
      match
        ignore (Prims.spread_length args.(n - 1));
        Values.list_of_value args.(n - 1)
      with
      | last -> apply t f (Array.append fixed (Array.of_list last)) k
      | exception Scheme_error (msg, irritants) -> fail t msg irritants k)
  | Sp_values -> k (one_value args)
  | Sp_backtrace -> k nil (* the oracle's control is OCaml closures *)
  | Sp_eval -> (
      let rec go last = function
        | [] -> k last
        | top :: rest -> !eval_top_fwd t top (fun v -> go v rest)
      in
      match
        Expander.expand_tops ~menv:t.menv (Expander.value_to_datum args.(0))
      with
      | tops -> go void tops
      | exception Scheme_error (msg, irritants) -> fail t msg irritants k)
  | Sp_stats -> (
      let name =
        match args.(0) with
        | Sym s -> s
        | v -> Values.type_error "%stat" "symbol" v
      in
      match Stats.get t.stats name with
      | n -> k (Values.of_int n)
      | exception Not_found -> fail t ("%stat: unknown counter " ^ name) [] k)

let rec eval_exp t (env : env) (e : Ast.t) (k : value -> value) : value =
  tick t;
  match e with
  | Ast.Quote v -> k v
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some cell -> k !cell
      | None -> (
          (* Lexically unbound: a global reference under the source
             name (hygiene marks stripped). *)
          match Globals.find_opt t.globals (Macro.strip_marks x) with
          | Some g -> k g.gval
          | None ->
              fail t ("unbound variable: " ^ Macro.strip_marks x) [] k))
  | Ast.If (tst, c, a) ->
      eval_exp t env tst (fun v ->
          if Values.is_truthy v then eval_exp t env c k else eval_exp t env a k)
  | Ast.Set (x, rhs) ->
      eval_exp t env rhs (fun v ->
          match List.assoc_opt x env with
          | Some cell ->
              cell := v;
              k void
          | None ->
              let g = Globals.cell t.globals (Macro.strip_marks x) in
              if g.gdefined then begin
                g.gval <- v;
                k void
              end
              else
                fail t ("set! of unbound variable: " ^ Macro.strip_marks x)
                  [] k)
  | Ast.Begin es ->
      let rec go = function
        | [] -> k void
        | [ last ] -> eval_exp t env last k
        | x :: rest -> eval_exp t env x (fun _ -> go rest)
      in
      go es
  | Ast.Lambda l -> k (make_closure t env l)
  | Ast.App (f, argexps) ->
      (* The operator is evaluated after its operands, as the compiler
         orders it. *)
      let vals = Array.make (List.length argexps) void in
      let rec go i = function
        | [] -> eval_exp t env f (fun fv -> apply t fv vals k)
        | a :: rest ->
            eval_exp t env a (fun v ->
                vals.(i) <- v;
                go (i + 1) rest)
      in
      go 0 argexps

and make_closure t env (l : Ast.lambda) =
  let nparams = List.length l.params in
  Ofun
    {
      oname = l.lname;
      ofn =
        (fun args k ->
          let n = Array.length args in
          match l.rest with
          | None when n <> nparams ->
              fail t
                (Printf.sprintf "%s: expected %d arguments, got %d" l.lname
                   nparams n)
                [] k
          | Some _ when n < nparams ->
              fail t
                (Printf.sprintf "%s: expected at least %d arguments, got %d"
                   l.lname nparams n)
                [] k
          | None | Some _ ->
              let param_cells =
                List.mapi (fun i p -> (p, ref args.(i))) l.params
              in
              let rest_cells =
                match l.rest with
                | None -> []
                | Some r ->
                    let tail =
                      Array.to_list (Array.sub args nparams (n - nparams))
                    in
                    [ (r, ref (Values.list_to_value tail)) ]
              in
              eval_exp t (param_cells @ rest_cells @ env) l.body k);
    }

let eval_top t (top : Ast.top) (k : value -> value) =
  match top with
  | Ast.Expr (e, _) -> eval_exp t [] e k
  | Ast.Define (x, e, _) ->
      eval_exp t [] e (fun v ->
          Globals.define t.globals x v;
          k void)

let () = eval_top_fwd := eval_top

(* Each top-level form runs in its own continuation, ending at that
   form, as on the bytecode backends (one [run] per form) and in
   [schemer]: a continuation captured in one form and invoked from a
   later one re-enters the rest of its own form only, and evaluation
   then goes on with the form after the invoking one. *)
let eval_tops ?(fuel = -1) t tops =
  t.fuel <- fuel;
  Machine_hooks.with_hooks t.hooks (fun () ->
      List.fold_left (fun _ top -> eval_top t top Fun.id) void tops)

let eval ?fuel t src =
  eval_tops ?fuel t
    (Expander.expand_string ~menv:t.menv src)

let eval_datum ?fuel t d =
  eval_tops ?fuel t (Expander.expand_tops ~menv:t.menv d)
