exception Compile_error of string * Sexp.pos option

(* Internal failures carry no position; [compile_top] attaches the
   enclosing top-level form's span before the error escapes. *)
let fail msg = raise (Compile_error (msg, None))

(* ------------------------------------------------------------------ *)
(* Analysis: unique bindings, capture/assignment flags, free lists     *)
(* ------------------------------------------------------------------ *)

type binding = {
  bid : int;
  bname : string;
  mutable assigned : bool;
  mutable captured : bool;
}

type aexp =
  | AQuote of Rt.value
  | ALocal of binding
  | AGlobal of string
  | AIf of aexp * aexp * aexp
  | ALocalSet of binding * aexp
  | AGlobalSet of string * aexp
  | ALambda of alambda
  | ABegin of aexp list
  | ALet of (binding * aexp) list * aexp
  | AApp of aexp * aexp list

and alambda = {
  aparams : binding list;
  arest : binding option;
  mutable abody : aexp;
  aname : string;
  mutable afree : binding list; (* reverse capture order during analysis *)
}

let bid_counter = ref 0

let new_binding name =
  incr bid_counter;
  { bid = !bid_counter; bname = name; assigned = false; captured = false }

(* A lambda context tracks which bindings live in its own frame ([owned])
   and accumulates its free-variable list. *)
type lctx = {
  lam : alambda option; (* [None] at top level *)
  owned : (int, unit) Hashtbl.t;
  parent : lctx option;
}

let new_lctx lam parent = { lam; owned = Hashtbl.create 8; parent }
let own ctx b = Hashtbl.replace ctx.owned b.bid ()

(* Resolve a reference to [b] from [ctx]: mark it captured and add it to
   the free list of every lambda between the use and the owner. *)
let rec note_use ctx b =
  if not (Hashtbl.mem ctx.owned b.bid) then begin
    b.captured <- true;
    (match ctx.lam with
    | Some lam ->
        if not (List.exists (fun f -> f.bid = b.bid) lam.afree) then
          lam.afree <- b :: lam.afree
    | None -> fail ("unbound lexical variable: " ^ b.bname));
    match ctx.parent with
    | Some p -> note_use p b
    | None -> fail ("unbound lexical variable: " ^ b.bname)
  end

let rec analyze env ctx (e : Ast.t) : aexp =
  match e with
  | Ast.Quote v -> AQuote v
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some b ->
          note_use ctx b;
          ALocal b
      | None -> AGlobal x)
  | Ast.If (t, c, a) -> AIf (analyze env ctx t, analyze env ctx c, analyze env ctx a)
  | Ast.Set (x, rhs) -> (
      let rhs = analyze env ctx rhs in
      match List.assoc_opt x env with
      | Some b ->
          b.assigned <- true;
          note_use ctx b;
          ALocalSet (b, rhs)
      | None -> AGlobalSet (x, rhs))
  | Ast.Begin es -> ABegin (List.map (analyze env ctx) es)
  | Ast.App (Ast.Lambda l, args)
    when l.rest = None && List.length l.params = List.length args ->
      (* Direct application: inline into the enclosing frame. *)
      let inits = List.map (analyze env ctx) args in
      let bindings = List.map new_binding l.params in
      List.iter (own ctx) bindings;
      let env' = List.combine l.params bindings @ env in
      let body = analyze env' ctx l.body in
      ALet (List.combine bindings inits, body)
  | Ast.App (f, args) ->
      AApp (analyze env ctx f, List.map (analyze env ctx) args)
  | Ast.Lambda l -> analyze_lambda env ctx l

and analyze_lambda env ctx (l : Ast.lambda) =
  let params = List.map new_binding l.params in
  let rest = Option.map new_binding l.rest in
  let alam =
    { aparams = params; arest = rest; abody = AQuote Rt.Void; aname = l.lname;
      afree = [] }
  in
  let ctx' = new_lctx (Some alam) (Some ctx) in
  List.iter (own ctx') params;
  Option.iter (own ctx') rest;
  let env' =
    List.combine l.params params
    @ (match (l.rest, rest) with
      | Some r, Some rb -> [ (r, rb) ]
      | _ -> [])
    @ env
  in
  alam.abody <- analyze env' ctx' l.body;
  alam.afree <- List.rev alam.afree;
  ALambda alam

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

type loc = Lslot of int | Lfree of int

(* Assignment conversion boxes EVERY assigned variable, not just captured
   ones: frame slots are restored wholesale when a multi-shot continuation
   is reinstated, so a [set!] into an unboxed slot would be undone by a
   later invocation.  (Chez makes the same choice for the same reason.) *)
let boxed b = b.assigned

type emitter = {
  mutable arr : Rt.instr array;
  mutable len : int;
  fmap : (int, loc) Hashtbl.t; (* binding id -> location in this frame *)
  mutable next_slot : int;
  mutable max_ext : int;
}

let new_emitter first_slot =
  {
    arr = Array.make 32 Rt.Return;
    len = 0;
    fmap = Hashtbl.create 16;
    next_slot = first_slot;
    max_ext = first_slot;
  }

let emit e i =
  if e.len = Array.length e.arr then begin
    let bigger = Array.make (2 * e.len) Rt.Return in
    Array.blit e.arr 0 bigger 0 e.len;
    e.arr <- bigger
  end;
  e.arr.(e.len) <- i;
  e.len <- e.len + 1;
  e.len - 1

let here e = e.len
let patch e at i = e.arr.(at) <- i

let reserve e n =
  let slot = e.next_slot in
  e.next_slot <- e.next_slot + n;
  if e.next_slot > e.max_ext then e.max_ext <- e.next_slot;
  slot

let loc_of e b =
  match Hashtbl.find_opt e.fmap b.bid with
  | Some l -> l
  | None -> fail ("compiler: unallocated binding " ^ b.bname)

let gen_ref e b =
  match (loc_of e b, boxed b) with
  | Lslot i, false -> emit e (Rt.Local_ref i) |> ignore
  | Lslot i, true -> emit e (Rt.Box_ref i) |> ignore
  | Lfree i, false -> emit e (Rt.Free_ref i) |> ignore
  | Lfree i, true -> emit e (Rt.Free_box_ref i) |> ignore

let gen_set e b =
  match (loc_of e b, boxed b) with
  | Lslot i, false -> emit e (Rt.Local_set i) |> ignore
  | Lslot i, true -> emit e (Rt.Box_set i) |> ignore
  | Lfree i, true -> emit e (Rt.Free_box_set i) |> ignore
  | Lfree _, false -> fail "compiler: assignment to unboxed free variable"

let rec gen e tail exp =
  match exp with
  | AQuote v -> ignore (emit e (Rt.Const v))
  | ALocal b -> gen_ref e b
  | AGlobal x ->
      (* A lexically unbound name refers to its definition environment —
         the global table — under its source name: strip hygiene marks. *)
      ignore (emit e (Rt.Global_ref (Globals.slot (Macro.strip_marks x))))
  | ALocalSet (b, rhs) ->
      gen e false rhs;
      gen_set e b
  | AGlobalSet (x, rhs) ->
      gen e false rhs;
      ignore (emit e (Rt.Global_set (Globals.slot (Macro.strip_marks x))))
  | AIf (t, c, a) ->
      gen e false t;
      let jf = emit e (Rt.Branch_false 0) in
      gen e tail c;
      let jend = emit e (Rt.Branch 0) in
      patch e jf (Rt.Branch_false (here e));
      gen e tail a;
      patch e jend (Rt.Branch (here e))
  | ABegin es ->
      let rec go = function
        | [] -> ()
        | [ last ] -> gen e tail last
        | x :: rest ->
            gen e false x;
            go rest
      in
      go es
  | ALet (bindings, body) ->
      let saved = e.next_slot in
      let slots =
        List.map
          (fun (_, init) ->
            gen e false init;
            let slot = reserve e 1 in
            ignore (emit e (Rt.Local_set slot));
            slot)
          bindings
      in
      List.iter2
        (fun (b, _) slot ->
          Hashtbl.replace e.fmap b.bid (Lslot slot);
          if boxed b then ignore (emit e (Rt.Box_init slot)))
        bindings slots;
      gen e tail body;
      e.next_slot <- saved
  | ALambda l ->
      let code, caps = gen_lambda l in
      let caps =
        Array.of_list
          (List.map
             (fun b ->
               match loc_of e b with
               | Lslot i -> Rt.Cap_local i
               | Lfree i -> Rt.Cap_free i)
             caps)
      in
      ignore (emit e (Rt.Make_closure (code, caps)))
  | AApp (f, args) ->
      let nargs = List.length args in
      let d = reserve e (2 + nargs) in
      (* The operator is evaluated after its operands (R7RS 4.1.3
         leaves the order unspecified): a global's push then sits right
         before the call, where the peephole fuses a primitive call. *)
      List.iteri (fun i a -> gen_store e a (d + 2 + i)) args;
      gen_store e f (d + 1);
      e.next_slot <- d;
      ignore
        (emit e
           (if tail then Rt.Tail_call { disp = d; nargs }
            else
              (* [cs_ret] is interned by [Bytecode.backpatch] once the
                 enclosing code object exists. *)
              Rt.Call { cs_disp = d; cs_nargs = nargs; cs_ret = Rt.Void }))

(* Evaluate [x] into frame slot [slot]. *)
and gen_store e x slot =
  gen e false x;
  ignore (emit e (Rt.Local_set slot))

(* Compile one lambda to a code object plus the ordered list of bindings
   its closure must capture from the enclosing frame. *)
and gen_lambda (l : alambda) : Rt.code * binding list =
  let nparams = List.length l.aparams in
  let first_local = 2 + nparams + (match l.arest with Some _ -> 1 | None -> 0) in
  let e = new_emitter first_local in
  List.iteri
    (fun i b -> Hashtbl.replace e.fmap b.bid (Lslot (2 + i)))
    l.aparams;
  (match l.arest with
  | Some b -> Hashtbl.replace e.fmap b.bid (Lslot (2 + nparams))
  | None -> ());
  List.iteri (fun i b -> Hashtbl.replace e.fmap b.bid (Lfree i)) l.afree;
  ignore (emit e Rt.Enter);
  (* Box parameters that are assigned and captured. *)
  List.iteri
    (fun i b -> if boxed b then ignore (emit e (Rt.Box_init (2 + i))))
    l.aparams;
  (match l.arest with
  | Some b when boxed b -> ignore (emit e (Rt.Box_init (2 + nparams)))
  | _ -> ());
  gen e true l.abody;
  ignore (emit e Rt.Return);
  let arity =
    match l.arest with
    | None -> Rt.Exactly nparams
    | Some _ -> Rt.At_least nparams
  in
  let code =
    Bytecode.make_code ~name:l.aname ~arity ~frame_words:e.max_ext
      (Array.sub e.arr 0 e.len)
  in
  (code, l.afree)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Compiled code is session-independent: global accesses are emitted
   against process-wide slot numbers, so the [Globals.t] argument of the
   compile entry points is only consulted by the peephole fuser (which
   snapshots the session's current bindings into inline caches). *)
let compile_expr (_ : Globals.t) name ast =
  let ctx = new_lctx None None in
  let a = analyze [] ctx ast in
  let e = new_emitter 2 in
  ignore (emit e Rt.Enter);
  gen e true a;
  ignore (emit e Rt.Return);
  Bytecode.make_code ~name ~arity:(Rt.Exactly 0) ~frame_words:e.max_ext
    (Array.sub e.arr 0 e.len)

let compile_top globals (top : Ast.top) =
  try
    match top with
    | Ast.Expr (ast, _) -> compile_expr globals "top" ast
    | Ast.Define (x, ast, _) ->
        let ctx = new_lctx None None in
        let a = analyze [] ctx ast in
        let e = new_emitter 2 in
        ignore (emit e Rt.Enter);
        gen e false a;
        ignore (emit e (Rt.Global_define (Globals.slot x)));
        ignore (emit e (Rt.Const Rt.Void));
        ignore (emit e Rt.Return);
        Bytecode.make_code ~name:("define-" ^ x) ~arity:(Rt.Exactly 0)
          ~frame_words:e.max_ext
          (Array.sub e.arr 0 e.len)
  with Compile_error (msg, None) ->
    raise (Compile_error (msg, Some (Ast.top_pos top)))

let compile_program globals tops = List.map (compile_top globals) tops

(* (eval datum): compile the datum's top-level forms, then synthesize a
   driver code object that calls each compiled form in sequence. *)
let compile_eval ?hygiene ?menv globals (datum : Rt.value) : Rt.code =
  let tops =
    Expander.expand_tops ?hygiene ?menv (Expander.value_to_datum datum)
  in
  match compile_program globals tops with
  | [ one ] -> one
  | codes ->
      let d = 2 in
      let instrs = ref [ Rt.Enter ] in
      let n = List.length codes in
      List.iteri
        (fun i code ->
          let clos = Rt.Closure { code; frees = [||] } in
          instrs :=
            (if i = n - 1 then
               [ Rt.Tail_call { disp = d; nargs = 0 };
                 Rt.Local_set (d + 1); Rt.Const clos ]
             else
               [ Rt.Call { cs_disp = d; cs_nargs = 0; cs_ret = Rt.Void };
                 Rt.Local_set (d + 1); Rt.Const clos ])
            @ !instrs)
        codes;
      instrs := Rt.Return :: !instrs;
      Bytecode.make_code ~name:"eval" ~arity:(Rt.Exactly 0) ~frame_words:(d + 3)
        (Array.of_list (List.rev !instrs))

(* The shared back half of the pipeline: optimize, compile, fuse,
   verify.  [compile_string] and [compile_datum] differ only in how the
   expanded tops are obtained. *)
let compile_tops ?(optimize = false) ?(peephole = true) ?(regalloc = true)
    ?(verify = false) globals tops =
  let tops = if optimize then Optimize.program tops else tops in
  let codes = compile_program globals tops in
  let codes = if peephole then Optimize.peephole_program ~regalloc globals codes else codes in
  if verify then Verify.verify_program codes;
  codes

let compile_string ?optimize ?peephole ?regalloc ?verify ?hygiene ?menv
    globals src =
  compile_tops ?optimize ?peephole ?regalloc ?verify globals
    (Expander.expand_string ?hygiene ?menv src)

let compile_datum ?optimize ?peephole ?regalloc ?verify ?hygiene ?menv
    globals datum =
  compile_tops ?optimize ?peephole ?regalloc ?verify globals
    (Expander.expand_tops ?hygiene ?menv datum)
