exception Compile_error of string * Sexp.pos option

(* Internal failures carry no position; [compile_top] attaches the
   enclosing top-level form's span before the error escapes. *)
let fail msg = raise (Compile_error (msg, None))

(* ------------------------------------------------------------------ *)
(* Analysis: one record per binding, assignment flags, free lists      *)
(* ------------------------------------------------------------------ *)

(* Where a binding lives in the frame being generated: its own frame's
   slot, or an index into the running closure's free vector.  Set when
   its owner's code is generated; a nested lambda that captures the
   binding overrides it with its free index while its own code is
   generated. *)
type loc = Unallocated | Lslot of int | Lfree of int

type binding = {
  bname : string;
  depth : int; (* lambda nesting depth of the owner; 0 at top level *)
  mutable assigned : bool;
  mutable loc : loc;
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

(* A lambda context: the lambda being analyzed ([None] at top level),
   its nesting depth, and the enclosing context.  A binding is owned by
   the context whose depth it records. *)
type lctx = { lam : alambda option; ldepth : int; parent : lctx option }

let top_ctx = { lam = None; ldepth = 0; parent = None }

let new_binding depth name =
  { bname = name; depth; assigned = false; loc = Unallocated }

(* Resolve a reference to [b] from [ctx]: add it to the free list of
   every lambda between the use and the owner.  A lambda that already
   lists [b] was reached by an earlier use, which added [b] to every
   lambda out to the owner. *)
let rec note_use ctx b =
  if ctx.ldepth <> b.depth then
    match (ctx.lam, ctx.parent) with
    | Some lam, Some p ->
        if not (List.memq b lam.afree) then begin
          lam.afree <- b :: lam.afree;
          note_use p b
        end
    | _ -> fail ("unbound lexical variable: " ^ b.bname)

(* The innermost binding of [x]: environments list a scope's bindings
   before those of the scopes around it. *)
let rec lookup x = function
  | [] -> None
  | b :: env -> if String.equal b.bname x then Some b else lookup x env

(* The analysis, like the code generator below, is written without
   closures: a list is walked by a recursive function over explicit
   arguments, so the compiler allocates its output and the analysed
   tree, not a closure per node. *)
let rec analyze env ctx (e : Ast.t) : aexp =
  match e with
  | Ast.Quote v -> AQuote v
  | Ast.Var x -> (
      match lookup x env with
      | Some b ->
          note_use ctx b;
          ALocal b
      | None -> AGlobal x)
  | Ast.If (t, c, a) -> AIf (analyze env ctx t, analyze env ctx c, analyze env ctx a)
  | Ast.Set (x, rhs) -> (
      let rhs = analyze env ctx rhs in
      match lookup x env with
      | Some b ->
          b.assigned <- true;
          note_use ctx b;
          ALocalSet (b, rhs)
      | None -> AGlobalSet (x, rhs))
  | Ast.Begin es -> ABegin (analyze_list env ctx es)
  | Ast.App (Ast.Lambda l, args)
    when Option.is_none l.rest && List.length l.params = List.length args ->
      (* Direct application: inline into the enclosing frame. *)
      let inits = analyze_list env ctx args in
      let bindings = new_bindings ctx.ldepth l.params in
      let body = analyze (bindings @ env) ctx l.body in
      ALet (List.combine bindings inits, body)
  | Ast.App (f, args) ->
      (* The operands are analyzed before the operator: the order in
         which a lambda's free variables are first met is its closure
         layout. *)
      let args = analyze_list env ctx args in
      AApp (analyze env ctx f, args)
  | Ast.Lambda l -> analyze_lambda env ctx l

(* [List.map (analyze env ctx)], first element first. *)
and analyze_list env ctx = function
  | [] -> []
  | e :: es ->
      let a = analyze env ctx e in
      a :: analyze_list env ctx es

and analyze_lambda env ctx (l : Ast.lambda) =
  let depth = ctx.ldepth + 1 in
  let params = new_bindings depth l.params in
  let rest =
    match l.rest with Some r -> Some (new_binding depth r) | None -> None
  in
  let alam =
    { aparams = params; arest = rest; abody = AQuote Rt.void; aname = l.lname;
      afree = [] }
  in
  let ctx' = { lam = Some alam; ldepth = depth; parent = Some ctx } in
  let env' = params @ (match rest with Some rb -> rb :: env | None -> env) in
  alam.abody <- analyze env' ctx' l.body;
  alam.afree <- List.rev alam.afree;
  ALambda alam

and new_bindings depth = function
  | [] -> []
  | x :: xs ->
      let b = new_binding depth x in
      b :: new_bindings depth xs

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

(* Assignment conversion boxes EVERY assigned variable, not just captured
   ones: frame slots are restored wholesale when a multi-shot continuation
   is reinstated, so a [set!] into an unboxed slot would be undone by a
   later invocation.  (Chez makes the same choice for the same reason.) *)
let boxed b = b.assigned

(* Global names keyed by source name: [+] and a hygiene-marked [+]
   are one key, hashed and compared up to the first mark.  Once a name
   is in the table, a reference to it pays neither
   [Macro.strip_marks]'s copy nor the process-wide interner's lock.
   Every index read is below the length tested just before it. *)
let rec same_source a b na nb i =
  if i = na || String.unsafe_get a i = Macro.mark_char then
    i = nb || String.unsafe_get b i = Macro.mark_char
  else
    i < nb
    && String.unsafe_get a i = String.unsafe_get b i
    && same_source a b na nb (i + 1)

let rec hash_source s n i h =
  if i = n then h
  else
    let c = String.unsafe_get s i in
    if c = Macro.mark_char then h
    else hash_source s n (i + 1) ((h * 31) + Char.code c)

module Source_names = Hashtbl.Make (struct
  type t = string

  let equal a b = same_source a b (String.length a) (String.length b) 0
  let hash s = hash_source s (String.length s) 0 0 land max_int
end)

(* The code objects of the forms being compiled share one growable
   instruction buffer: a nested lambda's code is emitted after its
   parent's current end and copied out when complete, and the parent
   then resumes where the nested code began. *)
type buffer = {
  mutable arr : Rt.instr array;
  mutable len : int;
  slots : int Source_names.t; (* global name -> slot, for this call *)
}

type emitter = {
  buf : buffer;
  base : int; (* where this code object's pc 0 sits in [buf] *)
  mutable next_slot : int;
  mutable max_ext : int;
}

let new_buffer () =
  { arr = Array.make 32 Rt.Return; len = 0; slots = Source_names.create 8 }

(* A lexically unbound name refers to its definition environment — the
   global table — under its source name.  Slots are still interned in
   first-reference order. *)
let global_slot e x =
  let slots = e.buf.slots in
  match Source_names.find slots x with
  | i -> i
  | exception Not_found ->
      let i = Globals.slot (Macro.strip_marks x) in
      Source_names.add slots x i;
      i

let new_emitter buf first_slot =
  { buf; base = buf.len; next_slot = first_slot; max_ext = first_slot }

let emit e i =
  let b = e.buf in
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * b.len) Rt.Return in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- i;
  b.len <- b.len + 1;
  b.len - 1 - e.base

let here e = e.buf.len - e.base
let patch e at i = e.buf.arr.(e.base + at) <- i

(* The emitted instructions, taken out of the buffer. *)
let take e =
  let b = e.buf in
  let instrs = Array.sub b.arr e.base (b.len - e.base) in
  b.len <- e.base;
  instrs

let reserve e n =
  let slot = e.next_slot in
  e.next_slot <- e.next_slot + n;
  if e.next_slot > e.max_ext then e.max_ext <- e.next_slot;
  slot

(* [Local_set] is nearly half of the instructions the compiler emits:
   the forms for the low slots are immutable values built once and
   shared by every code object. *)
let local_sets = Array.init 64 (fun i -> Rt.Local_set i)

let local_set i =
  if i < Array.length local_sets then local_sets.(i) else Rt.Local_set i

(* So are [Local_ref] and the constants of the booleans and of the
   fixnums 0 to 255 ([Call] sites are mutable and never shared).  The
   tables live as long as the process and every major collection marks
   them, so they cover only the values programs write most: sharing all
   of [Values.of_int]'s preallocated fixnums kept 3,000 more words live
   and saved no more words on a [compile] job. *)
let local_refs = Array.init 64 (fun i -> Rt.Local_ref i)

let local_ref i =
  if i < Array.length local_refs then local_refs.(i) else Rt.Local_ref i

let small_consts = Array.init 256 (fun n -> Rt.Const (Values.of_int n))
let const_true = Rt.Const Values.v_true
let const_false = Rt.Const Values.v_false

let const v =
  match v with
  | Rt.Fixnum ->
      let n = Values.to_int v in
      if n >= 0 && n < Array.length small_consts then small_consts.(n)
      else Rt.Const v
  | Rt.Bool b -> if b then const_true else const_false
  | _ -> Rt.Const v

let unallocated b = fail ("compiler: unallocated binding " ^ b.bname)

let gen_ref e b =
  match (b.loc, boxed b) with
  | Lslot i, false -> emit e (local_ref i) |> ignore
  | Lslot i, true -> emit e (Rt.Box_ref i) |> ignore
  | Lfree i, false -> emit e (Rt.Free_ref i) |> ignore
  | Lfree i, true -> emit e (Rt.Free_box_ref i) |> ignore
  | Unallocated, _ -> unallocated b

let gen_set e b =
  match (b.loc, boxed b) with
  | Lslot i, false -> emit e (local_set i) |> ignore
  | Lslot i, true -> emit e (Rt.Box_set i) |> ignore
  | Lfree i, true -> emit e (Rt.Free_box_set i) |> ignore
  | Lfree _, false -> fail "compiler: assignment to unboxed free variable"
  | Unallocated, _ -> unallocated b

let capture b =
  match b.loc with
  | Lslot i -> Rt.Cap_local i
  | Lfree i -> Rt.Cap_free i
  | Unallocated -> unallocated b

let loc_of_capture = function
  | Rt.Cap_local i -> Lslot i
  | Rt.Cap_free i -> Lfree i

let rec box_inits e = function
  | [] -> ()
  | (b, _) :: rest ->
      (match b.loc with
      | Lslot slot when boxed b -> ignore (emit e (Rt.Box_init slot))
      | _ -> ());
      box_inits e rest

let rec fill_caps caps i = function
  | [] -> ()
  | b :: rest ->
      caps.(i) <- capture b;
      fill_caps caps (i + 1) rest

let rec restore_caps caps i = function
  | [] -> ()
  | b :: rest ->
      b.loc <- loc_of_capture caps.(i);
      restore_caps caps (i + 1) rest

let rec place_params slot = function
  | [] -> ()
  | b :: rest ->
      b.loc <- Lslot slot;
      place_params (slot + 1) rest

let rec place_frees i = function
  | [] -> ()
  | b :: rest ->
      b.loc <- Lfree i;
      place_frees (i + 1) rest

let rec box_params e slot = function
  | [] -> ()
  | b :: rest ->
      if boxed b then ignore (emit e (Rt.Box_init slot));
      box_params e (slot + 1) rest

let rec gen e tail exp =
  match exp with
  | AQuote v -> ignore (emit e (const v))
  | ALocal b -> gen_ref e b
  | AGlobal x -> ignore (emit e (Rt.Global_ref (global_slot e x)))
  | ALocalSet (b, rhs) ->
      gen e false rhs;
      gen_set e b
  | AGlobalSet (x, rhs) ->
      gen e false rhs;
      ignore (emit e (Rt.Global_set (global_slot e x)))
  | AIf (t, c, a) ->
      gen e false t;
      let jf = emit e (Rt.Branch_false 0) in
      gen e tail c;
      let jend = emit e (Rt.Branch 0) in
      patch e jf (Rt.Branch_false (here e));
      gen e tail a;
      patch e jend (Rt.Branch (here e))
  | ABegin es -> gen_seq e tail es
  | ALet (bindings, body) ->
      let saved = e.next_slot in
      gen_inits e bindings;
      box_inits e bindings;
      gen e tail body;
      e.next_slot <- saved
  | ALambda l ->
      let caps = Array.make (List.length l.afree) (Rt.Cap_local 0) in
      fill_caps caps 0 l.afree;
      let code = gen_lambda e.buf l in
      (* [gen_lambda] left the captured bindings at their places in the
         closure's free vector: put them back where this frame has them. *)
      restore_caps caps 0 l.afree;
      ignore (emit e (Rt.Make_closure (code, caps)))
  | AApp (f, args) ->
      let nargs = List.length args in
      let d = reserve e (2 + nargs) in
      (* The operator is evaluated after its operands (R7RS 4.1.3
         leaves the order unspecified): a global's push then sits right
         before the call, where the peephole fuses a primitive call. *)
      gen_args e args (d + 2);
      gen_store e f (d + 1);
      e.next_slot <- d;
      ignore
        (emit e
           (if tail then Rt.Tail_call { disp = d; nargs }
            else
              (* [cs_ret] is interned when the code is finished. *)
              Rt.Call { cs_disp = d; cs_nargs = nargs; cs_ret = Rt.void }))

(* Evaluate [x] into frame slot [slot]. *)
and gen_store e x slot =
  gen e false x;
  ignore (emit e (local_set slot))

and gen_args e args slot =
  match args with
  | [] -> ()
  | a :: rest ->
      gen_store e a slot;
      gen_args e rest (slot + 1)

and gen_seq e tail = function
  | [] -> ()
  | [ last ] -> gen e tail last
  | x :: rest ->
      gen e false x;
      gen_seq e tail rest

(* Each init into a slot of its own, reserved after the init is
   generated; the bindings are visible only in the body. *)
and gen_inits e = function
  | [] -> ()
  | (b, init) :: rest ->
      gen e false init;
      let slot = reserve e 1 in
      ignore (emit e (local_set slot));
      b.loc <- Lslot slot;
      gen_inits e rest

(* Compile one lambda to an unfinished code object, its instructions
   emitted into [buf].  The lambda's parameters and captured bindings
   are left at their places in its frame and free vector. *)
and gen_lambda buf (l : alambda) : Rt.code =
  let nparams = List.length l.aparams in
  let first_local = 2 + nparams + (match l.arest with Some _ -> 1 | None -> 0) in
  let e = new_emitter buf first_local in
  place_params 2 l.aparams;
  (match l.arest with Some b -> b.loc <- Lslot (2 + nparams) | None -> ());
  place_frees 0 l.afree;
  ignore (emit e Rt.Enter);
  (* Box parameters that are assigned and captured. *)
  box_params e 2 l.aparams;
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
  Bytecode.code ~name:l.aname ~arity ~frame_words:e.max_ext (take e)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Compiled code is session-independent: global accesses are emitted
   against process-wide slot numbers, so the [Globals.t] argument of the
   compile entry points is only consulted by the peephole fuser (which
   snapshots the session's current bindings into inline caches).

   The compiler's code objects are unfinished ({!Bytecode.code}): the
   last stage of the pipeline finishes each one exactly once, after the
   last pass that renumbers its instructions — [finish_deep] here, or
   the peephole fuser for the code objects it builds. *)
let compile_top buf (top : Ast.top) =
  try
    let e = new_emitter buf 2 in
    ignore (emit e Rt.Enter);
    let name =
      match top with
      | Ast.Expr (ast, _) ->
          gen e true (analyze [] top_ctx ast);
          "top"
      | Ast.Define (x, ast, _) ->
          gen e false (analyze [] top_ctx ast);
          ignore (emit e (Rt.Global_define (Globals.slot x)));
          ignore (emit e (Rt.Const Rt.void));
          "define-" ^ x
    in
    ignore (emit e Rt.Return);
    Bytecode.code ~name ~arity:(Rt.Exactly 0) ~frame_words:e.max_ext (take e)
  with Compile_error (msg, None) ->
    raise (Compile_error (msg, Some (Ast.top_pos top)))

let compile_program (_ : Globals.t) tops =
  let buf = new_buffer () in
  List.map (compile_top buf) tops

(* Finish a code object and every code object it closes over: the end
   of the pipeline when no pass after the compiler renumbers them. *)
let rec finish_deep (c : Rt.code) =
  Bytecode.finish c;
  Array.iter
    (function Rt.Make_closure (cc, _) -> finish_deep cc | _ -> ())
    c.Rt.instrs

(* The pipeline's stage switches, owned by the machine that runs the
   code (see the interface). *)
type options = {
  optimize : bool;
  peephole : bool;
  regalloc : bool;
  verify : bool;
}

let default_options =
  { optimize = false; peephole = true; regalloc = true; verify = false }

(* The shared back half of the pipeline: optimize, compile, fuse or
   just finish, verify.  The entry points below differ only in how the
   expanded tops are obtained. *)
let compile_tops options globals tops =
  let tops = if options.optimize then Optimize.program tops else tops in
  let codes = compile_program globals tops in
  let codes =
    if options.peephole then
      Optimize.peephole_program ~regalloc:options.regalloc globals codes
    else (
      List.iter finish_deep codes;
      codes)
  in
  if options.verify then Verify.verify_program codes;
  codes

let compile_string ?(options = default_options) ?menv globals src =
  compile_tops options globals (Expander.expand_string ?menv src)

let compile_datum ?(options = default_options) ?menv globals datum =
  compile_tops options globals (Expander.expand_tops ?menv datum)

(* (eval datum): compile the datum's top-level forms through the same
   pipeline, then synthesize a driver code object that calls each
   compiled form in sequence. *)
let compile_eval ?(options = default_options) ?menv globals
    (datum : Rt.value) : Rt.code =
  match
    compile_datum ~options ?menv globals (Expander.value_to_datum datum)
  with
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
               [ Rt.Call { cs_disp = d; cs_nargs = 0; cs_ret = Rt.void };
                 Rt.Local_set (d + 1); Rt.Const clos ])
            @ !instrs)
        codes;
      instrs := Rt.Return :: !instrs;
      let driver =
        Bytecode.code ~name:"eval" ~arity:(Rt.Exactly 0) ~frame_words:(d + 3)
          (Array.of_list (List.rev !instrs))
      in
      Bytecode.finish driver;
      if options.verify then Verify.verify driver;
      driver
