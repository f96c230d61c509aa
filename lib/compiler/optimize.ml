open Rt

(* Folders for the standard primitives: given fully constant arguments,
   return the folded value, or None when the fold does not apply (wrong
   types, arity, division by zero, overflow risk...).  Only immutable
   results may be produced: folding must never share fresh mutable
   structure between program points. *)

let num2 f args =
  match args with
  | [ (Fixnum as a); (Fixnum as b) ] -> f (Values.to_int a) (Values.to_int b)
  | _ -> None

let arith fi =
  fun args ->
    let rec go acc = function
      | [] -> Some (Values.of_int acc)
      | (Fixnum as n) :: rest -> go (fi acc (Values.to_int n)) rest
      | _ -> None
    in
    match args with (Fixnum as n) :: rest -> go (Values.to_int n) rest | _ -> None

let cmp op args =
  let rec go = function
    | (Fixnum as a) :: ((Fixnum as b) :: _ as rest) ->
        if op (Int.compare (Values.to_int a) (Values.to_int b)) 0 then go rest
        else Some (Bool false)
    | [ Fixnum ] -> Some (Bool true)
    | _ -> None
  in
  match args with _ :: _ :: _ -> go args | _ -> None

let folders : (string * (value list -> value option)) list =
  [
    ("+", arith ( + ));
    ("-", fun args -> (match args with [ (Fixnum as n) ] -> Some (Values.of_int (-Values.to_int n)) | _ -> arith ( - ) args));
    ("*", arith ( * ));
    ("quotient", num2 (fun a b -> if b = 0 then None else Some (Values.of_int (a / b))));
    ("remainder", num2 (fun a b -> if b = 0 then None else Some (Values.of_int (Int.rem a b))));
    ("=", cmp ( = ));
    ("<", cmp ( < ));
    (">", cmp ( > ));
    ("<=", cmp ( <= ));
    (">=", cmp ( >= ));
    ("abs", fun args -> (match args with [ (Fixnum as n) ] -> Some (Values.of_int (abs (Values.to_int n))) | _ -> None));
    ("zero?", fun args -> (match args with [ (Fixnum as n) ] -> Some (Bool (Values.to_int n = 0)) | _ -> None));
    ("not", fun args ->
        match args with [ v ] -> Some (Bool (not (Values.is_truthy v))) | _ -> None);
    ("null?", fun args -> (match args with [ Nil _ ] -> Some (Bool true) | [ (Fixnum | Bool _ | Sym _ | Char _) ] -> Some (Bool false) | _ -> None));
    ("eq?", fun args ->
        match args with
        | [ a; b ] -> (
            (* only immediates compare stably at fold time *)
            match (a, b) with
            | (Fixnum | Bool _ | Sym _ | Char _ | Nil _), _ ->
                Some (Bool (Values.eq a b))
            | _ -> None)
        | _ -> None);
    ("car", fun args -> (match args with [ Pair p ] -> Some p.car | _ -> None));
    ("cdr", fun args -> (match args with [ Pair p ] -> Some p.cdr | _ -> None));
    ("length", fun args ->
        match args with
        | [ l ] -> (
            match Values.list_of_value_opt l with
            | Some items -> Some (Values.of_int (List.length items))
            | None -> None)
        | _ -> None);
  ]

(* An expression whose evaluation has no effect and cannot fail: safe to
   drop in non-final begin position. *)
let rec effect_free (e : Ast.t) =
  match e with
  | Ast.Quote _ | Ast.Lambda _ -> true
  | Ast.Var _ -> false (* may be unbound: keep the error *)
  | Ast.If (a, b, c) -> effect_free a && effect_free b && effect_free c
  | Ast.Begin es -> List.for_all effect_free es
  | Ast.App _ | Ast.Set _ -> false

(* [bound] tracks lexically bound names: a shadowed primitive name must
   not be folded. *)
let rec opt bound (e : Ast.t) : Ast.t =
  match e with
  | Ast.Quote _ | Ast.Var _ -> e
  | Ast.Set (x, rhs) -> Ast.Set (x, opt bound rhs)
  | Ast.Lambda l ->
      let bound' =
        l.Ast.params
        @ (match l.Ast.rest with Some r -> [ r ] | None -> [])
        @ bound
      in
      Ast.Lambda { l with body = opt bound' l.body }
  | Ast.If (t, c, a) -> (
      let t = opt bound t in
      match t with
      | Ast.Quote v ->
          if Values.is_truthy v then opt bound c else opt bound a
      | t -> Ast.If (t, opt bound c, opt bound a))
  | Ast.Begin es ->
      let es = List.concat_map flatten es in
      let rec prune = function
        | [] -> []
        | [ last ] -> [ opt bound last ]
        | x :: rest ->
            let x = opt bound x in
            if effect_free x then prune rest else x :: prune rest
      in
      (match prune es with
      | [] -> Ast.Quote void
      | [ one ] -> one
      | es -> Ast.Begin es)
  | Ast.App (f, args) -> (
      let f = opt bound f in
      let args = List.map (opt bound) args in
      match f with
      | Ast.Var name when not (List.mem name bound) -> (
          (* A lexically unbound name is a global reference under its
             source name, marks stripped — including macro-introduced
             references to folded primitives. *)
          match List.assoc_opt (Macro.strip_marks name) folders with
          | Some folder -> (
              let consts =
                List.map (function Ast.Quote v -> Some v | _ -> None) args
              in
              if List.for_all Option.is_some consts then
                match folder (List.map Option.get consts) with
                | Some v -> Ast.Quote v
                | None -> Ast.App (f, args)
              else Ast.App (f, args))
          | None -> Ast.App (f, args))
      | _ -> Ast.App (f, args))

and flatten (e : Ast.t) =
  match e with Ast.Begin es -> List.concat_map flatten es | e -> [ e ]

let expr e = opt [] e

let top = function
  | Ast.Expr (e, p) -> Ast.Expr (expr e, p)
  | Ast.Define (x, e, p) -> Ast.Define (x, expr e, p)

let program tops = List.map top tops

(* ------------------------------------------------------------------ *)
(* Bytecode peephole: superinstruction fusion                          *)
(* ------------------------------------------------------------------ *)

(* Post-compile pass over [instrs] arrays: one renumbering scan.

   The scan walks the compiled code once, left to right, and writes each
   instruction or fused window into one output array.  Two windows fuse:

   1. Push fusion: a value-producing instruction immediately followed by
      [Local_set d] collapses into one [*_push] superinstruction that
      writes the frame slot directly.  The fused form does not set [acc],
      so fusion only fires where [acc] is provably dead: the fall-through
      instruction must itself be an [acc] producer (or a call, which
      ignores [acc]), and no branch may target the consumed [Local_set].

   2. Primitive-call fusion: the window

        Global_ref g; Local_set (d+1); (Tail_)Call {disp=d}

      where [g] is currently bound to a pure primitive of matching arity
      collapses into a [Prim_call]/[Prim_tail_call] superinstruction
      carrying an inline cache (the bound [Prim] value as a physical
      witness); when it is not, the first two still fuse into a
      [Global_push].  The compiler loads a global operator after its
      operands, so the callee load always sits right before its call
      and a fixed window finds every site.  The VM guard re-checks the
      binding on every execution and deoptimizes to the generic call
      path when it changed, so [set!] of [+] etc. keeps its standard
      semantics.

   With register lowering on ([regalloc]), the scan also folds argument
   staging ([fold] below): a fixed-arity primitive call written to the
   output absorbs the staging just written before it into one operand
   form, and a [Return] absorbs the [Const]/[Local_ref] before it.

   A window or a fold never swallows a branch target, so only a window's
   first pc needs an old-pc -> new-pc entry. *)

(* Is [acc] irrelevant to [i] (it overwrites or ignores it)?  The scan
   sees only compiler output, so only the constructors the compiler
   emits are listed. *)
let acc_dead_at = function
  | Rt.Const _ | Rt.Local_ref _ | Rt.Box_ref _ | Rt.Free_ref _
  | Rt.Free_box_ref _ | Rt.Global_ref _ | Rt.Make_closure _ | Rt.Call _
  | Rt.Tail_call _ | Rt.Box_init _ ->
      true
  | _ -> false

(* The fused call of global [s] with [nargs] arguments at displacement
   [disp] ([call] is the call instruction), when the slot is bound to a
   pure primitive that accepts [nargs]: the validated arity is what
   licenses the fused forms to call the fixed-arity entries.  Otherwise
   the operator's load and store fuse into a [Global_push] into [d].
   [globals] is the session whose current bindings the inline caches
   witness: compiled code carries slot numbers, so the fuser resolves
   each candidate slot here, once, and bakes the bound [Prim] value into
   the site as the guard. *)
let fuse_call globals s d call ~disp ~nargs =
  let g = Globals.get globals s in
  match g.Rt.gval with
  | Rt.Prim ({ pfn = Pure { fn; fn1; fn2 }; parity; _ } as p) as pv
    when g.Rt.gdefined && Bytecode.arity_matches parity nargs -> (
      let site =
        {
          Rt.ps_disp = disp;
          ps_nargs = nargs;
          ps_slot = s;
          ps_guard = pv;
          ps_prim = p;
          ps_fn = fn;
          ps_fn1 = fn1;
          ps_fn2 = fn2;
          ps_ret = Rt.void (* interned when the code is finished *);
        }
      in
      match call with
      | Rt.Tail_call _ -> Rt.Prim_tail_call site
      | _ when nargs = 1 -> Rt.Prim_call1 site
      | _ when nargs = 2 -> Rt.Prim_call2 site
      | _ -> Rt.Prim_call site)
  | _ -> Rt.Global_push (s, d)

(* The instruction standing for the window that starts at [pc]: a fused
   form, or [instrs.(pc)] itself. *)
let fuse_window globals target instrs pc =
  let n = Array.length instrs in
  if pc + 2 >= n || target.(pc + 1) || not (acc_dead_at instrs.(pc + 2))
  then instrs.(pc)
  else
    match (instrs.(pc), instrs.(pc + 1)) with
    | Rt.Const v, Rt.Local_set d -> Rt.Const_push (v, d)
    | Rt.Local_ref s, Rt.Local_set d when s <> d -> Rt.Local_push (s, d)
    | Rt.Free_ref s, Rt.Local_set d -> Rt.Free_push (s, d)
    | Rt.Global_ref g, Rt.Local_set d -> (
        match instrs.(pc + 2) with
        | ( Rt.Call { cs_disp = disp; cs_nargs = nargs; _ }
          | Rt.Tail_call { disp; nargs } ) as call
          when disp + 1 = d && not target.(pc + 2) ->
            fuse_call globals g d call ~disp ~nargs
        | _ -> Rt.Global_push (g, d))
    | i, _ -> i

(* How many input instructions the result of [fuse_window] stands for.
   The input holds no fused forms, so the result names its window. *)
let window_width = function
  | Rt.Const_push _ | Rt.Local_push _ | Rt.Free_push _ | Rt.Global_push _ -> 2
  | Rt.Prim_call _ | Rt.Prim_call1 _ | Rt.Prim_call2 _ | Rt.Prim_tail_call _ ->
      3
  | _ -> 1

(* Register lowering ("regalloc"): argument staging folds into the
   consumer.  The staging of a fused primitive call's arguments --
   [Const_push] / [Local_push] into its argument slots, or the
   [Local_set] that stores a just-computed accumulator value into one --
   becomes an [Rt.operand] of the call, read straight from the
   accumulator, a source slot or the instruction stream, so the staged
   values never touch stack memory on the fast path.  The fold replaces
   the staging and the consumer with one operand form, which continues
   at the next pc like the call it stands for; its slow paths spill the
   operand values into the argument slots before re-entering the frame
   policy.

   Soundness of skipping the staged writes: the matched destination
   slots are exactly the consumer's argument slots ([ps_disp + 2 ..]),
   which the compiler's slot allocator retires after the call (a live
   variable always sits below any later-reserved call area), so the only
   reader of those slots is the consumer itself, which now carries the
   values as operands.  A [Local_push] source read out of order must not
   alias a slot staged earlier in the same sequence; the fold rejects
   that (the analogue of the [s <> d] guard in push fusion).

   A two-argument site whose first argument was stored by earlier code
   (a global operator is loaded after its operands, so that is usually a
   call's result) has only its second staging next to the consumer.
   That staging folds, and the first argument is read in place as
   [Op_local] of its own slot.

   The argument slot an instruction of the output stages, or -1. *)
let staged = function
  | Rt.Const_push (_, d) | Rt.Local_push (_, d) | Rt.Local_set d -> d
  | _ -> -1

(* The operand standing for a staging. *)
let operand = function
  | Rt.Const_push (v, _) -> Rt.Op_const v
  | Rt.Local_push (s, _) -> Rt.Op_local s
  | _ -> Rt.Op_acc

(* The operand form of consumer [i] on operands [a] and [b] (ignored
   for one argument), or [i] itself when it has none. *)
let operand_form i a b =
  match i with
  | Rt.Prim_call1 s -> Rt.Prim_call1_op (s, a)
  | Rt.Prim_call2 s -> Rt.Prim_call2_op (s, a, b)
  | Rt.Prim_tail_call s when s.Rt.ps_nargs = 1 -> Rt.Prim_tail1_op (s, a)
  | Rt.Prim_tail_call s when s.Rt.ps_nargs = 2 -> Rt.Prim_tail2_op (s, a, b)
  | i -> i

(* Write [i] at output pc [m]; returns the next output pc. *)
let put out m i =
  out.(m) <- i;
  m + 1

(* Put [i], the window at input pc [pc], at output pc [m], folding the
   staging written just before it when [regalloc] is on; returns the next
   output pc.  No branch may target a folded-away instruction, so a
   consumer that a branch targets stays plain, and so does a second
   staging (its window started [window_width] input pcs before the
   consumer's); a first staging may be one, since the form takes its
   place.  The one exception is a [Return]: a branch target keeps its
   own [Return] after the [Return_op] that also stands for it. *)
let fold ~regalloc target out i pc m =
  if not regalloc || m = 0 then put out m i
  else
    let prev = out.(m - 1) in
    match i with
    | Rt.Return -> (
        match prev with
        | Rt.Const v ->
            out.(m - 1) <- Rt.Return_op (Rt.Op_const v);
            if target.(pc) then put out m i else m
        | Rt.Local_ref s ->
            out.(m - 1) <- Rt.Return_op (Rt.Op_local s);
            if target.(pc) then put out m i else m
        | _ -> put out m i)
    | (Rt.Prim_call1 s | Rt.Prim_call2 s | Rt.Prim_tail_call s)
      when not target.(pc) ->
        let d0 = s.Rt.ps_disp + 2 and nargs = s.Rt.ps_nargs in
        if
          nargs = 2 && m >= 2
          && staged out.(m - 2) = d0
          && staged prev = d0 + 1
          && (not target.(pc - window_width prev))
          && (match prev with Rt.Local_push (s, _) -> s <> d0 | _ -> true)
        then begin
          out.(m - 2) <- operand_form i (operand out.(m - 2)) (operand prev);
          m - 1
        end
        else if nargs = 1 && staged prev = d0 then begin
          out.(m - 1) <- operand_form i (operand prev) Rt.Op_acc;
          m
        end
        else if nargs = 2 && staged prev = d0 + 1 then begin
          out.(m - 1) <- operand_form i (Rt.Op_local d0) (operand prev);
          m
        end
        else put out m i
    | _ -> put out m i

(* Branch fusion, in the closing loop.  A [Branch_false] consuming the
   value of the instruction right before it fuses INTO that producer --
   but the [Branch_false] itself stays in the array, jumped over by the
   fused form.  Keeping it makes the rewrite purely local: branches into
   the [Branch_false] keep their exact unfused semantics, and a deopted
   [Prim_branch*] (or an error handler that returns a replacement value)
   resumes at the retained branch, which then tests the returned value
   just as the unfused sequence would.  [t] is the retained branch's
   renumbered target. *)
let fuse_branch producer t =
  match producer with
  | Rt.Local_ref s -> Rt.Local_branch_false (s, t)
  | Rt.Prim_call1 site -> Rt.Prim_branch1 (site, t)
  | Rt.Prim_call2 site -> Rt.Prim_branch2 (site, t)
  | Rt.Prim_call1_op (site, a) -> Rt.Prim_branch1_op (site, a, t)
  | Rt.Prim_call2_op (site, a, b) -> Rt.Prim_branch2_op (site, a, b, t)
  | i -> i

(* The scratch arrays of one [peephole_program] call, grown to its
   largest code object and reused by the others.  They belong to the
   call, never to the process: sessions compile on several domains. *)
type scratch = {
  mutable target : bool array; (* is this old pc a branch target? *)
  mutable out : Rt.instr array; (* the scan's output *)
  mutable map : int array; (* old pc -> new pc *)
}

let new_scratch () = { target = [||]; out = [||]; map = [||] }

(* Room for a code object of [n] instructions, no branch target marked. *)
let fit s n =
  if Array.length s.map <= n then begin
    let cap = max (n + 1) (2 * Array.length s.map) in
    s.target <- Array.make cap false;
    s.out <- Array.make cap Rt.Return;
    s.map <- Array.make cap 0
  end
  else Array.fill s.target 0 (n + 1) false

(* Fuse one code object and, recursively, every code object it closes
   over.  Frame layout, arity, and [frame_words] are unchanged: fusion
   only merges dispatches.

   After the scan, one closing loop remaps branch targets and fuses
   branches.  The scan renumbers pcs, but the compiler's code is not
   finished yet, so its [Call] instructions carry no return address and
   are kept as they are.  Once the closing loop is done the scratch
   arrays are free, and the closures' code objects are fused with them.
   The fused code object is finished ({!Bytecode.finish}) as the final
   step: the only validation and backpatching it gets.  The fused stream
   replaces the input's in the same code object, so a code is fused at
   most once and nothing of the input is left to run.  Every helper of
   the scan is a top-level function over explicit arguments: a code
   object costs its output and no closures. *)
let rec fuse s ~regalloc globals (c : Rt.code) : Rt.code =
  let input = c.Rt.instrs in
  let n = Array.length input in
  fit s n;
  let { target; out; map } = s in
  for pc = 0 to n - 1 do
    match input.(pc) with
    | Rt.Branch t | Rt.Branch_false t ->
        if t >= 0 && t <= n then target.(t) <- true
    | _ -> ()
  done;
  let m = ref 0 and pc = ref 0 in
  while !pc < n do
    let i = fuse_window globals target input !pc in
    map.(!pc) <- !m;
    m := fold ~regalloc target out i !pc !m;
    pc := !pc + window_width i
  done;
  map.(n) <- !m;
  let m = !m in
  let instrs = Array.sub out 0 m in
  for j = 0 to m - 1 do
    match instrs.(j) with
    | Rt.Branch t -> instrs.(j) <- Rt.Branch map.(t)
    | Rt.Branch_false t -> instrs.(j) <- Rt.Branch_false map.(t)
    | i when j + 1 < m -> (
        (* The loop has not reached [j + 1] yet: [t] is still an old pc. *)
        match instrs.(j + 1) with
        | Rt.Branch_false t -> instrs.(j) <- fuse_branch i map.(t)
        | _ -> ())
    | _ -> ()
  done;
  for j = 0 to m - 1 do
    match instrs.(j) with
    | Rt.Make_closure (cc, caps) ->
        instrs.(j) <- Rt.Make_closure (fuse s ~regalloc globals cc, caps)
    | _ -> ()
  done;
  c.Rt.instrs <- instrs;
  Bytecode.finish c;
  c

let peephole_program ?(regalloc = true) globals codes =
  let s = new_scratch () in
  List.map (fuse s ~regalloc globals) codes
