open Rt

(* Folders for the standard primitives: given fully constant arguments,
   return the folded value, or None when the fold does not apply (wrong
   types, arity, division by zero, overflow risk...).  Only immutable
   results may be produced: folding must never share fresh mutable
   structure between program points. *)

let num2 f args =
  match args with
  | [ Int a; Int b ] -> f a b
  | _ -> None

let arith fi =
  fun args ->
    let rec go acc = function
      | [] -> Some (Int acc)
      | Int n :: rest -> go (fi acc n) rest
      | _ -> None
    in
    match args with Int n :: rest -> go n rest | _ -> None

let cmp op args =
  let rec go = function
    | Int a :: (Int b :: _ as rest) ->
        if op (compare a b) 0 then go rest else Some (Bool false)
    | [ Int _ ] -> Some (Bool true)
    | _ -> None
  in
  match args with _ :: _ :: _ -> go args | _ -> None

let folders : (string * (value list -> value option)) list =
  [
    ("+", arith ( + ));
    ("-", fun args -> (match args with [ Int n ] -> Some (Int (-n)) | _ -> arith ( - ) args));
    ("*", arith ( * ));
    ("quotient", num2 (fun a b -> if b = 0 then None else Some (Int (a / b))));
    ("remainder", num2 (fun a b -> if b = 0 then None else Some (Int (Int.rem a b))));
    ("=", cmp ( = ));
    ("<", cmp ( < ));
    (">", cmp ( > ));
    ("<=", cmp ( <= ));
    (">=", cmp ( >= ));
    ("abs", fun args -> (match args with [ Int n ] -> Some (Int (abs n)) | _ -> None));
    ("zero?", fun args -> (match args with [ Int n ] -> Some (Bool (n = 0)) | _ -> None));
    ("not", fun args ->
        match args with [ v ] -> Some (Bool (not (Values.is_truthy v))) | _ -> None);
    ("null?", fun args -> (match args with [ Nil ] -> Some (Bool true) | [ (Int _ | Bool _ | Sym _ | Char _) ] -> Some (Bool false) | _ -> None));
    ("eq?", fun args ->
        match args with
        | [ a; b ] -> (
            (* only immediates compare stably at fold time *)
            match (a, b) with
            | (Int _ | Bool _ | Sym _ | Char _ | Nil), _ ->
                Some (Bool (Values.eq a b))
            | _ -> None)
        | _ -> None);
    ("car", fun args -> (match args with [ Pair p ] -> Some p.car | _ -> None));
    ("cdr", fun args -> (match args with [ Pair p ] -> Some p.cdr | _ -> None));
    ("length", fun args ->
        match args with
        | [ l ] -> (
            match Values.list_of_value_opt l with
            | Some items -> Some (Int (List.length items))
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
      | [] -> Ast.Quote Void
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

(* Post-compile pass over [instrs] arrays: one renumbering scan, then
   in-place register lowering.

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

   A window never swallows a branch target, so only a window's first pc
   needs an old-pc -> new-pc entry. *)

(* Is [acc] irrelevant to [i] (it overwrites or ignores it)?  The scan
   sees only compiler output, so only the constructors the compiler
   emits are listed. *)
let acc_dead_at = function
  | Rt.Const _ | Rt.Local_ref _ | Rt.Box_ref _ | Rt.Free_ref _
  | Rt.Free_box_ref _ | Rt.Global_ref _ | Rt.Make_closure _ | Rt.Call _
  | Rt.Tail_call _ | Rt.Box_init _ ->
      true
  | _ -> false

(* The inline-cache site for a call of global [s] with [nargs] arguments
   at displacement [disp], when the slot is bound to a pure primitive
   that accepts [nargs]: the validated arity is what licenses the fused
   forms to call the fixed-arity entries. *)
let pure_target globals s ~disp ~nargs =
  let g = Globals.get globals s in
  if not g.Rt.gdefined then None
  else
    match g.Rt.gval with
    | Rt.Prim ({ pfn = Pure { fn; fn1; fn2 }; parity; _ } as p) as pv
      when Bytecode.arity_matches parity nargs ->
        Some
          {
            Rt.ps_disp = disp;
            ps_nargs = nargs;
            ps_slot = s;
            ps_guard = pv;
            ps_prim = p;
            ps_fn = fn;
            ps_fn1 = fn1;
            ps_fn2 = fn2;
            ps_ret = Rt.Void (* interned by Bytecode.backpatch *);
          }
    | _ -> None

(* The instruction standing for the window that starts at [pc]: a fused
   form, or [instrs.(pc)] itself.  [globals] is the session whose current
   bindings the inline caches witness: compiled code carries slot
   numbers, so the fuser resolves each candidate slot here, once, and
   bakes the bound [Prim] value into the site as the guard. *)
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
          when disp + 1 = d && not target.(pc + 2) -> (
            match pure_target globals g ~disp ~nargs with
            | Some site -> (
                match call with
                | Rt.Tail_call _ -> Rt.Prim_tail_call site
                | _ when nargs = 1 -> Rt.Prim_call1 site
                | _ when nargs = 2 -> Rt.Prim_call2 site
                | _ -> Rt.Prim_call site)
            | None -> Rt.Global_push (g, d))
        | _ -> Rt.Global_push (g, d))
    | i, _ -> i

(* How many input instructions the result of [fuse_window] stands for.
   The input holds no fused forms, so the result names its window. *)
let window_width = function
  | Rt.Const_push _ | Rt.Local_push _ | Rt.Free_push _ | Rt.Global_push _ -> 2
  | Rt.Prim_call _ | Rt.Prim_call1 _ | Rt.Prim_call2 _ | Rt.Prim_tail_call _ ->
      3
  | _ -> 1

(* Branch fusion, in the closing loop.  A [Branch_false] consuming the
   value of the instruction right before it fuses INTO that producer —
   but the [Branch_false] itself stays in the array, jumped over by the
   fused form.  Keeping it makes the rewrite purely local: no pc
   renumbering, branches into either instruction of the pair keep their
   exact unfused semantics, and a deopted [Prim_branch*] (or an error
   handler that returns a replacement value) resumes at the retained
   branch, which then tests the returned value just as the unfused
   sequence would.  [t] is the retained branch's renumbered target. *)
let fuse_branch producer t =
  match producer with
  | Rt.Local_ref s -> Rt.Local_branch_false (s, t)
  | Rt.Prim_call1 site -> Rt.Prim_branch1 (site, t)
  | Rt.Prim_call2 site -> Rt.Prim_branch2 (site, t)
  | i -> i

(* Register lowering ("regalloc"), in place on the scan's output.  The
   argument-staging instructions of an already-fused primitive call —
   [Const_push] / [Local_push] into the site's argument slots, or the
   [Local_set] that stores a just-computed accumulator value into the
   first one — fold into the consumer as [Rt.operand]s, so the staged
   values are read straight from the accumulator, a source slot, or the
   instruction stream and never touch stack memory on the fast path.

   Like branch fusion this lowering is purely local: only the *head* of the
   staged sequence is replaced, every following original (the remaining
   pushes and the consuming [Prim_call*]/[Prim_branch*]/[Prim_tail_call]/
   [Return]) is retained in place as the deopt landing pad, and no pc is
   renumbered — the retained consumer keeps the pc its interned [ps_ret]
   was backpatched against, branches into the interior keep their exact
   unfused semantics, and the fused handler's slow paths spill the
   operand values into the argument slots before re-entering the frame
   policy.

   Soundness of skipping the staged writes: the matched destination
   slots are exactly the consumer's argument slots ([ps_disp + 2 ..]),
   which the compiler's slot allocator retires after the call (a live
   variable always sits below any later-reserved call area), so the only
   reader of those slots is the consumer itself — which now carries the
   values as operands — or the retained landing pad, which re-stages
   them itself.  A [Local_push] source read out of order must not alias
   a slot staged earlier in the same sequence; [no_alias] rejects that
   (the analogue of the [s <> d] guard in push fusion).

   A two-argument site whose first argument was stored by earlier code
   (a global operator is loaded after its operands, so that is usually a
   call's result) has only its second staging next to the consumer.
   That staging becomes the head and the first argument is read in place
   as [Op_local] of its own slot: nothing to retain for it, and a slow
   path's spill rewrites the value already there
   ([Bytecode.consumer_offset2] locates the consumer for both shapes).

   A head is written only at the pc being scanned, and the scan then
   moves past its consumer, so every later read sees unlowered input. *)
let fuse_operands instrs =
  let n = Array.length instrs in
  let staged pc =
    if pc >= n then None
    else
      match instrs.(pc) with
      | Rt.Const_push (v, d) -> Some (d, Rt.Op_const v)
      | Rt.Local_push (s, d) -> Some (d, Rt.Op_local s)
      | Rt.Local_set d -> Some (d, Rt.Op_acc)
      | _ -> None
  in
  let no_alias ~staged_slot = function
    | Rt.Op_local s -> s <> staged_slot
    | _ -> true
  in
  (* The head folding operand [a], and [b] for a two-argument site, into
     the consumer at [pc], whose first argument slot must be [arg]. *)
  let head pc ~arg a b =
    if pc >= n then None
    else
      match (instrs.(pc), b) with
      | ( ( Rt.Prim_call1 s | Rt.Prim_call2 s | Rt.Prim_tail_call s
          | Rt.Prim_branch1 (s, _)
          | Rt.Prim_branch2 (s, _) ),
          _ )
        when s.Rt.ps_disp + 2 <> arg ->
          None
      | Rt.Prim_call1 s, None -> Some (Rt.Prim_call1_op (s, a))
      | Rt.Prim_branch1 (s, t), None -> Some (Rt.Prim_branch1_op (s, a, t))
      | Rt.Prim_tail_call s, None when s.Rt.ps_nargs = 1 ->
          Some (Rt.Prim_tail1_op (s, a))
      | Rt.Prim_call2 s, Some b -> Some (Rt.Prim_call2_op (s, a, b))
      | Rt.Prim_branch2 (s, t), Some b -> Some (Rt.Prim_branch2_op (s, a, b, t))
      | Rt.Prim_tail_call s, Some b when s.Rt.ps_nargs = 2 ->
          Some (Rt.Prim_tail2_op (s, a, b))
      | _ -> None
  in
  let pc = ref 0 in
  (* Put head [f] at [pc] and go on past its consumer, [width]
     instructions on. *)
  let fused f width =
    instrs.(!pc) <- f;
    pc := !pc + width
  in
  while !pc < n do
    let p = !pc in
    match staged p with
    | None -> (
        (* Producer + [Return] epilogue: one dispatch per leaf return. *)
        match (instrs.(p), if p + 1 < n then instrs.(p + 1) else Rt.Halt) with
        | Rt.Const v, Rt.Return -> fused (Rt.Return_op (Rt.Op_const v)) 2
        | Rt.Local_ref s, Rt.Return -> fused (Rt.Return_op (Rt.Op_local s)) 2
        | _ -> incr pc)
    | Some (d0, op0) -> (
        let two =
          match staged (p + 1) with
          | Some (d1, op1) when d1 = d0 + 1 && no_alias ~staged_slot:d0 op1 ->
              head (p + 2) ~arg:d0 op0 (Some op1)
          | _ -> None
        in
        match two with
        | Some f -> fused f 3
        | None -> (
            match head (p + 1) ~arg:d0 op0 None with
            | Some f -> fused f 2
            | None -> (
                let a = Rt.Op_local (d0 - 1) in
                match head (p + 1) ~arg:(d0 - 1) a (Some op0) with
                | Some f -> fused f 2
                | None -> incr pc)))
  done

(* Fuse one code object and, recursively, every code object it closes
   over.  Frame layout, arity, and [frame_words] are unchanged: fusion
   only merges dispatches.

   After the scan, one closing loop remaps branch targets, fuses
   branches and recurses into closures.  The scan renumbers pcs, so the
   static return addresses interned by [Bytecode.backpatch] at
   [make_code] time are stale: the closing loop also re-creates every
   surviving [Call] site (never shared with the input
   array, whose backpatched [cs_ret] still describes the old numbering)
   and the fused code object is re-backpatched as the final step.  The
   register lowering ([fuse_operands], [--no-regalloc] escape hatch)
   runs after the closing loop, so the operand forms never need
   remapping and can consume branch-fused consumers. *)
let rec peephole ?(regalloc = true) globals (c : Rt.code) : Rt.code =
  let input = c.Rt.instrs in
  let n = Array.length input in
  let target = Array.make (n + 1) false in
  Array.iter
    (function
      | Rt.Branch t | Rt.Branch_false t ->
          if t >= 0 && t <= n then target.(t) <- true
      | _ -> ())
    input;
  let out = Array.make n Rt.Return in
  let map = Array.make (n + 1) 0 in
  let m = ref 0 and pc = ref 0 in
  while !pc < n do
    let i = fuse_window globals target input !pc in
    map.(!pc) <- !m;
    out.(!m) <- i;
    incr m;
    pc := !pc + window_width i
  done;
  map.(n) <- !m;
  let m = !m in
  let instrs = Array.sub out 0 m in
  for j = 0 to m - 1 do
    match instrs.(j) with
    | Rt.Branch t -> instrs.(j) <- Rt.Branch map.(t)
    | Rt.Branch_false t -> instrs.(j) <- Rt.Branch_false map.(t)
    | Rt.Call { cs_disp; cs_nargs; _ } ->
        instrs.(j) <- Rt.Call { cs_disp; cs_nargs; cs_ret = Rt.Void }
    | Rt.Make_closure (cc, caps) ->
        instrs.(j) <- Rt.Make_closure (peephole ~regalloc globals cc, caps)
    | i when j + 1 < m -> (
        (* The loop has not reached [j + 1] yet: [t] is still an old pc. *)
        match instrs.(j + 1) with
        | Rt.Branch_false t -> instrs.(j) <- fuse_branch i map.(t)
        | _ -> ())
    | _ -> ()
  done;
  if regalloc then fuse_operands instrs;
  (* Fusion bypasses [make_code], so re-run the structural validation
     here: the rewritten stream must still satisfy the unsafe-fetch
     invariants (and the landing-pad/operand-range checks validate added
     for the fused forms). *)
  Bytecode.validate ~name:c.Rt.cname ~frame_words:c.Rt.frame_words instrs;
  let c' = { c with Rt.instrs } in
  Bytecode.backpatch c';
  c'

let peephole_program ?regalloc globals codes =
  List.map (peephole ?regalloc globals) codes
