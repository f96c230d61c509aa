(** Static bytecode verifier (DESIGN.md §16).

    A forward abstract interpreter over [Rt.instr] arrays, plus a
    structural scan checking the optimizer's fusion contracts.  The
    abstract state per pc is (accumulator defined?, must-initialized
    frame-slot bitmap bounded by [frame_words]); branch join points take
    the pointwise AND, so every check holds on all paths.

    Verified properties:
    - every frame-slot, free-variable, and operand index is in range;
    - no instruction reads the accumulator or a frame slot that some
      path leaves undefined;
    - branch targets are in range and never re-enter the [Enter]
      prologue; the final instruction transfers control;
    - every non-tail call site ([Call], [Prim_call]/[1]/[2],
      [Prim_branch1]/[2]) carries an interned [Retaddr] naming the
      enclosing code, the following pc, and the site displacement;
    - every fused superinstruction's retained landing pad is a faithful
      de-fusion: branch-fused forms keep their [Branch_false] at pc+1,
      operand-lowered forms keep the staged pushes and the consuming
      [Prim_call*]/[Prim_branch*]/[Prim_tail_call]/[Return] in place,
      sharing the same [prim_site] by physical identity, with retained
      staged pushes restaging exactly the folded operands;
    - call areas fit inside [frame_words], so operand spilling before
      any frame-policy re-entry (capture, winders, overflow, timer,
      deopt) stays in bounds.

    Verification recurses through [Make_closure] into every child code
    object (each checked against its closure's capture count).  Codes
    that do not begin with [Enter] — the runtime-internal return-entered
    trampolines ([Engine.halt_code], the dynamic-wind resume codes) —
    are verified with every pc treated as an entry with a live frame. *)

exception Error of string
(** Diagnostic: code name, pc, rendered instruction, and the violated
    invariant. *)

val verify : ?nfrees:int -> Rt.code -> unit
(** Verify one code object and, recursively, every code object it
    closes over.  [nfrees] (default 0) is the number of free variables
    the executing closure provides — 0 for top-level codes.
    @raise Error on the first violation. *)

val verify_program : Rt.code list -> unit
(** Verify every code object of a compiled program (shared children are
    visited once, by physical identity). *)
