(** Static bytecode verifier (DESIGN.md §16).

    A forward abstract interpreter over [Rt.instr] arrays, plus a
    structural scan checking the optimizer's fusion contracts.  The
    abstract state is (accumulator defined?, must-initialized frame
    slots), a packed bitset of [(frame_words + 1) / 8] bytes rounded up,
    kept only at join points — the entry and every reachable pc with two
    or more reachable predecessors — where incoming states take the
    pointwise AND, so every check holds on all paths.  One working state
    walks each straight run in place; a join is walked again only when
    it loses a bit.  Memory is O(pcs + (joins + open forks) *
    frame_words / 8) bytes per code object, and the code objects of one
    call share the scratch space (DESIGN.md §16.1).

    Verified properties:
    - every frame-slot, free-variable, and operand index is in range;
    - no instruction reads the accumulator or a frame slot that some
      path leaves undefined;
    - branch targets are in range and never re-enter the [Enter]
      prologue; the final instruction transfers control;
    - every non-tail call site ([Call], [Prim_call]/[1]/[2],
      [Prim_branch1]/[2] and their operand forms) carries an interned
      [Retaddr] naming the enclosing code, the following pc, and the
      site displacement;
    - every branch-fused form ([Local_branch_false], [Prim_branch1]/[2]
      and their operand forms) is followed by the [Branch_false] it
      absorbed, with the same target: a deopted or failed call resumes
      there;
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
    visited once, by physical identity, in time linear in the number of
    code objects however many share a name and source position). *)
