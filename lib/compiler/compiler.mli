(** Compilation of core forms to bytecode.

    The pipeline is: scope analysis (unique bindings, capture and assignment
    flags, free-variable lists), assignment conversion (variables that are
    both assigned and captured live in heap boxes), flat-closure conversion,
    and code generation for the accumulator machine interpreted by the VMs.

    Direct applications of lambda expressions ([let] after expansion) are
    inlined into the enclosing frame: they allocate no closure, which is
    what gives the stack model its near-zero per-frame overhead (paper §5).

    Frame layout (offsets from the frame pointer): slot 0 holds the return
    address, slot 1 the closure being invoked, slots 2.. the arguments,
    then locals and evaluation temporaries.  Each code object records
    [frame_words], the maximum extent the body can touch, so a single check
    at [Enter] covers every in-frame write. *)

exception Compile_error of string * Sexp.pos option
(** A compilation failure, with the source position of the top-level
    form being compiled when one is known (the compiler works over the
    position-free core AST, so the span is form-granular). *)

val compile_top : Globals.t -> Ast.top -> Rt.code
(** Compile one top-level form into a zero-argument code object that
    evaluates it (and performs the global definition, for [Define]). *)

val compile_program : Globals.t -> Ast.top list -> Rt.code list

val compile_string :
  ?optimize:bool ->
  ?peephole:bool ->
  ?regalloc:bool ->
  ?verify:bool ->
  ?hygiene:bool ->
  ?menv:Macro.menv ->
  Globals.t ->
  string ->
  Rt.code list
(** Read, expand, (optionally) optimize, and compile a whole program.

    [optimize] (default [false]) runs the AST-level constant folder,
    which assumes standard bindings and can change the meaning of
    programs that [set!] folded primitives.  [peephole] (default [true])
    runs the always-sound bytecode fusion pass ({!Optimize.peephole});
    pass [~peephole:false] to see (or execute) the unfused bytecode.
    [regalloc] (default [true]) controls the register-lowering stage of
    that pass (operand-addressed [Prim_*_op]/[Return_op] forms); pass
    [~regalloc:false] to keep the push-based encoding while retaining
    the other fusions.  Ignored when [peephole] is [false].
    [verify] (default [false]) runs the {!Verify} static bytecode
    verifier over every compiled code object (after fusion), raising
    [Verify.Error] on any violated invariant.
    [hygiene] (default [true]) is the expander's hygiene switch
    (see {!Expander}). *)

val compile_datum :
  ?optimize:bool ->
  ?peephole:bool ->
  ?regalloc:bool ->
  ?verify:bool ->
  ?hygiene:bool ->
  ?menv:Macro.menv ->
  Globals.t ->
  Sexp.t ->
  Rt.code list
(** Like {!compile_string}, but for one already-read top-level datum —
    the per-form entry point drivers use so a failure (or a runtime
    error in the resulting code) can be reported against the datum's
    own source position.  A [begin] datum may still yield several code
    objects. *)

val compile_eval :
  ?hygiene:bool -> ?menv:Macro.menv -> Globals.t -> Rt.value -> Rt.code
(** Compile a runtime datum for [(eval datum)]: a single zero-argument
    code object that runs the (possibly spliced) top-level forms in
    sequence and returns the last value.  The code is neither fused
    ({!Optimize.peephole}) nor verified ({!Verify}): it is the one
    exception to a session's [peephole] and [verify] settings. *)
