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

val compile_program : Globals.t -> Ast.top list -> Rt.code list
(** Compile each top-level form into a zero-argument code object that
    evaluates it (and performs the global definition, for [Define]).
    The code objects are unfinished ({!Bytecode.code}): pass them to
    {!Optimize.peephole_program}, which finishes what it builds, before
    any VM runs them.  The other entry points below return finished
    code. *)

type options = {
  optimize : bool;
      (** the AST-level constant folder ({!Optimize.program}), which
          assumes standard bindings and can change the meaning of
          programs that [set!] folded primitives *)
  peephole : bool;
      (** the always-sound bytecode fusion pass ({!Optimize.peephole_program});
          [false] keeps (and executes) the unfused bytecode *)
  regalloc : bool;
      (** the register-lowering stage of that pass (operand-addressed
          [Prim_*_op]/[Return_op] forms); [false] keeps the push-based
          encoding with the other fusions.  Ignored when [peephole] is
          [false]. *)
  verify : bool;
      (** run the {!Verify} static bytecode verifier over every compiled
          code object (after fusion), raising [Verify.Error] on any
          violated invariant *)
}
(** The pipeline's stage switches.  A machine owns one record
    ([Engine.vm]'s [options], set at creation) and compiles everything
    it runs through it: whole programs, per-form data and runtime
    [(eval datum)] alike. *)

val default_options : options
(** Optimizer off, fusion and register lowering on, verifier off. *)

val compile_string :
  ?options:options -> ?menv:Macro.menv -> Globals.t -> string -> Rt.code list
(** Read, expand, and compile a whole program through the stages
    [options] (default {!default_options}) selects.  Expansion is
    hygienic (see {!Expander}). *)

val compile_datum :
  ?options:options -> ?menv:Macro.menv -> Globals.t -> Sexp.t -> Rt.code list
(** Like {!compile_string}, but for one already-read top-level datum —
    the per-form entry point drivers use so a failure (or a runtime
    error in the resulting code) can be reported against the datum's
    own source position.  A [begin] datum may still yield several code
    objects. *)

val compile_eval :
  ?options:options -> ?menv:Macro.menv -> Globals.t -> Rt.value -> Rt.code
(** Compile a runtime datum for [(eval datum)] through {!compile_datum}'s
    pipeline: a single zero-argument code object that runs the (possibly
    spliced) top-level forms in sequence and returns the last value.
    The machines pass their own [options], so runtime-eval code is fused
    and verified exactly as the session's other code is. *)
