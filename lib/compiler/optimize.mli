(** Optional AST-level optimizer (off by default).

    Performs constant folding of the standard arithmetic/comparison/list
    primitives, branch pruning of constant [if] tests, flattening of
    nested [begin]s, and elimination of effect-free expressions in
    non-final [begin] positions.

    Folding assumes the standard bindings of the folded primitives are
    never assigned ([set!] on [+] etc.); enabling the optimizer on a
    program that redefines them changes its meaning, exactly as with
    "assume standard bindings" switches in production Scheme compilers. *)

val expr : Ast.t -> Ast.t
val program : Ast.top list -> Ast.top list

(** {1 Bytecode peephole pass}

    Unlike the AST folder above, the peephole stage is sound by
    construction and is applied by default ([Compiler.compile_string
    ~peephole:true]).  One forward scan over each compiled [instrs]
    array renumbers pcs once and fuses two windows:

    - push fusion: a value-producing instruction immediately followed by
      [Local_set] becomes a single [*_push] superinstruction that writes
      the frame slot directly, provided the accumulator is provably dead
      at the fusion site (the fall-through instruction overwrites or
      ignores it and the [Local_set] is not a branch target);
    - primitive-call fusion: [Global_ref; Local_set] of a cell currently
      bound to a pure primitive, immediately followed by the matching
      [Call]/[Tail_call] (the compiler loads the operator after its
      operands, so the load always sits there), becomes a [Prim_call*]
      site carrying an inline cache.  The VM re-validates the cache
      ([gval == ps_guard]) on every execution, so [set!] of a fused
      primitive deoptimizes the site to the generic call path and the
      program's meaning is preserved.

    The scan's closing loop remaps branch targets and performs branch
    fusion (the producer of a [Branch_false] test absorbs the branch,
    the original branch staying in place as the deopt landing pad).
    Register lowering then rewrites the same array in place
    ([regalloc], on by default, [~regalloc:false] /
    [--no-regalloc] to disable): the argument-staging pushes of a fused
    primitive call — and the [Local_set] storing a just-computed
    accumulator value into the first argument slot — fold into the
    consumer as [Rt.operand]s ([Prim_call1_op] ... [Prim_tail2_op]; a
    first argument stored earlier is read in place from its slot), and
    producer+[Return] epilogues fold into [Return_op].  Only the head of
    each staged sequence is replaced; the retained originals form the
    deopt landing pad and the fused handlers spill operand values into
    the argument slots before any slow path re-enters the frame policy,
    so captured segment contents are byte-identical to the unfused
    execution. *)

val peephole : ?regalloc:bool -> Globals.t -> Rt.code -> Rt.code
(** Fuse one code object (recursing into [Make_closure] bodies).  The
    [Globals.t] is the session whose current bindings the inline caches
    are built against — compiled code carries slot numbers, so the fuser
    resolves each candidate slot here.  The input is the compiler's
    unfinished output; every code object of the result is finished
    ({!Bytecode.finish}) and takes over the input's [Call] sites, so the
    input must not be run or fused again. *)

val peephole_program : ?regalloc:bool -> Globals.t -> Rt.code list -> Rt.code list
(** {!peephole} over each code object, with one set of scratch arrays
    for the whole call. *)
