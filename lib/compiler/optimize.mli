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

    With register lowering on ([regalloc], the default;
    [~regalloc:false] / [--no-regalloc] to disable), the same scan folds
    argument staging: when it writes a fixed-arity primitive call (or a
    tail call of at most two arguments), the [Const_push] / [Local_push]
    / [Local_set] it has just written into that site's argument slots
    and the call become one operand form ([Prim_call1_op] ...
    [Prim_tail2_op], reading [Rt.operand]s; a first argument stored
    earlier is read in place from its slot), and a [Const] or
    [Local_ref] followed by [Return] becomes [Return_op].  No branch
    target is folded away: a [Return] that a branch targets stays after
    its [Return_op].  The fused handlers spill operand values into the
    argument slots before any slow path re-enters the frame policy, so
    captured segment contents are byte-identical to the unfused
    execution.

    The scan's closing loop remaps branch targets and performs branch
    fusion: the producer of a [Branch_false] test ([Local_ref], a
    fixed-arity primitive call or its operand form) absorbs the branch,
    the original branch staying in place at the next pc, where a deopted
    or failed call resumes.  Every other fused form leaves nothing of
    what it replaced in the stream. *)

val peephole_program : ?regalloc:bool -> Globals.t -> Rt.code list -> Rt.code list
(** Fuse each code object (recursing into [Make_closure] bodies), with
    one set of scratch arrays for the whole call.  The [Globals.t] is the
    session whose current bindings the inline caches are built against —
    compiled code carries slot numbers, so the fuser resolves each
    candidate slot here.  The input is the compiler's unfinished output;
    every code object of the result is finished ({!Bytecode.finish}) and
    takes over the input's [Call] sites, so the input must not be run or
    fused again. *)
