(** The heap-model baseline VM (paper §5): the shared execution engine
    ({!Engine}, instantiated as [Heap_core]) running over heap-allocated
    linked frames as its frame policy ({!Heap_policy}).

    Interprets the same bytecode as {!Vm} — both are the one dispatch
    loop of lib/engine/engine_core.ml — but represents control in the
    style of Appel/MacQueen's SML/NJ: every call allocates a frame;
    continuation capture is O(1) pointer sharing; invocation is O(1)
    pointer swinging.  Frames reachable from a multi-shot continuation
    are marked shared and copied on write, so reinstatement is sound
    even though frames are mutable.

    One-shot semantics are kept in parity with the stack VM: a [%call/1cc]
    extent is consumed either by explicit invocation or by the normal
    return through its capture frame (a frame "guard"), and [%call/cc]
    promotes the one-shot extents it captures.

    The interesting measurements (experiment E4) are
    [Stats.heap_frames]/[Stats.heap_frame_words] — the per-call allocation
    this model pays that the segmented stack does not — and
    [Stats.cow_copies]. *)

type t = Heap_policy.state Engine.vm

exception Vm_fuel_exhausted

val create : ?stats:Stats.t -> ?options:Compiler.options -> unit -> t
(** A machine with primitives installed in a fresh global table;
    [options] as in {!Vm.create}. *)

val stats : t -> Stats.t
val globals : t -> Globals.t
val run : ?fuel:int -> t -> Rt.code -> Rt.value
val run_program : ?fuel:int -> t -> Rt.code list -> Rt.value

val eval : ?fuel:int -> t -> string -> Rt.value
(** Read, expand, compile (through the machine's options), and run
    source text. *)

val eval_datum : ?fuel:int -> t -> Sexp.t -> Rt.value
(** Like {!eval} for one already-read top-level datum, so a driver can
    attribute failures to the datum's source position. *)

val output : t -> string
val take_output : t -> string
