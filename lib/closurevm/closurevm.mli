(** The closure-compiled stack VM: the segmented-stack frame policy
    ({!Vm_policy}) driven by template-compiled threaded code instead of
    the engine's fetch/decode dispatch loop.

    Each code object is translated once into an array of pre-allocated
    OCaml closures (one step per pc); straight-line code runs as a chain
    of direct closure calls with no instruction fetch or dispatch.
    Every control-transfer slow path — capture/reinstatement, winders,
    overflow, deopt, timer, error injection — re-enters the same
    {!Vm_policy} functions the stack VM uses, so one-shot continuation
    semantics and the semantic performance counters are shared by
    construction with {!Vm}.

    The machine type is literally the stack VM's: a [Closurevm.t] is a
    [Vm.t], and the two execution strategies could drive the same
    machine interchangeably. *)

type t = Control.t Engine.vm

exception Vm_fuel_exhausted

val create :
  ?config:Control.config ->
  ?stats:Stats.t ->
  ?options:Compiler.options ->
  unit ->
  t
(** A machine with primitives installed in a fresh global table; the
    segmented-stack configuration and the compile [options] are the
    same as {!Vm.create}'s. *)

val control : t -> Control.t
(** The machine's segmented-stack state (its frame-policy state). *)

val stats : t -> Stats.t
val globals : t -> Globals.t

val run : ?fuel:int -> t -> Rt.code -> Rt.value
(** Execute a zero-argument code object to completion (template-compiling
    it on entry if needed) and return the value it halts with.
    @raise Rt.Scheme_error on Scheme-level errors,
    @raise Rt.Shot_continuation when a one-shot continuation is reused,
    @raise Vm_fuel_exhausted when [fuel] instructions are exceeded (the
    check runs at branches and control transfers, so the raise may land
    up to a basic block late; the instruction counter stays exact). *)

val run_program : ?fuel:int -> t -> Rt.code list -> Rt.value
(** Run a compiled program form by form; the last form's value. *)

val eval : ?fuel:int -> t -> string -> Rt.value
(** Read, expand, compile (through the machine's options),
    template-compile (the full closure DAG of every form, eagerly), and
    run source text. *)

val eval_datum : ?fuel:int -> t -> Sexp.t -> Rt.value
(** Like {!eval} for one already-read top-level datum, so a driver can
    attribute failures to the datum's source position. *)

val output : t -> string
(** Text emitted by [display]/[write]/[newline] so far. *)

val take_output : t -> string
(** The text emitted since the last [take_output], removed from the
    buffer. *)

val precompile : Rt.code list -> unit
(** Template-compile the whole [Make_closure] DAG of each code object
    (uncounted), for code shared across sessions: the prelude image
    compiles its templates once, eagerly, before any other domain can
    see the code objects. *)
