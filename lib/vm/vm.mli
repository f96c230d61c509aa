(** The stack virtual machine: the shared execution engine ({!Engine},
    instantiated as [Vm_core]) running over the paper's segmented stack
    ({!Control}) as its frame policy ({!Vm_policy}).

    Continuation capture ([%call/cc], [%call/1cc]) seals or encapsulates
    stack segments without copying; multi-shot invocation copies (with
    splitting); one-shot invocation swaps segments; overflow at procedure
    entry is an implicit capture under the configured policy; returning
    through a segment's bottom frame underflows into the record below.

    The VM also provides the timer interrupt used to build engines and
    preemptive thread schedulers: [(%set-timer! n handler)] arranges for
    [handler] to be called, as if inserted at the interrupt point, after
    [n] further procedure entries. *)

type t = Control.t Engine.vm

exception Vm_fuel_exhausted

val create :
  ?config:Control.config ->
  ?stats:Stats.t ->
  ?options:Compiler.options ->
  unit ->
  t
(** A machine with primitives installed in a fresh global table.  The
    [stats] object (freshly allocated when not supplied) is shared with
    the underlying segmented-stack machine.  [options] (default
    {!Compiler.default_options}) are the compile stages of everything
    the machine runs: {!eval}, {!eval_datum} and runtime
    [(eval datum)]. *)


val stats : t -> Stats.t
val globals : t -> Globals.t

val run : ?fuel:int -> t -> Rt.code -> Rt.value
(** Execute a zero-argument code object to completion and return the value
    it halts with.  @raise Rt.Scheme_error on Scheme-level errors,
    @raise Rt.Shot_continuation when a one-shot continuation is reused,
    @raise Vm_fuel_exhausted when [fuel] instructions are exceeded. *)

val run_program : ?fuel:int -> t -> Rt.code list -> Rt.value
(** Run a compiled program form by form; the last form's value. *)

val eval : ?fuel:int -> t -> string -> Rt.value
(** Read, expand, compile (through the machine's options), and run
    source text. *)

val eval_datum : ?fuel:int -> t -> Sexp.t -> Rt.value
(** Like {!eval} for one already-read top-level datum, so a driver can
    attribute failures to the datum's source position. *)

val output : t -> string
(** Text emitted by [display]/[write]/[newline] so far. *)

val take_output : t -> string
(** The text emitted since the last [take_output], removed from the
    buffer. *)
