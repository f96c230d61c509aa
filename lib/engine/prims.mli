(** The primitive procedure library shared by both virtual machines and the
    oracle interpreter.

    [install] populates a global table with every primitive.  Every
    primitive value is a process-shared module-level constant (so the
    inline-cache guards of shared compiled code hold across sessions);
    the ones that need the running machine — output, the preemption
    timer — reach it through {!Machine_hooks}.  Control primitives
    ([%call/cc], [%call/1cc], [apply], [values], [%stat]) are
    [Rt.Special] markers handled by each machine's dispatch loop. *)

val install : Globals.t -> unit

val pure :
  ?fn1:(Rt.value -> Rt.value) ->
  ?fn2:(Rt.value -> Rt.value -> Rt.value) ->
  string ->
  Rt.arity ->
  (Rt.value array -> Rt.value) ->
  string * Rt.prim
(** [pure name arity fn] is the pure primitive [name] written over its
    argument array.  Its direct one- and two-argument entries are [fn1]
    and [fn2] when given, and otherwise call [fn] on a fresh array. *)

val check_procedure : string -> Rt.value -> Rt.value

val spread_length : Rt.value -> int
(** The number of elements of [apply]'s last argument.
    @raise Rt.Scheme_error unless it is a proper list (a cycle is not). *)

(** {1 Native dynamic-wind machinery}

    Hidden code objects and interned return addresses shared by the two
    VM dispatch loops.  See the comments in the implementation for the
    frame layouts and the state machine. *)

val dw_prim : Rt.prim
(** The [%dynamic-wind] special, also registered in the global table. *)

val dw_resume_code : Rt.code
val wind_resume_code : Rt.code
(** The hidden code objects the interned return addresses below point
    into.  The VMs also preset [code]/[pc] to the resumption point
    before calling a guard thunk, so a guard that is a pure primitive
    (which pushes no frame and returns by falling through) continues
    the protocol exactly as a closure returning normally would. *)

val dw_ret_before : Rt.value
val dw_ret_thunk : Rt.value
val dw_ret_after : Rt.value
(** Interned return addresses pushed when [%dynamic-wind] calls its
    before / thunk / after procedures; each resumes [dw_resume_code]. *)

val wind_prim : Rt.prim
(** The internal wind-trampoline special; never bound to a global. *)

val wind_ret : Rt.value
(** Interned return address for guard thunks run by the trampoline. *)
