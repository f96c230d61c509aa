(** One-call front end: a Scheme session over a chosen execution backend,
    with the standard prelude (dynamic-wind, call/cc wrappers, list
    library, engines) preloaded.

    {[
      let s = Scheme.create () in
      let v = Scheme.eval s "(call/1cc (lambda (k) (k 42)))" in
      assert (Values.write_string v = "42")
    ]} *)

type backend =
  | Stack of Control.config  (** the paper's segmented-stack VM *)
  | Closure of Control.config
      (** the same segmented-stack machine driven by template-compiled
          threaded code ({!Closurevm}): identical control semantics and
          semantic counters, faster straight-line dispatch *)
  | Heap  (** heap-frame baseline VM *)
  | Oracle  (** CPS reference interpreter *)

type t

val create :
  ?backend:backend ->
  ?stats:Stats.t ->
  ?scheme_winders:bool ->
  ?corpus:bool ->
  ?options:Compiler.options ->
  unit ->
  t
(** Defaults: [Stack Control.default_config], prelude loaded with the
    native winder protocol ([?scheme_winders:true] loads the historical
    Scheme-level [%winders] implementation instead, for differential
    testing), benchmark corpus definitions not loaded, and
    {!Compiler.default_options}.  The machine owns [options]: every code
    object the session compiles — prelude image, corpus, user forms and
    runtime [(eval datum)] alike — goes through those stages, so
    [{ Compiler.default_options with verify = true }] verifies all of it
    (raising [Verify.Error] on any violated invariant) and
    [peephole = false] runs all of it unfused.  The oracle interprets
    the expanded AST and ignores [options]. *)

val backend : t -> backend
val eval : ?fuel:int -> t -> string -> Rt.value
(** Evaluate a program; the last form's value.  Exceptions as in {!Vm}. *)

val eval_string : ?fuel:int -> t -> string -> string
(** Like {!eval} but renders the result with [write]. *)

val eval_datum : ?fuel:int -> t -> Sexp.t -> Rt.value
(** Evaluate one already-read top-level datum.  Drivers that read a
    program themselves and feed it form by form can attribute any
    failure — including runtime errors — to the failing datum's source
    position (see {!Diag}). *)

val load_corpus : t -> unit
(** Load the benchmark program definitions (tak, ctak, fib, ack, deep,
    queens, boyer, generators) and the thread systems. *)

val output : t -> string
(** Accumulated [display]/[write] output. *)

val take_output : t -> string
(** The [display]/[write] output since the last [take_output], removed
    from the session's buffer: a caller that prints as it goes uses this,
    so nothing is printed twice and the buffer does not grow. *)

val stats : t -> Stats.t
(** Live counters of the underlying machine.  Every backend — including
    the oracle — shares this object with its machine, so reading it here
    and reading it through the machine give the same counters.  Note the
    footgun avoided: a {!Stats.t} passed to {!create} is adopted, not
    copied, so passing one object to two sessions makes their counters
    indistinguishable — give each session its own, as sessions on
    separate domains must. *)

val globals : t -> Globals.t

