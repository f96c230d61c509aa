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
  ?backend:backend -> ?stats:Stats.t -> ?prelude:bool ->
  ?scheme_winders:bool -> ?corpus:bool -> ?optimize:bool ->
  ?peephole:bool -> ?regalloc:bool -> ?verify:bool -> ?hygiene:bool ->
  unit -> t
(** Defaults: [Stack Control.default_config], prelude loaded with the
    native winder protocol ([?scheme_winders:true] loads the historical
    Scheme-level [%winders] implementation instead, for differential
    testing), benchmark corpus definitions not loaded, AST optimizer off
    (see {!Optimize}), bytecode peephole fusion on ([?peephole:false]
    executes the unfused bytecode, e.g. for differential testing), and
    its register-lowering stage on ([?regalloc:false] keeps the
    push-based encoding while retaining the other fusions).
    [?verify:true] runs the {!Verify} static bytecode verifier over
    every code object the session compiles — prelude and corpus
    included — raising [Verify.Error] on any violated invariant.
    [?hygiene:false] turns off the expander's hygienic [syntax-rules]
    renaming (see {!Expander}), reproducing the historical textual
    expansion; worker shards of an attached par pool inherit the
    switch. *)

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
    indistinguishable — give each session its own (as {!Pool} does). *)

val globals : t -> Globals.t

val control : t -> Control.t option
(** The segmented-stack machine underneath, when the backend is [Stack]
    or [Closure] (both frame policies run on the same control
    substrate). *)

val par_attach :
  ?chunk:int -> ?steal:bool -> ?domains:bool -> ?fuel:int -> ?corpus:bool ->
  jobs:int -> t -> unit
(** Attach a data-parallel worker pool to this session: afterwards the
    prelude's [par-map] / [par-reduce] / [par-for-each] dispatch chunked
    tasks of [chunk] items (default 2, clamped to >= 1) to [jobs] worker
    shards — fresh sessions on the session's backend (an [Oracle] master
    gets [Stack] workers), one OCaml domain each by default.  Each shard
    runs a work-stealing deque (its own tasks popped from the front,
    steals taken from the back of a neighbour); [~steal:false] pins the
    deterministic round-robin assignment (task [i] to shard [i mod
    jobs]) that the counter-identity checks rely on.  [~domains:false]
    runs the same shards inline on the calling domain — the sequential
    reference for those checks.  [chunk] never depends on [jobs], so a
    chunk's deterministic counters are distribution-invariant and
    no-steal shard counters sum exactly to a 1-shard run's.

    Task procedures must be globally named (closures cannot cross
    domains); task arguments and results must be flat values
    ({!Flatvalue}); worker shards see global definitions made by earlier
    top-level [define]/[set!] forms evaluated through {!eval} on this
    session.  [corpus] preloads the benchmark corpus on each shard.
    Raises [Invalid_argument] if a pool is already attached. *)

val par_shutdown : t -> unit
(** Stop and join the pool's worker domains and restore the serial
    fallback ([(%par-jobs)] reads 0 again).  No-op without a pool. *)

val par_shard_stats : t -> Stats.t option array
(** The pool workers' per-shard counter blocks in slot order ([None]
    for a shard that has not started yet); meaningful only while no
    dispatch is in flight.  Empty when no pool is attached. *)

(** Run [N] fully independent sessions over the same program, optionally
    one per OCaml domain.  Shards share no mutable state (each has its
    own machine, stats, globals, macros and output; the interned symbol
    table is the one deliberate process-global, mutex-guarded in
    {!Rt}), so per-shard results and counters are deterministic and
    identical to a single sequential session running the same source —
    the property benchmark e6.parallel and the CI smoke test assert. *)
module Pool : sig
  type shard = {
    shard : int;  (** shard index, [0 .. jobs-1] *)
    value : Rt.value;  (** the program's value on this shard *)
    output : string;  (** its [display]/[write] output *)
    stats : Stats.t;  (** its counters, reset after prelude/corpus load *)
  }

  val run :
    ?backend:backend -> ?fuel:int -> ?corpus:bool -> ?optimize:bool ->
    ?peephole:bool -> ?regalloc:bool -> ?verify:bool -> ?hygiene:bool ->
    ?domains:bool -> jobs:int -> string -> shard list
  (** Evaluate [src] on [jobs] fresh sessions and return the shards in
      index order.  [domains] forces the execution mode: [true] spawns
      one domain per shard, [false] runs them sequentially on the
      calling domain; the default parallelizes iff [jobs > 1].
      [corpus] preloads the benchmark definitions on each shard before
      the counters are reset. *)
end
