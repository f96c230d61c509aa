(** Reference interpreter used as a differential-testing oracle.

    A tree-walking interpreter over the expanded core AST, written in
    continuation-passing style with OCaml closures as continuations, so
    multi-shot [%call/cc] is supported natively and independently of the
    segmented-stack machinery under test.

    Semantics intentionally diverge from the VMs in exactly one place:
    [%call/cc] promotes {e every} outstanding one-shot continuation, not
    just those in the captured chain (OCaml closures cannot be walked).
    This over-approximation never changes the value of a program that runs
    without a shot-continuation error on the stack VM, which is the
    property differential tests check.  [%set-timer!] is a no-op.

    Runtime errors (primitive failures, arity errors, application of a
    non-procedure, unbound globals) go to the head of [%error-handlers]
    with the faulting operation's continuation, as on the VMs, so
    [try] and [call-with-error-handler] behave alike on every backend.

    The oracle keeps a live {!Stats.t}: [instrs] counts interpreter steps
    (AST nodes and applications — not comparable with the VMs' bytecode
    dispatch counts), [calls]/[prim_calls] count applications, and the
    capture counters mirror the VMs'; [%stat] reads them like the other
    backends. *)

type t

exception Fuel_exhausted

val create : ?stats:Stats.t -> unit -> t
val globals : t -> Globals.t
val stats : t -> Stats.t

val eval : ?fuel:int -> t -> string -> Rt.value
(** Run a program; the last form's value.  [fuel] bounds interpreter steps.
    @raise Rt.Scheme_error / @raise Rt.Shot_continuation as the VMs do. *)

val eval_datum : ?fuel:int -> t -> Sexp.t -> Rt.value
(** Like {!eval} for one already-read top-level datum, so a driver can
    attribute failures to the datum's source position. *)

val eval_tops : ?fuel:int -> t -> Ast.top list -> Rt.value
val output : t -> string
val take_output : t -> string
