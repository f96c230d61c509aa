(** Source-level lint diagnostics (DESIGN.md §16).

    Runs over reader output ([Sexp.t], the only layer carrying source
    positions) and reports:

    - [multi-shot-1cc] — a continuation captured by a literal
      [(call/1cc (lambda (k) ...))] invoked on more than one path
      (error: definite violation of the one-shot restriction), or one
      that escapes as a value and is also invoked in the receiver body
      (warning: a later invocation of the stored continuation would
      raise a shot-continuation error);
    - [fused-prim-set] — [set!] of a global bound to a pure primitive,
      which deoptimizes every inline-cached fused call site (warning);
    - [unused-binding] — a [let]/[let*]/[letrec]/named-let/[do] binding
      never referenced (warning; lambda parameters and [_]/[%]-prefixed
      names are exempt). *)

type severity = Diag.severity = Error | Warning

type diagnostic = Diag.t
(** A lint finding is an ordinary pipeline diagnostic (layer
    {!Diag.Lint}) whose [rule] field carries the stable rule slug,
    e.g. ["multi-shot-1cc"]. *)

val program : ?globals:Globals.t -> Sexp.t list -> diagnostic list
(** Lint a program (list of toplevel datums).  When [globals] is
    supplied, the [fused-prim-set] rule consults the live global table
    to decide whether a name is bound to a pure primitive; otherwise a
    built-in list of standard primitives is assumed.  Diagnostics are
    sorted by source position. *)

val lint_string : ?globals:Globals.t -> string -> diagnostic list
(** Read [src] with {!Sexp.read_all} and lint it.
    @raise Sexp.Read_error on malformed input. *)

val to_string : diagnostic -> string
(** Render as ["line:col: severity: [rule] message"] — the shared
    {!Diag.to_string}. *)
