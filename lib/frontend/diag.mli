(** One source-located diagnostic type from reader to runtime
    (DESIGN.md §17).

    Every pipeline layer raises its own exception; user-facing tools
    convert them all into this one record and print them through the
    one renderer {!to_string}, so a reader error, a macro mismatch, a
    compiler failure and a runtime error all read the same way:

    {v line:col: severity: [tag] message v}

    [tag] is the diagnostic's rule slug when it has one (lint rules) and
    the layer's short name otherwise ([read], [expand], [macro],
    [compile], [verify], [lint], [runtime]).  Diagnostics without a
    source position drop the [line:col:] prefix. *)

type severity = Error | Warning

type layer =
  | Reader
  | Expander
  | Macro
  | Compiler
  | Verify
  | Lint
  | Runtime

type t = {
  severity : severity;
  layer : layer;
  rule : string option;  (** stable rule slug, e.g. ["multi-shot-1cc"] *)
  pos : Sexp.pos option;
  message : string;
}

val make : ?severity:severity -> ?rule:string -> ?pos:Sexp.pos -> layer -> string -> t
val error : ?rule:string -> ?pos:Sexp.pos -> layer -> string -> t

val layer_name : layer -> string
(** Short lower-case tag used in rendered diagnostics. *)

val severity_name : severity -> string

val to_string : t -> string
(** The one renderer: ["line:col: severity: [tag] message"], without
    the position prefix when [pos] is [None]. *)

val of_exn : ?pos:Sexp.pos -> exn -> t option
(** Convert the frontend/runtime exceptions this library can see
    ({!Sexp.Read_error}, {!Expander.Expand_error}, {!Macro.Macro_error},
    [Rt.Scheme_error], [Rt.Shot_continuation]) into a diagnostic.
    [pos] supplies a fallback span — typically the top-level form being
    processed — for exceptions that carry none of their own.  Returns
    [None] for exceptions of other layers (the driver folds the
    compiler's and verifier's in before calling this). *)
