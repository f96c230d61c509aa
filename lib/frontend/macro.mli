(** [syntax-rules] pattern matching and template instantiation.

    Supports literals, the [_] wildcard, one ellipsis ([...]) per list
    level (with a fixed tail after it), nested ellipses, dotted patterns,
    and vector patterns.

    Expansion is hygienic by rename: each use gets a fresh mark, appended
    to every template-introduced identifier, so macro-introduced binders
    neither capture use-site identifiers nor are captured by them.
    Identifiers are resolved against the definition environment by
    stripping marks wherever a name meets a keyword table, a
    syntax-rules literal, the global table, or quoted data
    ({!strip_marks}).  [~hygiene:false] reproduces the historical
    textual expansion. *)

type rules
(** A compiled [(syntax-rules (literal ...) (pattern template) ...)]:
    each rule is compiled once, at definition, into a pattern program
    (every symbol classified as [_], literal, pattern variable with its
    slot and ellipsis depth, or ellipsis, with each ellipsis level's
    split) and a template program (every symbol a variable slot or a
    template-introduced name; each ellipsis subtemplate with the
    variables it steps through).  A use matches into slot arrays and
    runs the template program; nothing about the rule is worked out
    again per use. *)

exception Macro_error of string * Sexp.pos

val parse_syntax_rules : Sexp.t -> rules
(** Parse and compile the [(syntax-rules ...)] form.  A malformed
    pattern or template is still reported by the use that reaches it,
    not here.  @raise Macro_error if the form itself is malformed. *)

val instantiation_budget : int
(** How many datums the macro uses within one top-level form may
    produce between them: each datum a template builds and each element
    it places in a list it builds counts; a matched tail shared whole
    does not. *)

exception Too_large
(** Raised by {!expand_use} when a use would take its budget below 0. *)

val expand_use :
  ?hygiene:bool -> budget:int ref -> rules -> Sexp.t -> Sexp.t
(** Expand one macro use (the whole form, keyword included) with the first
    matching rule.  Template-contributed forms are stamped with the use
    site's position; with [hygiene] (the default) template-introduced
    identifiers additionally get a fresh mark.  A bare-variable ellipsis
    with nothing after it, as in [(_ x y ...)], binds the use's matched
    tail list itself, and a [y ...] that ends a template list returns
    that list, shared ([Sexp.t] is immutable): one step of a recursive
    macro costs words in the template's size, not the form's.  What the
    instantiation produces is taken off [budget], which the uses of one
    top-level form share (it starts at {!instantiation_budget}).
    @raise Macro_error if no rule matches.
    @raise Too_large when [budget] runs out. *)

val strip_marks : string -> string
(** The source name of a possibly marked identifier: the prefix before
    the first hygiene mark.  Identity on reader-produced names. *)

val mark_char : char
(** The (unprintable) character that introduces a hygiene mark in an
    identifier; printers render it legibly (see {!Ast.to_string}). *)

type menv = (string, rules) Hashtbl.t
(** Macro environment: keyword name -> rules. *)

val create_menv : unit -> menv
