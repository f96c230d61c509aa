(** S-expression reader and writer.

    Hand-rolled recursive-descent reader for Scheme datum syntax: symbols,
    fixnums, booleans, characters, strings, proper and improper lists, vector
    literals, quotation sugar, line comments, block comments, and datum
    comments.  Every datum carries the source position at which it began. *)

type pos = private int
(** Source position: a 1-based line and a 0-based column packed into
    one immediate, so a datum's position takes no block of its own.
    Positions compare as (line, col) pairs do.  A column past
    [2{^31} - 1] reads as that bound. *)

val pos : line:int -> col:int -> pos
val line : pos -> int
val col : pos -> int

val no_pos : pos
(** [0:0], the position of synthesized datums. *)

type t =
  | Sym of string * pos
  | Int of int * pos
  | Float of float * pos
  | Str of string * pos
  | Bool of bool * pos
  | Char of char * pos
  | List of t list * pos          (** proper list *)
  | Dotted of t list * t * pos    (** improper list; first component non-empty *)
  | Vec of t list * pos           (** [#(...)] vector literal *)

exception Read_error of string * pos
(** Raised on malformed input, with a message and the offending position. *)

val pos_of : t -> pos
(** Position at which the datum began. *)

(** A number's spelling, classified by {!parse_number}. *)
type number =
  | Fixnum of int
  | Flonum of float
  | Fixnum_overflow  (** a digit string outside the fixnum range *)
  | Not_a_number

val parse_number : string -> number
(** The decimal number grammar shared by the reader and [string->number]:
    an optional sign, digits with an optional fraction (or a fraction
    alone), and an optional exponent; or one of [+inf.0], [-inf.0],
    [+nan.0], [-nan.0].  A signed digit string is a fixnum.  OCaml and C
    literal syntax ([1_000], [0x10], [0x1p3], [nan], surrounding blanks)
    is [Not_a_number]. *)

val read_all : string -> t list
(** Read every datum in the string.  @raise Read_error on malformed input. *)

val read_one : string -> t
(** Read exactly one datum; trailing whitespace/comments are permitted.
    @raise Read_error if the string holds zero or more than one datum. *)

val to_string : t -> string
(** Render a datum in external representation.  [read_one (to_string d)]
    is structurally equal to [d] (modulo positions). *)

val equal : t -> t -> bool
(** Structural equality ignoring source positions. *)
