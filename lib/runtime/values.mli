(** Operations on runtime values: constructors, conversions, equality
    predicates, and external representation. *)

val cons : Rt.value -> Rt.value -> Rt.value
val list_to_value : Rt.value list -> Rt.value
val list_of_value : Rt.value -> Rt.value list
(** @raise Rt.Scheme_error if the value is not a proper list. *)

val list_of_value_opt : Rt.value -> Rt.value list option
(** [None] if the value is not a proper list. *)

val is_truthy : Rt.value -> bool
(** Everything except [#f] is true. *)

val v_true : Rt.value
val v_false : Rt.value

val of_bool : bool -> Rt.value
(** [v_true] or [v_false]: a boolean result without an allocation.
    Booleans still compare by value ([eq] matches [Bool x, Bool y]), so
    nothing depends on these being the only boolean values. *)

val of_int : int -> Rt.value
(** [Int n]: a preallocated value for [-256 <= n <= 1023], a fresh box
    otherwise, so a small fixnum result allocates nothing.  Fixnums
    still compare by value ([eq] matches [Int x, Int y]), so nothing
    depends on which [Int] box holds a given number. *)

val eq : Rt.value -> Rt.value -> bool
(** Scheme [eq?]: pointer identity on heap objects, value identity on
    immediates; symbols are interned so name equality coincides. *)

val eqv : Rt.value -> Rt.value -> bool
(** Scheme [eqv?]: [eq?] plus numeric/character value comparison. *)

val equal : Rt.value -> Rt.value -> bool
(** Scheme [equal?]: structural, recursing through pairs, vectors, strings. *)

val write_string : Rt.value -> string
(** [write]-style external representation (strings quoted). *)

val display_string : Rt.value -> string
(** [display]-style representation (strings and chars raw). *)

val type_name : Rt.value -> string

val err : string -> Rt.value list -> 'a
(** Raise {!Rt.Scheme_error}. *)

val type_error : string -> string -> Rt.value -> 'a
(** [type_error who expected got] *)
