(** Global variable table, slot-indexed.

    Global names intern to process-wide slots (small dense ints); each
    session owns a cell array indexed by those shared slots.  Compiled
    code refers to globals by slot, so code objects are
    session-independent and a compiled prelude image can be shared
    read-only across sessions on separate domains. *)

val slot : string -> int
(** Intern a name to its process-wide slot (creating one if needed). *)

val slot_name : int -> string
(** The name a slot was interned for. *)

type t = { mutable cells : Rt.global array }
(** One session's table.  Slots at or past [Array.length cells] have no
    cell yet and must go through {!get}. *)

val create : unit -> t

val get : t -> int -> Rt.global
(** The cell for a slot, growing the array on a miss.  Growth preserves
    the identity of every existing cell record.  The hit path is one
    bounds test and a load, inlined at every call site. *)

val cell : t -> string -> Rt.global
(** Find or create the (possibly still undefined) cell for a name. *)

val define : t -> string -> Rt.value -> unit

val find_opt : t -> string -> Rt.global option
(** The cell for a name iff it is currently defined (non-interning). *)

val lookup_opt : t -> string -> Rt.value option

val fold : (string -> Rt.global -> 'a -> 'a) -> t -> 'a -> 'a
