(** Instrumentation counters for the control substrate and the VMs.

    Counters are the reproduction's stand-in for the paper's hardware
    measurements: copy volume, allocation volume, and dispatch counts scale
    the same way the paper's instruction counts and memory numbers do. *)

type t = {
  mutable enabled : bool;
      (** Toggle for the hot-path counters ([instrs], [calls], [frames],
          [prim_calls], ...): the VM dispatch loops skip those increments
          when false, so production dispatch does not pay for
          observability.  Rare-event counters (overflows, captures,
          splits, ...) are always maintained.  Default: true; [reset]
          leaves it alone. *)
  mutable instrs : int;  (** VM instructions dispatched *)
  mutable calls : int;  (** closure calls (incl. tail calls) *)
  mutable frames : int;  (** non-tail frames pushed *)
  mutable prim_calls : int;
  mutable prim_fast : int;
      (** fused [Prim_call*] sites taking the inline-cache fast path *)
  mutable prim_deopts : int;
      (** fused [Prim_call*] sites whose guard failed (primitive
          redefined): the generic call path was taken *)
  mutable captures_multi : int;
  mutable captures_oneshot : int;
  mutable invokes_multi : int;
  mutable invokes_oneshot : int;
  mutable unseals : int;
      (** multi-shot invocations served by the in-place unseal fast path
          (adjacent sealed record reopened; only its top frame copied) *)
  mutable underflows : int;
  mutable overflows : int;
  mutable splits : int;
  mutable promotions : int;  (** one-shot records promoted (eager or flagged) *)
  mutable words_copied : int;  (** stack words copied (invoke + overflow) *)
  mutable seg_allocs : int;  (** fresh segments allocated *)
  mutable seg_alloc_words : int;
  mutable cache_hits : int;
      (** segment-cache pops that satisfied an allocation (any class) *)
  mutable cache_releases : int;
  mutable cache_class_hits : int;
      (** pops satisfied by the request's exact size class (O(1) path) *)
  mutable cache_class_misses : int;
      (** requests whose exact size class was empty (fresh allocation or
          higher-class scan) *)
  mutable cache_words_hw : int;
      (** high-water mark of words parked in the cache across all classes *)
  mutable closures_made : int;
  mutable boxes_made : int;
  mutable heap_frames : int;  (** heap VM: frames allocated *)
  mutable heap_frame_words : int;
  mutable cow_copies : int;  (** heap VM: copy-on-write frame copies *)
  mutable tmpl_codes : int;
      (** closure VM: code objects template-compiled in this session *)
  mutable tmpl_steps : int;
      (** closure VM: step closures emitted by template compilation *)
  mutable tmpl_enters : int;
      (** closure VM: template (re-)entries — one per landing, i.e. per
          slow-path control transfer back into compiled steps *)
}

val create : ?enabled:bool -> unit -> t
val reset : t -> unit
val copy : t -> t

val get : t -> string -> int
(** Look a counter up by name; raises [Not_found] for unknown names. *)

val names : string list
val to_rows : t -> (string * int) list
