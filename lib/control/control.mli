(** The paper's segmented-stack representation of control.

    The logical control stack is a linked list of stack segments described by
    {!Rt.stack_record} values.  This module implements every control
    operation of Bruggeman/Waddell/Dybvig (PLDI'96):

    - [call/cc] capture: seal the occupied part of the current segment
      (no copying) and continue on the remainder;
    - [call/1cc] capture: encapsulate the entire current segment and continue
      on a fresh segment drawn from the segment cache (or, under the
      [`Seal_displacement] policy of paper §3.4, seal at a fixed headroom
      above the occupied portion and continue on the remainder);
    - multi-shot invocation: copy the saved segment back, splitting segments
      larger than the copy bound so invocation cost is bounded;
    - one-shot invocation: adopt the saved segment directly (zero copy),
      recycling the abandoned segment through the cache, and mark the record
      shot;
    - promotion of one-shot records captured by [call/cc], either eagerly
      (the paper's implementation) or via the shared boxed flag the paper
      sketches in §3.3;
    - stack overflow as an implicit continuation capture, under either the
      [`As_call1cc] policy (with a hysteresis copy-up of the top frames to
      prevent bouncing) or the [`As_callcc] policy;
    - underflow: returning through the bottom frame of a segment implicitly
      invokes the record linked below it. *)

type overflow_policy = As_call1cc | As_callcc

type oneshot_seal = Whole_segment | Seal_displacement of int
(** What a [call/1cc] capture encapsulates: the entire current segment (the
    paper's main design), or the occupied portion plus a fixed headroom of
    [n] words, continuing on the remainder (§3.4 fragmentation mitigation). *)

type promotion_strategy = Eager | Shared_flag

type capture_strategy = Seal | Copy_on_capture
(** How [call/cc] captures: [Seal] is the paper's zero-copy sealing;
    [Copy_on_capture] is the classic pre-segmented baseline (Hieb/Dybvig
    PLDI'90's strawman) that copies the occupied stack into the heap at
    capture time and copies it back at every invocation. *)

type config = {
  seg_words : int;  (** default stack-segment size in words *)
  copy_bound : int;  (** multi-shot invocation copy bound in words *)
  overflow_policy : overflow_policy;
  hysteresis_words : int;  (** words copied up on [As_call1cc] overflow *)
  oneshot_seal : oneshot_seal;
  cache_enabled : bool;
  cache_max : int;  (** max segments retained in the cache *)
  promotion : promotion_strategy;
  capture : capture_strategy;
}

val default_config : config
(** 16K-word segments, 128-word copy bound, [As_call1cc] overflow with
    64 words of hysteresis, whole-segment sealing, cache of up to 1024
    segments (the cache is dropped wholesale by {!clear_cache}, standing in
    for the paper's discard-at-GC), shared-flag promotion (the paper's
    O(1) scheme of §3.3; [Eager] remains available as a config/CLI
    option). *)

val cache_classes : int
(** Number of size classes in the segment cache.  Class [c] (for
    [c < cache_classes - 1]) holds arrays of [c+1 .. c+2) times
    [seg_words]; the last class is a mixed bucket for everything larger,
    searched first-fit. *)

type t = {
  cfg : config;
  stats : Stats.t;
  mutable sr : Rt.stack_record;  (** the current (active) stack record *)
  mutable fp : int;  (** frame pointer: absolute index into [sr.seg] *)
  cache : Rt.value array array array;
      (** per-size-class stacks, [cache_classes] of them: class [c] holds
          its segments in release order in slots [0 .. cache_top.(c) - 1],
          and every slot above is the empty array.  A pop clears the slot
          it takes, and neither a pop nor a release allocates (a release
          into a full class grows its array, up to [cache_max] slots). *)
  cache_top : int array;  (** per-size-class count of cached segments *)
  mutable cache_len : int;  (** total cached segments across classes *)
  mutable cache_words : int;  (** total words parked across classes *)
}

val no_link : Rt.stack_record
(** The [link] of the bottom record (compare with [==]).  It reads as
    shot, is never written, and is shared by every machine. *)

val lone_flag : bool ref
val promoted_flag : bool ref
(** The two shared promotion flags, never written.  A one-shot record
    that shares its flag with no other live record (a group of one)
    holds [lone_flag]; promoting it swaps in [promoted_flag], which
    every multi-shot record holds too.  A flag of its own ([ref false])
    is allocated only when a second one-shot record joins a group. *)

val validate : config -> (string * int * int) option
(** The first lower bound [config] breaks, as [(name, minimum, given)]:
    [seg_words >= 64], [copy_bound >= 16], and the headroom of
    [Seal_displacement] ([name] ["seal_displacement"]) [>= 1].  Each
    [name] is its [schemer] option's with underscores.  [None] when
    every bound holds. *)

val create : ?stats:Stats.t -> config -> t
(** A machine with one initial segment and a bottom frame whose return slot
    is [ret0] — pass the halt return address there via {!init_frame}.
    @raise Invalid_argument when {!validate} reports a broken bound. *)

val init_frame : t -> Rt.value -> unit
(** [init_frame m ret0] resets the machine to a single frame at the base of
    the initial segment with return slot [ret0]. *)

val seg_limit : t -> int
(** First index past the active record's slice. *)

val room : t -> int -> bool
(** [room m n]: does the active frame have [n] words available? *)

val is_shot : Rt.stack_record -> bool
val is_multi : Rt.stack_record -> bool
(** Multi-shot test: [current = size] (paper §3.2) or the shared promotion
    flag is set. *)

val capture_multi : t -> Rt.stack_record
(** The [call/cc] capture operation.  The current frame's return slot is
    displaced by the underflow mark; one-shot records in the captured chain
    are promoted. *)

val capture_oneshot : t -> Rt.stack_record
(** The [call/1cc] capture operation.  After it returns, [fp] addresses a
    fresh bottom frame whose return slot is the underflow mark and whose
    other slots are unwritten: the caller must populate slots [fp+1 ..]
    before dispatching. *)

val reinstate : ?unseal:bool -> t -> Rt.stack_record -> Rt.retaddr
(** Invoke a continuation record: dispatches on one-shot/multi-shot,
    performs splitting/copying or segment adoption, updates [sr]/[fp], and
    returns the return address at which to resume.

    Multi-shot invocation takes the in-place {e unseal} fast path (when
    [unseal], the default) if the record is the intact region directly
    below the current empty base of the same segment: the seal is
    reopened in place and only the topmost saved frame is copied aside
    into the record (so re-invocation rebuilds the same state); the rest
    stays sealed, zero-copy, as a record the reopened frame underflows
    into.  Counted in [Stats.unseals].  One-shot invocation adopts the
    record's segment, marks the record shot, and detaches its segment and
    chain pointers so the dead record pins nothing.
    @raise Rt.Shot_continuation on a second one-shot invocation. *)

val at_bottom : t -> bool
(** Does the active record sit at the bottom of the whole stack (its
    [link] is {!no_link})?  Returning through its bottom frame halts. *)

val underflow : t -> Rt.retaddr
(** Return through a bottom frame: implicitly invoke [sr.link] (with the
    unseal fast path disabled — a descent that has started returning
    through seals keeps descending, so the bounded bulk copy wins).
    Test {!at_bottom} first: there is no record to invoke there. *)

val clear_cache : t -> unit
(** Drop every cached segment (the paper lets the storage manager discard
    cached stacks at collection time). *)

val seg_request : t -> int -> int
(** Number of words a request for [n] words actually allocates: at least
    [seg_words], and oversized requests rounded up to a multiple of
    [seg_words] so the resulting arrays remain recyclable through the
    cache. *)

val alloc_segment : t -> int -> Rt.value array
(** Draw a segment of at least [seg_request m n] words.  The request's
    exact size class is popped O(1) (counting [cache_class_hits]); when
    that class is empty ([cache_class_misses]) a bounded upward scan
    tries the larger classes; any cache pop counts a [cache_hits]; else a
    fresh array is allocated (counting [seg_allocs]/[seg_alloc_words]). *)

val release_segment : t -> Rt.value array -> unit
(** Offer an abandoned segment to the cache, written O(1) into the next
    slot of its size class.  Accepted (counting a [cache_releases], and
    updating the [cache_words_hw] high-water mark) when caching is
    enabled, the array is at least [seg_words] long and the cache is
    below [cache_max]. *)

val ensure_room : t -> live_top:int -> need:int -> unit
(** Guarantee [need] words of space above [fp], treating exhaustion as an
    implicit continuation capture per the overflow policy.  [live_top] is
    the first index past the live words of the current partial frame
    ([fp .. live_top) moves to the new segment). *)

val live_chain : Rt.stack_record -> Rt.stack_record list
(** The record chain starting at a record (for tests/debug). *)

val chain_depth : t -> int
(** Number of records below the active one. *)

val segment_words_live : t -> int
(** Total words of all segments reachable from the active record, including
    one-shot free space — the paper's §3.4 fragmentation measure. *)

val backtrace : ?limit:int -> t -> string list
(** Procedure names of the frames on the logical stack, innermost first,
    walking the displacement words and crossing segment boundaries through
    the record chain (the paper's stack walk for debuggers and exception
    handlers).  A shot record in the chain contributes a ["<shot>"]
    sentinel frame (its frames are gone) and ends the walk.  At most
    [limit] frames (default 64). *)

val walk_frames : Rt.value array -> base:int -> top:int -> int list
(** Frame base offsets (relative to [base], descending from [top]) obtained
    by walking the displacement words, i.e. the paper's stack walker. *)
