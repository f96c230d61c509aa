open Rt

type overflow_policy = As_call1cc | As_callcc
type oneshot_seal = Whole_segment | Seal_displacement of int
type promotion_strategy = Eager | Shared_flag
type capture_strategy = Seal | Copy_on_capture

type config = {
  seg_words : int;
  copy_bound : int;
  overflow_policy : overflow_policy;
  hysteresis_words : int;
  oneshot_seal : oneshot_seal;
  cache_enabled : bool;
  promotion : promotion_strategy;
  capture : capture_strategy;
}

(* Kept opaque to the optimizer.  As a structured constant it would fold
   into every client, perfbench's own modules included, and a change to
   perfbench's machine code moves the native kernel that perfbench
   normalizes its timings by: its job times then read 15-25% apart with
   the same library code. *)
let default_config =
  Sys.opaque_identity {
    seg_words = 16 * 1024;
    copy_bound = 128;
    overflow_policy = As_call1cc;
    hysteresis_words = 64;
    oneshot_seal = Whole_segment;
    cache_enabled = true;
    promotion = Shared_flag;
    capture = Seal;
  }

(* Number of size classes in the segment cache.  Class [c] (for
   [c < cache_classes - 1]) holds arrays of [c+1 .. c+2) times
   [seg_words]; the last class is a mixed overflow bucket for everything
   larger, searched first-fit. *)
let cache_classes = 8

(* Segments retained across all classes. *)
let cache_max = 1024

type t = {
  cfg : config;
  stats : Stats.t;
  mutable sr : stack_record;
  mutable fp : int;
  cache : value array array array;
  cache_top : int array;
  mutable cache_len : int;
  mutable cache_words : int;
}

(* ------------------------------------------------------------------ *)
(* Segment allocation and the segment cache (paper Section 3.2)        *)
(* ------------------------------------------------------------------ *)

(* Oversized requests (multi-shot reinstatement of a big record, overflow
   with a huge frame) are rounded up to a multiple of [seg_words], so the
   arrays they allocate have recyclable sizes: [release_segment] accepts
   any array of at least [seg_words].  Without the rounding every
   oversized allocation was a one-off the cache could never serve
   again. *)
let seg_request m words =
  let sw = m.cfg.seg_words in
  if words <= sw then sw else (words + sw - 1) / sw * sw

(* The size class of an array of [len] words ([len >= seg_words]).  For a
   request already rounded by [seg_request], every array in its class (and
   in any higher class) is large enough, so the common path is an O(1) pop
   off the class head; only the mixed last bucket needs a length check.
   A standard segment — every one-shot switch allocates and releases
   one — is class 0 by one compare; only a larger array pays the
   division. *)
let class_of m len =
  let sw = m.cfg.seg_words in
  if len < 2 * sw then 0
  else
    let c = (len / sw) - 1 in
    if c >= cache_classes then cache_classes - 1 else c

(* Each class is a stack: [m.cache.(c)] holds its segments in release
   order in slots [0, m.cache_top.(c)), and every slot above is
   [no_segment].  A pop returns [no_segment] when it finds nothing, so
   neither a pop nor a release allocates (a release grows its class's
   array only when it is full, at most up to [cache_max] slots), and a
   pop clears the slot it takes, so the cache never pins a segment it
   has handed out.  Every real segment has at least [seg_words] words,
   so the empty array cannot be mistaken for one. *)
let no_segment : value array = [||]

let pop_class m ~words i =
  let stack = m.cache.(i) in
  let n = m.cache_top.(i) in
  (* The most recent release, except in the mixed top bucket, which is
     searched first-fit from the most recent release down. *)
  let j = ref (n - 1) in
  if i = cache_classes - 1 then
    while !j >= 0 && words > Array.length stack.(!j) do
      decr j
    done;
  let j = !j in
  if j < 0 then no_segment
  else begin
    let seg = stack.(j) in
    (* Slots above the one taken shift down, keeping release order. *)
    if j < n - 1 then Array.blit stack (j + 1) stack j (n - 1 - j);
    stack.(n - 1) <- no_segment;
    m.cache_top.(i) <- n - 1;
    seg
  end

let fresh_segment m words =
  m.stats.seg_allocs <- m.stats.seg_allocs + 1;
  m.stats.seg_alloc_words <- m.stats.seg_alloc_words + words;
  Array.make words Void

let alloc_segment m words =
  let words = seg_request m words in
  if not m.cfg.cache_enabled then fresh_segment m words
  else begin
    let c = class_of m words in
    let seg = pop_class m ~words c in
    let seg =
      if seg != no_segment then begin
        m.stats.cache_class_hits <- m.stats.cache_class_hits + 1;
        seg
      end
      else begin
        (* Exact class empty: bounded upward scan — any array in a
           higher class is big enough by construction. *)
        m.stats.cache_class_misses <- m.stats.cache_class_misses + 1;
        let seg = ref no_segment and i = ref (c + 1) in
        while !seg == no_segment && !i < cache_classes do
          seg := pop_class m ~words !i;
          incr i
        done;
        !seg
      end
    in
    if seg == no_segment then fresh_segment m words
    else begin
      m.cache_len <- m.cache_len - 1;
      m.cache_words <- m.cache_words - Array.length seg;
      m.stats.cache_hits <- m.stats.cache_hits + 1;
      seg
    end
  end

let release_segment m seg =
  let len = Array.length seg in
  if m.cfg.cache_enabled && len >= m.cfg.seg_words && m.cache_len < cache_max
  then begin
    let c = class_of m len in
    let n = m.cache_top.(c) in
    if n = Array.length m.cache.(c) then begin
      (* Full: grow.  [n < cache_len + 1 <= cache_max], so the class
         never needs more than [cache_max] slots. *)
      let grown = Array.make (min cache_max (max 4 (2 * n))) no_segment in
      Array.blit m.cache.(c) 0 grown 0 n;
      m.cache.(c) <- grown
    end;
    m.cache.(c).(n) <- seg;
    m.cache_top.(c) <- n + 1;
    m.cache_len <- m.cache_len + 1;
    m.cache_words <- m.cache_words + len;
    if m.cache_words > m.stats.cache_words_hw then
      m.stats.cache_words_hw <- m.cache_words;
    m.stats.cache_releases <- m.stats.cache_releases + 1
  end

let clear_cache m =
  for c = 0 to cache_classes - 1 do
    Array.fill m.cache.(c) 0 m.cache_top.(c) no_segment;
    m.cache_top.(c) <- 0
  done;
  m.cache_len <- 0;
  m.cache_words <- 0

(* The active record wholly owns its array iff it covers it entirely;
   only then may the array be recycled when the stack is abandoned. *)
let wholly_owned sr = sr.base = 0 && sr.size = Array.length sr.seg

(* Promotion flags (paper Section 3.3), allocated lazily.  A one-shot
   record that shares its flag with no other live record (a group of
   one) holds [lone_flag], which is shared by all such records and never
   written.  Promoting such a record swaps in [promoted_flag], the set
   flag every multi-shot record holds too; a flag of its own is
   allocated only when a second one-shot record joins a group
   ([inherit_flag]).  Neither shared flag is ever assigned, so sessions
   on different domains may share them. *)
let lone_flag = ref false
let promoted_flag = ref true

(* The link of the bottom record.  It reads as shot ([size = current =
   -1]), so every walk that stops at a shot or multi-shot record stops
   at it too, and reinstating it raises; it is never written. *)
let rec no_link =
  {
    seg = [||];
    base = 0;
    size = -1;
    current = -1;
    link = no_link;
    ret = Void;
    promoted = lone_flag;
  }

let fresh_record seg ~base ~size ~link =
  { seg; base; size; current = 0; link; ret = Void; promoted = lone_flag }

(* The first lower bound [cfg] breaks, as (name, minimum, given). *)
let validate cfg =
  if cfg.seg_words < 64 then Some ("seg_words", 64, cfg.seg_words)
  else if cfg.copy_bound < 16 then Some ("copy_bound", 16, cfg.copy_bound)
  else
    match cfg.oneshot_seal with
    | Seal_displacement h when h < 1 -> Some ("seal_displacement", 1, h)
    | Seal_displacement _ | Whole_segment -> None

let create ?stats cfg =
  (match validate cfg with
  | Some (field, minimum, given) ->
      invalid_arg
        (Printf.sprintf "Control.create: %s must be at least %d, got %d" field
           minimum given)
  | None -> ());
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let m =
    {
      cfg;
      stats;
      sr = fresh_record [||] ~base:0 ~size:0 ~link:no_link;
      fp = 0;
      cache = Array.make cache_classes [||];
      cache_top = Array.make cache_classes 0;
      cache_len = 0;
      cache_words = 0;
    }
  in
  let seg = alloc_segment m cfg.seg_words in
  m.sr <- fresh_record seg ~base:0 ~size:(Array.length seg) ~link:no_link;
  m

let init_frame m ret0 =
  (* Recycle the previous run's segment when nothing else can reference
     it (it covers its whole array, so no sealed record shares it). *)
  if m.sr.base = 0 && m.sr.size = Array.length m.sr.seg && m.sr.size > 0 then
    release_segment m m.sr.seg;
  let seg = alloc_segment m m.cfg.seg_words in
  m.sr <- fresh_record seg ~base:0 ~size:(Array.length seg) ~link:no_link;
  m.fp <- 0;
  seg.(0) <- ret0

let seg_limit m = m.sr.base + m.sr.size
let room m n = m.fp + n <= seg_limit m

(* ------------------------------------------------------------------ *)
(* Record classification                                               *)
(* ------------------------------------------------------------------ *)

let is_shot r = r.size = -1
let is_multi r = r.current = r.size || !(r.promoted)

let corrupt_ret v =
  Values.err "control: corrupt frame: expected return address" [ v ]

(* [v], checked to be a return address. *)
let retaddr_of = function Retaddr _ as v -> v | v -> corrupt_ret v

(* The displacement word of return address [v]. *)
let rdisp_of = function Retaddr { rdisp; _ } -> rdisp | v -> corrupt_ret v

(* The record [sr]'s bottom frame underflows into. *)
let below_bottom sr =
  if sr.link == no_link then
    Values.err "control: no record below the bottom segment" []
  else sr.link

(* ------------------------------------------------------------------ *)
(* Promotion (paper Section 3.3)                                       *)
(* ------------------------------------------------------------------ *)

(* A captured one-shot record that is neither shot nor promoted ([false]
   for [no_link]). *)
let live_oneshot r = (not (is_shot r)) && not (is_multi r)

(* Promote the flag group of the live one-shot record [r] with one
   store: a group of one swaps in the shared set flag. *)
let promote_group r =
  if r.promoted == lone_flag then r.promoted <- promoted_flag
  else r.promoted := true

let promote_chain m r =
  match m.cfg.promotion with
  | Shared_flag ->
      (* All adjacent one-shot records share one boxed flag: one store. *)
      if live_oneshot r then begin
        promote_group r;
        m.stats.promotions <- m.stats.promotions + 1
      end
  | Eager ->
      (* Linear walk, stopping at the first multi-shot record: everything
         below it was promoted when that record was created. *)
      let rec go r =
        if live_oneshot r then begin
          r.size <- r.current;
          m.stats.promotions <- m.stats.promotions + 1;
          go r.link
        end
      in
      go r

(* New one-shot records join the promotion-flag group of the one-shot
   record directly below them, so a single shared-flag store promotes the
   whole contiguous group.  The group's flag is allocated when its second
   record joins. *)
let inherit_flag m r =
  match m.cfg.promotion with
  | Eager -> lone_flag
  | Shared_flag ->
      if not (live_oneshot r) then lone_flag
      else if r.promoted == lone_flag then begin
        let flag = ref false in
        r.promoted <- flag;
        flag
      end
      else r.promoted

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

(* The classic baseline: copy the occupied portion to a fresh heap block
   at capture time.  The running stack is left untouched (no sealing, no
   underflow mark), so capture is O(occupied) but the running code is
   unaffected. *)
let capture_multi_copying m =
  let sr = m.sr in
  let occupied = m.fp - sr.base in
  if occupied = 0 && sr.seg.(m.fp) = Underflow_mark then begin
    let k = below_bottom sr in
    promote_chain m k;
    m.stats.captures_multi <- m.stats.captures_multi + 1;
    k
  end
  else begin
    let copy = Array.make (max occupied 1) Underflow_mark in
    Array.blit sr.seg sr.base copy 0 occupied;
    m.stats.words_copied <- m.stats.words_copied + occupied;
    m.stats.seg_allocs <- m.stats.seg_allocs + 1;
    m.stats.seg_alloc_words <- m.stats.seg_alloc_words + max occupied 1;
    let k =
      {
        seg = copy;
        base = 0;
        size = occupied;
        current = occupied;
        link = sr.link;
        ret = sr.seg.(m.fp);
        promoted = promoted_flag;
      }
    in
    ignore (retaddr_of k.ret);
    promote_chain m k.link;
    m.stats.captures_multi <- m.stats.captures_multi + 1;
    k
  end

let capture_multi_sealing m =
  let sr = m.sr in
  if sr.seg.(m.fp) = Underflow_mark then begin
    (* Tail-position capture on an empty segment: the link record itself is
       the continuation (paper Section 3.2). *)
    let k = below_bottom sr in
    if not (is_multi k) then begin
      (* Promote the whole chain starting at k itself. *)
      (match m.cfg.promotion with
      | Shared_flag ->
          promote_group k;
          m.stats.promotions <- m.stats.promotions + 1
      | Eager ->
          k.size <- k.current;
          m.stats.promotions <- m.stats.promotions + 1;
          promote_chain m k.link)
    end;
    m.stats.captures_multi <- m.stats.captures_multi + 1;
    k
  end
  else begin
    let occupied = m.fp - sr.base in
    let k =
      {
        seg = sr.seg;
        base = sr.base;
        size = occupied;
        current = occupied;
        link = sr.link;
        ret = sr.seg.(m.fp);
        promoted = promoted_flag;
      }
    in
    ignore (retaddr_of k.ret);
    sr.seg.(m.fp) <- Underflow_mark;
    sr.base <- m.fp;
    sr.size <- sr.size - occupied;
    sr.link <- k;
    promote_chain m k.link;
    m.stats.captures_multi <- m.stats.captures_multi + 1;
    k
  end

let capture_multi m =
  match m.cfg.capture with
  | Seal -> capture_multi_sealing m
  | Copy_on_capture -> capture_multi_copying m

let capture_oneshot m =
  let sr = m.sr in
  if sr.seg.(m.fp) = Underflow_mark then begin
    let k = below_bottom sr in
    m.stats.captures_oneshot <- m.stats.captures_oneshot + 1;
    k
  end
  else begin
    let occupied = m.fp - sr.base in
    let ret = sr.seg.(m.fp) in
    ignore (retaddr_of ret);
    m.stats.captures_oneshot <- m.stats.captures_oneshot + 1;
    match m.cfg.oneshot_seal with
    | Seal_displacement headroom when sr.size - occupied - headroom >= 64 ->
        (* Section 3.4: seal at a fixed displacement above the occupied
           portion; continue on the remainder of the same segment. *)
        let sealed = occupied + headroom in
        let k =
          {
            seg = sr.seg;
            base = sr.base;
            size = sealed;
            current = occupied;
            link = sr.link;
            ret;
            promoted = inherit_flag m sr.link;
          }
        in
        sr.base <- sr.base + sealed;
        sr.size <- sr.size - sealed;
        sr.link <- k;
        m.fp <- sr.base;
        sr.seg.(m.fp) <- Underflow_mark;
        k
    | _ ->
        (* Encapsulate the entire segment; continue on a fresh one.  The
           active record struct is referenced only through [m.sr] (the
           same privacy invariant the in-place unseal relies on when it
           mutates the active record's bounds), so instead of building a
           new sealed record and dropping this one, recycle the struct:
           its seg/base/size/link fields are already exactly the sealed
           record's, leaving one store each for the occupancy, return
           slot and promotion-flag group.  With the segment popped from
           the cache in place and a lone record's shared flag, the new
           active record is the capture's only allocation.  The
           capture-switch loop of experiment e2 runs this once per
           context switch. *)
        let k = sr in
        k.current <- occupied;
        k.ret <- ret;
        (* A capture loop re-inherits the flag [k] already holds: skip
           the barriered store then, as {!Rt.set_slot} does. *)
        let flag = inherit_flag m k.link in
        if k.promoted != flag then k.promoted <- flag;
        let seg = alloc_segment m m.cfg.seg_words in
        m.sr <- fresh_record seg ~base:0 ~size:(Array.length seg) ~link:k;
        m.fp <- 0;
        (* A segment back from the cache usually still holds the mark. *)
        set_slot seg 0 Underflow_mark;
        k
  end

(* ------------------------------------------------------------------ *)
(* Invocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Split a saved segment so that the portion to be copied is at most the
   copy bound, walking frame boundaries top-down via the displacement
   words (paper Section 3.2; details in Hieb/Dybvig/Bruggeman PLDI'90). *)
let split_for_copy m k content =
  let bound = m.cfg.copy_bound in
  let top = content - rdisp_of k.ret in
  let s = ref top in
  let continue = ref (top > 0 && content - top <= bound) in
  while !continue do
    match k.seg.(k.base + !s) with
    | Retaddr { rdisp; _ } ->
        let p = !s - rdisp in
        if p > 0 && content - p <= bound then s := p else continue := false
    | _ -> continue := false
  done;
  let s = if content - !s <= bound then !s else top in
  if s <= 0 then content (* single oversized frame: copy everything *)
  else begin
    let krest =
      {
        seg = k.seg;
        base = k.base;
        size = s;
        current = s;
        link = k.link;
        ret = k.seg.(k.base + s);
        promoted = promoted_flag;
      }
    in
    ignore (retaddr_of krest.ret);
    k.seg.(k.base + s) <- Underflow_mark;
    k.base <- k.base + s;
    k.size <- content - s;
    k.current <- content - s;
    k.link <- krest;
    m.stats.splits <- m.stats.splits + 1;
    content - s
  end

(* Unseal fast path (the capture-then-immediately-invoke loop pattern).
   When the multi-shot record being invoked is the region directly below
   the current *empty* base of the same segment — i.e. nothing has been
   pushed since it was sealed and its frames are still physically intact
   in place — reinstatement does not need to copy the content back above
   the seal.  Instead the seal is reopened in place: only the topmost
   saved frame (the frame the resumed code executes in, which is about to
   be mutated) is copied aside into the record so a later re-invocation
   can rebuild the identical state; everything below it stays sealed,
   zero-copy, as a fresh record that the reopened frame underflows into
   when it eventually returns.  Escape-heavy workloads (ctak) thus pay
   one frame of copying per invocation instead of the whole inter-capture
   region. *)
let unseal_in_place m k r rdisp =
  let sr = m.sr in
  let seg = k.seg in
  let s = k.current - rdisp in
  let boundary = k.base + s in
  let krest =
    {
      seg;
      base = k.base;
      size = s;
      current = s;
      link = k.link;
      ret = seg.(boundary);
      promoted = promoted_flag;
    }
  in
  ignore (retaddr_of krest.ret);
  (* Preserve the top frame before the seal boundary moves.  Its return
     slot now lives in [krest.ret], and the copy is the bottom frame of
     [k]'s own slice, so it returns through the underflow mark: a later
     re-entry by copying must underflow into [krest], not return through
     a stale address. *)
  let top = Array.sub seg boundary rdisp in
  top.(0) <- Underflow_mark;
  m.stats.words_copied <- m.stats.words_copied + rdisp;
  k.seg <- top;
  k.base <- 0;
  k.size <- rdisp;
  k.current <- rdisp;
  k.link <- krest;
  seg.(boundary) <- Underflow_mark;
  (* The active record grows downward over the reopened top frame. *)
  sr.size <- sr.size + (sr.base - boundary);
  sr.base <- boundary;
  sr.link <- krest;
  m.fp <- boundary;
  m.stats.unseals <- m.stats.unseals + 1;
  m.stats.invokes_multi <- m.stats.invokes_multi + 1;
  r

let reinstate_multi ?(unseal = true) m k =
  let sr = m.sr in
  let r = k.ret in
  let rdisp = rdisp_of r in
  if
    unseal && sr.seg == k.seg
    && sr.link == k
    && k.base + k.size = sr.base
    && m.fp = sr.base
    && rdisp > 0
    && k.current > rdisp
  then unseal_in_place m k r rdisp
  else begin
    let content = k.current in
    let content =
      if content > m.cfg.copy_bound then split_for_copy m k content else content
    in
    let sr = m.sr in
    if sr.size < content then begin
      if wholly_owned sr && sr.seg != k.seg then release_segment m sr.seg;
      let seg = alloc_segment m (content + 64) in
      m.sr <- fresh_record seg ~base:0 ~size:(Array.length seg) ~link:no_link
    end;
    let sr = m.sr in
    Array.blit k.seg k.base sr.seg sr.base content;
    m.stats.words_copied <- m.stats.words_copied + content;
    sr.link <- k.link;
    let r = k.ret in
    m.fp <- sr.base + content - rdisp_of r;
    m.stats.invokes_multi <- m.stats.invokes_multi + 1;
    r
  end

let reinstate_oneshot m k =
  let sr = m.sr in
  if wholly_owned sr && sr.seg != k.seg then release_segment m sr.seg;
  (* Adopt [k]'s segment by recycling the outgoing active record struct
     (private to [m.sr], like the capture path) rather than allocating a
     fresh one: together with the recycled sealed record at capture,
     a one-shot capture/invoke round trip allocates one record, not
     three.  [k] itself cannot be reused — its identity must survive,
     shot-marked, inside the continuation value. *)
  sr.seg <- k.seg;
  sr.base <- k.base;
  sr.size <- k.size;
  sr.current <- 0;
  sr.link <- k.link;
  if sr.ret != Void then sr.ret <- Void;
  if sr.promoted != lone_flag then sr.promoted <- lone_flag;
  let r = k.ret in
  m.fp <- k.base + k.current - rdisp_of r;
  (* Mark shot: both size fields set to -1 (paper Figure 4), and detach
     the record from its adopted segment and its chain — a shot record
     can never be reinstated, so keeping the pointers alive would only
     pin the segment (and every record below it) for as long as the dead
     continuation value happens to be reachable. *)
  k.size <- -1;
  k.current <- -1;
  k.seg <- [||];
  k.link <- no_link;
  k.ret <- Void;
  m.stats.invokes_oneshot <- m.stats.invokes_oneshot + 1;
  r

let reinstate ?(unseal = true) m k =
  if is_shot k then raise Shot_continuation
  else if is_multi k then reinstate_multi ~unseal m k
  else reinstate_oneshot m k

let at_bottom m = m.sr.link == no_link

let underflow m =
  let k = below_bottom m.sr in
  m.stats.underflows <- m.stats.underflows + 1;
  (* Returning through a seal is a descent that will keep descending:
     take the bulk-copy path (bounded by [copy_bound]) rather than
     reopening one frame at a time. *)
  reinstate ~unseal:false m k

(* ------------------------------------------------------------------ *)
(* Overflow as implicit continuation capture (paper Section 3.2)       *)
(* ------------------------------------------------------------------ *)

let overflow m ~live_top ~need =
  m.stats.overflows <- m.stats.overflows + 1;
  let sr = m.sr in
  let seg = sr.seg in
  let split, link' =
    match m.cfg.overflow_policy with
    | As_callcc ->
        (* Seal everything below the current frame as a multi-shot record;
           the entire new segment must refill before the next overflow, so
           no bouncing — but unwinding will copy it all back. *)
        if m.fp = sr.base then (m.fp, sr.link)
        else begin
          let occupied = m.fp - sr.base in
          let k =
            {
              seg;
              base = sr.base;
              size = occupied;
              current = occupied;
              link = sr.link;
              ret = seg.(m.fp);
              promoted = promoted_flag;
            }
          in
          ignore (retaddr_of k.ret);
          seg.(m.fp) <- Underflow_mark;
          promote_chain m k.link;
          m.stats.captures_multi <- m.stats.captures_multi + 1;
          (m.fp, k)
        end
    | As_call1cc ->
        (* Seal as a one-shot record, copying up the top few frames
           (hysteresis) so an immediate return does not bounce. *)
        let s = ref m.fp in
        let continue = ref true in
        while !continue && !s > sr.base
              && live_top - !s < m.cfg.hysteresis_words do
          match seg.(!s) with
          | Retaddr { rdisp; _ } -> s := !s - rdisp
          | _ -> continue := false
        done;
        let s = !s in
        if s = sr.base then (s, sr.link)
        else begin
          let k =
            {
              seg;
              base = sr.base;
              size = sr.size;
              current = s - sr.base;
              link = sr.link;
              ret = seg.(s);
              promoted = inherit_flag m sr.link;
            }
          in
          ignore (retaddr_of k.ret);
          m.stats.captures_oneshot <- m.stats.captures_oneshot + 1;
          (s, k)
        end
  in
  let live = live_top - split in
  let abandoned_whole = split = sr.base in
  let old_seg = seg in
  let old_owned = wholly_owned sr in
  let newlen = max m.cfg.seg_words (need + live + 16) in
  let nseg = alloc_segment m newlen in
  Array.blit seg split nseg 0 live;
  m.stats.words_copied <- m.stats.words_copied + live;
  (* When a record was sealed at [split], the copied frame's return slot
     must become the underflow mark; when the split landed at the segment
     base, slot 0 is already the bottom frame's correct return slot
     (underflow mark or the halt return address). *)
  if split > sr.base then nseg.(0) <- Underflow_mark;
  m.sr <- fresh_record nseg ~base:0 ~size:(Array.length nseg) ~link:link';
  m.fp <- m.fp - split;
  if abandoned_whole && old_owned && old_seg != nseg then
    release_segment m old_seg

let ensure_room m ~live_top ~need =
  if not (room m need) then
    overflow m ~live_top:(min live_top (seg_limit m)) ~need

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let live_chain r =
  let rec go acc r =
    if r == no_link then List.rev acc else go (r :: acc) r.link
  in
  go [] r

let chain_depth m = List.length (live_chain m.sr) - 1

let segment_words_live m =
  List.fold_left (fun acc r -> acc + max r.size 0) 0 (live_chain m.sr)

(* Walk the whole logical stack from the current frame, reading procedure
   names out of the return addresses -- the paper's debugger/exception-
   handler stack walk, crossing segment boundaries through the record
   chain. *)
let backtrace ?(limit = 64) m =
  let names = ref [] in
  let count = ref 0 in
  let rec in_segment seg f link =
    if !count < limit then
      match seg.(f) with
      | Retaddr { rcode; rdisp; _ } ->
          incr count;
          names := rcode.cname :: !names;
          if f - rdisp >= 0 && rdisp > 0 then in_segment seg (f - rdisp) link
      | Underflow_mark ->
          if link == no_link then ()
          else if is_shot link then begin
            (* The chain continues into a continuation that has been
               shot: its frames are gone (the segment was adopted and
               the record detached), so mark the hole instead of
               silently truncating the walk. *)
            incr count;
            names := "<shot>" :: !names
          end
          else at_record link
      | _ -> ()
  and at_record k =
    match k.ret with
    | Retaddr { rcode; rdisp; _ } when !count < limit ->
        incr count;
        names := rcode.cname :: !names;
        let f = k.base + k.current - rdisp in
        if f >= k.base then in_segment k.seg f k.link
    | _ -> ()
  in
  in_segment m.sr.seg m.fp m.sr.link;
  List.rev !names

let walk_frames seg ~base ~top =
  let rec go acc f =
    let acc = f :: acc in
    match seg.(base + f) with
    | Retaddr { rdisp; _ } when rdisp > 0 && f - rdisp >= 0 ->
        go acc (f - rdisp)
    | _ -> List.rev acc
  in
  if top < 0 then [] else go [] top
