type t = {
  mutable enabled : bool;
  mutable instrs : int;
  mutable calls : int;
  mutable frames : int;
  mutable prim_calls : int;
  mutable prim_fast : int;
  mutable prim_deopts : int;
  mutable captures_multi : int;
  mutable captures_oneshot : int;
  mutable invokes_multi : int;
  mutable invokes_oneshot : int;
  mutable unseals : int;
  mutable underflows : int;
  mutable overflows : int;
  mutable splits : int;
  mutable promotions : int;
  mutable words_copied : int;
  mutable seg_allocs : int;
  mutable seg_alloc_words : int;
  mutable cache_hits : int;
  mutable cache_releases : int;
  mutable cache_class_hits : int;
  mutable cache_class_misses : int;
  mutable cache_words_hw : int;
  mutable closures_made : int;
  mutable boxes_made : int;
  mutable heap_frames : int;
  mutable heap_frame_words : int;
  mutable cow_copies : int;
  mutable tmpl_codes : int;
  mutable tmpl_steps : int;
  mutable tmpl_enters : int;
}

let create ?(enabled = true) () =
  {
    enabled;
    instrs = 0;
    calls = 0;
    frames = 0;
    prim_calls = 0;
    prim_fast = 0;
    prim_deopts = 0;
    captures_multi = 0;
    captures_oneshot = 0;
    invokes_multi = 0;
    invokes_oneshot = 0;
    unseals = 0;
    underflows = 0;
    overflows = 0;
    splits = 0;
    promotions = 0;
    words_copied = 0;
    seg_allocs = 0;
    seg_alloc_words = 0;
    cache_hits = 0;
    cache_releases = 0;
    cache_class_hits = 0;
    cache_class_misses = 0;
    cache_words_hw = 0;
    closures_made = 0;
    boxes_made = 0;
    heap_frames = 0;
    heap_frame_words = 0;
    cow_copies = 0;
    tmpl_codes = 0;
    tmpl_steps = 0;
    tmpl_enters = 0;
  }

(* [reset] clears the counters but leaves [enabled] alone. *)
let reset t =
  t.instrs <- 0;
  t.calls <- 0;
  t.frames <- 0;
  t.prim_calls <- 0;
  t.prim_fast <- 0;
  t.prim_deopts <- 0;
  t.captures_multi <- 0;
  t.captures_oneshot <- 0;
  t.invokes_multi <- 0;
  t.invokes_oneshot <- 0;
  t.unseals <- 0;
  t.underflows <- 0;
  t.overflows <- 0;
  t.splits <- 0;
  t.promotions <- 0;
  t.words_copied <- 0;
  t.seg_allocs <- 0;
  t.seg_alloc_words <- 0;
  t.cache_hits <- 0;
  t.cache_releases <- 0;
  t.cache_class_hits <- 0;
  t.cache_class_misses <- 0;
  t.cache_words_hw <- 0;
  t.closures_made <- 0;
  t.boxes_made <- 0;
  t.heap_frames <- 0;
  t.heap_frame_words <- 0;
  t.cow_copies <- 0;
  t.tmpl_codes <- 0;
  t.tmpl_steps <- 0;
  t.tmpl_enters <- 0

let to_rows t =
  [
    ("instrs", t.instrs);
    ("calls", t.calls);
    ("frames", t.frames);
    ("prim-calls", t.prim_calls);
    ("prim-fast", t.prim_fast);
    ("prim-deopts", t.prim_deopts);
    ("captures-multi", t.captures_multi);
    ("captures-oneshot", t.captures_oneshot);
    ("invokes-multi", t.invokes_multi);
    ("invokes-oneshot", t.invokes_oneshot);
    ("unseals", t.unseals);
    ("underflows", t.underflows);
    ("overflows", t.overflows);
    ("splits", t.splits);
    ("promotions", t.promotions);
    ("words-copied", t.words_copied);
    ("seg-allocs", t.seg_allocs);
    ("seg-alloc-words", t.seg_alloc_words);
    ("cache-hits", t.cache_hits);
    ("cache-releases", t.cache_releases);
    ("cache-class-hits", t.cache_class_hits);
    ("cache-class-misses", t.cache_class_misses);
    ("cache-words-hw", t.cache_words_hw);
    ("closures-made", t.closures_made);
    ("boxes-made", t.boxes_made);
    ("heap-frames", t.heap_frames);
    ("heap-frame-words", t.heap_frame_words);
    ("cow-copies", t.cow_copies);
    ("tmpl-codes", t.tmpl_codes);
    ("tmpl-steps", t.tmpl_steps);
    ("tmpl-enters", t.tmpl_enters);
  ]

let names = List.map fst (to_rows (create ()))
let get t name = List.assoc name (to_rows t)

let copy t = { t with instrs = t.instrs }
