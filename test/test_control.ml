(* Direct unit tests of the control substrate: stack records, walking,
   capture/reinstate mechanics, the segment cache, splitting, overflow
   policies — driven at the OCaml level with hand-built frames. *)

let case = Tutil.case

let dummy_code = Bytecode.make_code ~name:"t" ~arity:(Rt.Exactly 0) ~frame_words:4 [| Rt.Halt |]
let retaddr ~disp = Rt.Retaddr { rcode = dummy_code; rpc = 0; rdisp = disp }
let rdisp = function Rt.Retaddr { rdisp; _ } -> rdisp | _ -> -1

let small_config =
  {
    Control.default_config with
    Control.seg_words = 256;
    copy_bound = 32;
    hysteresis_words = 16;
  }

(* Build a machine with [n] synthetic frames of [fsize] words each pushed
   above the bottom frame. *)
let machine_with_frames ?(config = small_config) ?stats n fsize =
  let m = Control.create ?stats config in
  Control.init_frame m (retaddr ~disp:0);
  for _ = 1 to n do
    let fp = m.Control.fp in
    m.Control.sr.Rt.seg.(fp + fsize) <- retaddr ~disp:fsize;
    m.Control.fp <- fp + fsize
  done;
  m

let suite =
  [
    case "config bounds are reported, not asserted" (fun () ->
        let bad =
          [
            ( { small_config with Control.seg_words = 10 },
              ("seg_words", 64, 10) );
            ( { small_config with Control.copy_bound = 8 },
              ("copy_bound", 16, 8) );
            ( { small_config with
                Control.oneshot_seal = Control.Seal_displacement 0 },
              ("seal_displacement", 1, 0) );
          ]
        in
        List.iter
          (fun (cfg, ((field, _, _) as expected)) ->
            Alcotest.(check (option (triple string int int)))
              field (Some expected) (Control.validate cfg);
            match Control.create cfg with
            | _ -> Alcotest.failf "%s: create accepted the config" field
            | exception Invalid_argument _ -> ())
          bad;
        Alcotest.(check (option (triple string int int)))
          "default" None (Control.validate Control.default_config);
        Alcotest.(check (option (triple string int int)))
          "at the minimum" None
          (Control.validate
             {
               Control.default_config with
               Control.seg_words = 64;
               copy_bound = 16;
               oneshot_seal = Control.Seal_displacement 1;
             }));
    case "fresh machine has one segment, one frame" (fun () ->
        let m = Control.create small_config in
        Control.init_frame m (retaddr ~disp:0);
        Alcotest.(check int) "fp" 0 m.Control.fp;
        Alcotest.(check int) "depth" 0 (Control.chain_depth m);
        Alcotest.(check int) "live words" 256 (Control.segment_words_live m));
    case "walk_frames recovers frame chain" (fun () ->
        let m = machine_with_frames 5 8 in
        let frames =
          Control.walk_frames m.Control.sr.Rt.seg ~base:0 ~top:m.Control.fp
        in
        Alcotest.(check (list int)) "frames" [ 40; 32; 24; 16; 8; 0 ] frames);
    case "room and seg_limit" (fun () ->
        let m = machine_with_frames 5 8 in
        Alcotest.(check bool) "has room" true (Control.room m 100);
        Alcotest.(check bool) "not unlimited" false (Control.room m 1000));
    case "capture_multi seals without copying" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 5 8 in
        let k = Control.capture_multi m in
        Alcotest.(check int) "sealed size" 40 k.Rt.size;
        Alcotest.(check int) "current = size" k.Rt.size k.Rt.current;
        Alcotest.(check bool) "multi" true (Control.is_multi k);
        Alcotest.(check int) "no copy" 0 stats.Stats.words_copied;
        (* the active record re-based at the old frame pointer *)
        Alcotest.(check int) "rebased" 40 m.Control.sr.Rt.base;
        Alcotest.(check int) "chain depth" 1 (Control.chain_depth m);
        (* displaced return slot *)
        Alcotest.(check bool) "underflow mark" true
          (m.Control.sr.Rt.seg.(m.Control.fp) = Rt.Underflow_mark));
    case "capture_oneshot encapsulates whole segment" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 5 8 in
        let old_seg = m.Control.sr.Rt.seg in
        let k = Control.capture_oneshot m in
        Alcotest.(check bool) "one-shot" false (Control.is_multi k);
        Alcotest.(check int) "whole segment" 256 k.Rt.size;
        Alcotest.(check int) "occupied" 40 k.Rt.current;
        Alcotest.(check bool) "fresh segment" true
          (m.Control.sr.Rt.seg != old_seg);
        Alcotest.(check int) "fp reset" 0 m.Control.fp);
    case "reinstate one-shot adopts the segment and marks shot" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 5 8 in
        let old_seg = m.Control.sr.Rt.seg in
        let k = Control.capture_oneshot m in
        let fresh_seg = m.Control.sr.Rt.seg in
        let r = Control.reinstate m k in
        Alcotest.(check int) "resume disp" 8 (rdisp r);
        Alcotest.(check bool) "adopted" true (m.Control.sr.Rt.seg == old_seg);
        Alcotest.(check int) "fp at caller frame" 32 m.Control.fp;
        Alcotest.(check int) "no copying" 0 stats.Stats.words_copied;
        Alcotest.(check bool) "shot" true (Control.is_shot k);
        (* the abandoned fresh segment went back to the cache *)
        Alcotest.(check bool) "recycled" true
          (Array.exists
             (Array.exists (fun s -> s == fresh_seg))
             m.Control.cache);
        (* the shot record is fully detached: it pins neither its adopted
           segment nor the chain below it *)
        Alcotest.(check int) "segment dropped" 0 (Array.length k.Rt.seg);
        Alcotest.(check bool) "chain dropped" true
          (k.Rt.link == Control.no_link));
    case "reinstating a shot record raises" (fun () ->
        let m = machine_with_frames 5 8 in
        let k = Control.capture_oneshot m in
        ignore (Control.reinstate m k);
        Alcotest.check_raises "shot" Rt.Shot_continuation (fun () ->
            ignore (Control.reinstate m k)));
    case "reinstate multi (copy path) copies the saved words" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        let k = Control.capture_multi m in
        ignore (Control.reinstate ~unseal:false m k);
        Alcotest.(check int) "copied" 24 stats.Stats.words_copied;
        Alcotest.(check bool) "still invocable" true
          (not (Control.is_shot k));
        ignore (Control.reinstate ~unseal:false m k);
        Alcotest.(check int) "copied again" 48 stats.Stats.words_copied);
    case "reinstate multi splits beyond the copy bound" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 10 8 in
        (* 80 words sealed, copy bound 32 *)
        let k = Control.capture_multi m in
        ignore (Control.reinstate ~unseal:false m k);
        Alcotest.(check bool) "split happened" true (stats.Stats.splits > 0);
        Alcotest.(check bool) "bounded copy" true
          (stats.Stats.words_copied <= 32));
    case "split preserves total content" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 10 8 in
        let k = Control.capture_multi m in
        ignore (Control.reinstate ~unseal:false m k);
        (* the copied portion plus the content still sealed in the split
           remainder must cover the original 80 words *)
        let sealed = List.tl (Control.live_chain m.Control.sr) in
        let sealed_words =
          List.fold_left (fun a r -> a + r.Rt.current) 0 sealed
        in
        Alcotest.(check int) "copied + sealed" 80
          (stats.Stats.words_copied + sealed_words));
    case "promotion turns one-shot into multi" (fun () ->
        let config = { small_config with Control.promotion = Control.Eager } in
        let m = machine_with_frames ~config 3 8 in
        let k1 = Control.capture_oneshot m in
        Alcotest.(check bool) "one-shot" false (Control.is_multi k1);
        (* push a frame on the fresh segment, then capture multi above *)
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        let k2 = Control.capture_multi m in
        Alcotest.(check bool) "k2 multi" true (Control.is_multi k2);
        Alcotest.(check bool) "k1 promoted" true (Control.is_multi k1);
        (* promoted: size clamped to occupied under eager promotion *)
        Alcotest.(check int) "forfeited free space" k1.Rt.current k1.Rt.size);
    case "shared-flag promotion promotes the whole group at once" (fun () ->
        let config = { small_config with Control.promotion = Control.Shared_flag } in
        let stats = Stats.create () in
        let m = machine_with_frames ~config ~stats 3 8 in
        let k1 = Control.capture_oneshot m in
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        let k2 = Control.capture_oneshot m in
        (* k1 and k2 share the flag *)
        Alcotest.(check bool) "shared ref" true (k1.Rt.promoted == k2.Rt.promoted);
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        ignore (Control.capture_multi m);
        Alcotest.(check bool) "k1 promoted" true (Control.is_multi k1);
        Alcotest.(check bool) "k2 promoted" true (Control.is_multi k2);
        (* one store promoted the group *)
        Alcotest.(check int) "single promotion event" 1 stats.Stats.promotions);
    case "a lone one-shot record holds the shared unwritten flag" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        let k1 = Control.capture_oneshot m in
        Alcotest.(check bool) "lone" true (k1.Rt.promoted == Control.lone_flag);
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        let k2 = Control.capture_multi m in
        (* promoting a group of one swaps in the shared set flag *)
        Alcotest.(check bool) "k1 promoted" true (Control.is_multi k1);
        Alcotest.(check bool) "swapped" true
          (k1.Rt.promoted == Control.promoted_flag);
        Alcotest.(check bool) "multi-shot shares it" true
          (k2.Rt.promoted == Control.promoted_flag);
        Alcotest.(check bool) "lone flag unwritten" false !Control.lone_flag;
        Alcotest.(check int) "one promotion" 1 stats.Stats.promotions;
        (* reinstating a one-shot record stores the lone flag back *)
        let m = machine_with_frames 3 8 in
        let k = Control.capture_oneshot m in
        ignore (Control.reinstate m k);
        Alcotest.(check bool) "active record lone" true
          (m.Control.sr.Rt.promoted == Control.lone_flag));
    case "a group that forms later shares one flag" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        let push () =
          let fp = m.Control.fp in
          m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
          m.Control.fp <- fp + 6
        in
        let k1 = Control.capture_oneshot m in
        push ();
        let k2 = Control.capture_oneshot m in
        push ();
        let k3 = Control.capture_oneshot m in
        Alcotest.(check bool) "allocated when the group formed" true
          (k1.Rt.promoted != Control.lone_flag);
        Alcotest.(check bool) "k1 and k2 share" true
          (k1.Rt.promoted == k2.Rt.promoted);
        Alcotest.(check bool) "k3 joins" true (k3.Rt.promoted == k1.Rt.promoted);
        push ();
        ignore (Control.capture_multi m);
        List.iter
          (fun k -> Alcotest.(check bool) "promoted" true (Control.is_multi k))
          [ k1; k2; k3 ];
        Alcotest.(check int) "single promotion event" 1 stats.Stats.promotions;
        Alcotest.(check bool) "shared flags unwritten" true
          ((not !Control.lone_flag) && !Control.promoted_flag));
    case "eager promotion allocates no flag" (fun () ->
        let config = { small_config with Control.promotion = Control.Eager } in
        let m = machine_with_frames ~config 3 8 in
        let k1 = Control.capture_oneshot m in
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        let k2 = Control.capture_oneshot m in
        List.iter
          (fun k ->
            Alcotest.(check bool) "lone" true
              (k.Rt.promoted == Control.lone_flag))
          [ k1; k2 ];
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        ignore (Control.capture_multi m);
        (* promoted by size, flags untouched *)
        List.iter
          (fun k ->
            Alcotest.(check bool) "promoted" true (Control.is_multi k);
            Alcotest.(check bool) "still lone" true
              (k.Rt.promoted == Control.lone_flag))
          [ k1; k2 ]);
    case "seal displacement keeps the same segment" (fun () ->
        let config =
          { small_config with Control.oneshot_seal = Control.Seal_displacement 16 }
        in
        let m = machine_with_frames ~config 3 8 in
        let old_seg = m.Control.sr.Rt.seg in
        let k = Control.capture_oneshot m in
        Alcotest.(check bool) "same array" true (m.Control.sr.Rt.seg == old_seg);
        Alcotest.(check int) "sealed occupied+headroom" (24 + 16) k.Rt.size;
        Alcotest.(check int) "occupied" 24 k.Rt.current;
        Alcotest.(check bool) "one-shot" false (Control.is_multi k);
        (* live words bounded: seal displacement caps fragmentation *)
        Alcotest.(check int) "live" 256 (Control.segment_words_live m));
    case "ensure_room triggers one-shot overflow with hysteresis" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 20 8 in
        (* 160/256 used; demand far more than remains *)
        Control.ensure_room m ~live_top:(m.Control.fp + 4) ~need:200;
        Alcotest.(check int) "overflow" 1 stats.Stats.overflows;
        Alcotest.(check int) "oneshot capture" 1 stats.Stats.captures_oneshot;
        Alcotest.(check bool) "hysteresis copied some frames" true
          (stats.Stats.words_copied >= 16);
        Alcotest.(check bool) "room now" true (Control.room m 200);
        (* the record chain grew *)
        Alcotest.(check int) "depth" 1 (Control.chain_depth m));
    case "ensure_room under call/cc policy seals a multi record" (fun () ->
        let config =
          { small_config with Control.overflow_policy = Control.As_callcc }
        in
        let stats = Stats.create () in
        let m = machine_with_frames ~config ~stats 20 8 in
        Control.ensure_room m ~live_top:(m.Control.fp + 4) ~need:200;
        Alcotest.(check int) "multi capture" 1 stats.Stats.captures_multi;
        let chain = Control.live_chain m.Control.sr in
        (match chain with
        | _active :: sealed :: _ ->
            Alcotest.(check bool) "sealed is multi" true (Control.is_multi sealed)
        | _ -> Alcotest.fail "expected a sealed record");
        Alcotest.(check bool) "room now" true (Control.room m 200));
    case "underflow consumes the overflow record and returns" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 20 8 in
        Control.ensure_room m ~live_top:(m.Control.fp + 4) ~need:200;
        (* walk fp back to the new segment's bottom, then underflow *)
        m.Control.fp <- m.Control.sr.Rt.base;
        Alcotest.(check bool) "a record below" false (Control.at_bottom m);
        let r = Control.underflow m in
        Alcotest.(check int) "resume disp" 8 (rdisp r);
        Alcotest.(check int) "underflows" 1 stats.Stats.underflows);
    case "underflow off the bottom reports halt" (fun () ->
        let m = Control.create small_config in
        Control.init_frame m (retaddr ~disp:0);
        Alcotest.(check bool) "halt" true (Control.at_bottom m));
    case "segment cache caps retained segments" (fun () ->
        let m = Control.create small_config in
        Control.init_frame m (retaddr ~disp:0);
        (* fill the cache past its bound, then capture/reinstate
           repeatedly: each reinstate releases the segment the capture
           moved to, into a full cache *)
        let spare = Control.cache_max + 4 in
        let segs = List.init spare (fun _ -> Control.alloc_segment m 256) in
        List.iter (Control.release_segment m) segs;
        Alcotest.(check int) "full" Control.cache_max m.Control.cache_len;
        for _ = 1 to 5 do
          let fp = m.Control.fp in
          m.Control.sr.Rt.seg.(fp + 8) <- retaddr ~disp:8;
          m.Control.fp <- fp + 8;
          let k = Control.capture_oneshot m in
          ignore (Control.reinstate m k)
        done;
        Alcotest.(check int) "bounded" Control.cache_max m.Control.cache_len);
    case "cache disabled allocates every time" (fun () ->
        let config = { small_config with Control.cache_enabled = false } in
        let stats = Stats.create () in
        let m = Control.create ~stats config in
        Control.init_frame m (retaddr ~disp:0);
        let before = stats.Stats.seg_allocs in
        for _ = 1 to 4 do
          let fp = m.Control.fp in
          m.Control.sr.Rt.seg.(fp + 8) <- retaddr ~disp:8;
          m.Control.fp <- fp + 8;
          let k = Control.capture_oneshot m in
          ignore (Control.reinstate m k)
        done;
        Alcotest.(check int) "four fresh allocations" 4
          (stats.Stats.seg_allocs - before);
        Alcotest.(check int) "no hits" 0 stats.Stats.cache_hits);
    case "clear_cache empties the cache" (fun () ->
        let m = machine_with_frames 3 8 in
        let k = Control.capture_oneshot m in
        ignore (Control.reinstate m k);
        Alcotest.(check bool) "cached" true (m.Control.cache_len > 0);
        Control.clear_cache m;
        Alcotest.(check int) "empty" 0 m.Control.cache_len);
    case "multi-shot record invariants hold along a chain" (fun () ->
        let m = machine_with_frames 4 8 in
        let _k1 = Control.capture_multi m in
        let fp = m.Control.fp in
        m.Control.sr.Rt.seg.(fp + 6) <- retaddr ~disp:6;
        m.Control.fp <- fp + 6;
        let _k2 = Control.capture_multi m in
        List.iter
          (fun r ->
            if not (Control.is_shot r) then
              Alcotest.(check bool) "current <= size" true
                (r.Rt.current <= r.Rt.size || r == m.Control.sr))
          (Control.live_chain m.Control.sr));
    (* ---- oversized-segment recycling (seg_words = 256 here) ---- *)
    case "oversized requests round up to a segment multiple" (fun () ->
        let m = Control.create small_config in
        Alcotest.(check int) "small" 256 (Control.seg_request m 10);
        Alcotest.(check int) "exact" 256 (Control.seg_request m 256);
        Alcotest.(check int) "rounded" 512 (Control.seg_request m 300);
        Alcotest.(check int) "boundary" 512 (Control.seg_request m 512);
        Alcotest.(check int) "next" 768 (Control.seg_request m 513));
    case "oversized segments recycle through the cache" (fun () ->
        let stats = Stats.create () in
        let m = Control.create ~stats small_config in
        let seg = Control.alloc_segment m 300 in
        Alcotest.(check int) "rounded length" 512 (Array.length seg);
        Control.release_segment m seg;
        Alcotest.(check bool) "accepted" true (stats.Stats.cache_releases > 0);
        let allocs = stats.Stats.seg_allocs in
        let words = stats.Stats.seg_alloc_words in
        let hits = stats.Stats.cache_hits in
        let seg' = Control.alloc_segment m 257 in
        Alcotest.(check bool) "same array" true (seg' == seg);
        Alcotest.(check int) "cache hit" (hits + 1) stats.Stats.cache_hits;
        Alcotest.(check int) "no fresh alloc" allocs stats.Stats.seg_allocs;
        Alcotest.(check int) "no fresh words" words
          stats.Stats.seg_alloc_words);
    case "a larger size class serves an exact-class miss" (fun () ->
        let m = Control.create small_config in
        let big = Control.alloc_segment m 600 in
        let small = Control.alloc_segment m 10 in
        Control.release_segment m big;
        Control.release_segment m small;
        (* classes: [small] in class 0 (256 words), [big] in class 2 (768);
           a 500-word request (class 1, empty) must scan upward and take
           the 768-word array, leaving the 256-word one alone. *)
        let got = Control.alloc_segment m 500 in
        Alcotest.(check bool) "took the big one" true (got == big);
        let got' = Control.alloc_segment m 1 in
        Alcotest.(check bool) "small one still cached" true (got' == small));
    (* ---- size-classed cache behavior ---- *)
    case "class-exact reuse pops O(1) and is counted" (fun () ->
        let stats = Stats.create () in
        let m = Control.create ~stats small_config in
        let seg = Control.alloc_segment m 256 in
        Control.release_segment m seg;
        let hits = stats.Stats.cache_class_hits in
        let got = Control.alloc_segment m 256 in
        Alcotest.(check bool) "same array" true (got == seg);
        Alcotest.(check int) "class hit" (hits + 1) stats.Stats.cache_class_hits);
    case "exact-class miss is counted even when a larger class serves"
      (fun () ->
        let stats = Stats.create () in
        let m = Control.create ~stats small_config in
        let big = Control.alloc_segment m 600 in
        Control.release_segment m big;
        let misses = stats.Stats.cache_class_misses in
        let hits = stats.Stats.cache_hits in
        let got = Control.alloc_segment m 300 (* class 1: empty *) in
        Alcotest.(check bool) "served by class 2" true (got == big);
        Alcotest.(check int) "class miss" (misses + 1)
          stats.Stats.cache_class_misses;
        Alcotest.(check int) "still a cache hit" (hits + 1)
          stats.Stats.cache_hits);
    case "cache_max is enforced across classes" (fun () ->
        let m = Control.create small_config in
        (* sizes cycle through classes 0, 1 and 2 *)
        let segs =
          List.init (Control.cache_max + 3) (fun i ->
              Control.alloc_segment m (256 * (1 + (i mod 3))))
        in
        (* the machine's own initial segment is already cached or not;
           normalize by clearing first *)
        Control.clear_cache m;
        List.iter (Control.release_segment m) segs;
        Alcotest.(check int) "bounded" Control.cache_max m.Control.cache_len;
        Alcotest.(check int) "spread over three classes" Control.cache_max
          (m.Control.cache_top.(0) + m.Control.cache_top.(1)
         + m.Control.cache_top.(2)));
    case "cache_words_hw tracks the parked-words high-water" (fun () ->
        let stats = Stats.create () in
        let m = Control.create ~stats small_config in
        Control.clear_cache m;
        let hw0 = stats.Stats.cache_words_hw in
        let a = Control.alloc_segment m 256 in
        let b = Control.alloc_segment m 512 in
        Control.release_segment m a;
        Control.release_segment m b;
        Alcotest.(check bool) "high-water grew" true
          (stats.Stats.cache_words_hw >= hw0 + 256 + 512);
        let hw = stats.Stats.cache_words_hw in
        ignore (Control.alloc_segment m 256);
        Alcotest.(check int) "popping does not lower the mark" hw
          stats.Stats.cache_words_hw);
    case "the mixed top bucket is searched first-fit" (fun () ->
        (* both arrays land in the last class (>= 8 * seg_words) *)
        let m = Control.create small_config in
        let huge = Control.alloc_segment m (16 * 256) in
        let big = Control.alloc_segment m (9 * 256) in
        Control.release_segment m huge;
        Control.release_segment m big;
        (* bucket order: [big; huge]; a 12-segment request must skip the
           9-segment head and take the 16-segment array behind it *)
        let got = Control.alloc_segment m (12 * 256) in
        Alcotest.(check bool) "took the huge one" true (got == huge);
        let got' = Control.alloc_segment m (9 * 256) in
        Alcotest.(check bool) "big one still cached" true (got' == big));
    case "the mixed top bucket keeps release order around a taken slot"
      (fun () ->
        let m = Control.create small_config in
        Control.clear_cache m;
        let a = Control.alloc_segment m (9 * 256) in
        let b = Control.alloc_segment m (16 * 256) in
        let c = Control.alloc_segment m (10 * 256) in
        List.iter (Control.release_segment m) [ a; b; c ];
        (* first-fit from the most recent release: [c] is too small for
           12 segments, so [b] is taken from the middle of the bucket *)
        Alcotest.(check bool) "took b" true
          (Control.alloc_segment m (12 * 256) == b);
        (* the two left keep their order: the latest release first *)
        Alcotest.(check bool) "then c" true
          (Control.alloc_segment m (9 * 256) == c);
        Alcotest.(check bool) "then a" true
          (Control.alloc_segment m (9 * 256) == a));
    case "a class grows past its initial slots up to cache_max" (fun () ->
        let m = Control.create small_config in
        Control.clear_cache m;
        let n = Control.cache_max in
        let segs = List.init (n + 4) (fun _ -> Control.alloc_segment m 256) in
        List.iter (Control.release_segment m) segs;
        Alcotest.(check int) "bounded" n m.Control.cache_len;
        Alcotest.(check int) "one class" n m.Control.cache_top.(0);
        Alcotest.(check bool) "no more slots than cache_max" true
          (Array.length m.Control.cache.(0) <= n);
        (* the ones kept are popped back, latest first *)
        let kept = List.filteri (fun i _ -> i < n) segs in
        List.iter
          (fun s ->
            Alcotest.(check bool) "popped in order" true
              (Control.alloc_segment m 256 == s))
          (List.rev kept));
    case "a pop leaves no slot pinning its segment" (fun () ->
        let m = Control.create small_config in
        Control.clear_cache m;
        let a = Control.alloc_segment m 256 in
        let b = Control.alloc_segment m 256 in
        let big = Control.alloc_segment m (9 * 256) in
        List.iter (Control.release_segment m) [ a; b; big ];
        let got =
          [ Control.alloc_segment m 256; Control.alloc_segment m (9 * 256) ]
        in
        let cached s =
          Array.exists (Array.exists (fun x -> x == s)) m.Control.cache
        in
        List.iter
          (fun s -> Alcotest.(check bool) "not in the cache" false (cached s))
          got;
        Alcotest.(check bool) "a still cached" true (cached a);
        Alcotest.(check int) "one left" 1 m.Control.cache_len);
    case "clear_cache drops every slot" (fun () ->
        let m = Control.create small_config in
        let segs =
          List.map (Control.alloc_segment m) [ 256; 256; 512; 9 * 256 ]
        in
        List.iter (Control.release_segment m) segs;
        Control.clear_cache m;
        Alcotest.(check int) "empty" 0 m.Control.cache_len;
        Alcotest.(check int) "no words" 0 m.Control.cache_words;
        Alcotest.(check bool) "no slot holds a segment" true
          (Array.for_all
             (Array.for_all (fun s -> Array.length s = 0))
             m.Control.cache);
        Alcotest.(check bool) "no count" true
          (Array.for_all (fun n -> n = 0) m.Control.cache_top);
        (* and the cache still works *)
        Control.release_segment m (List.hd segs);
        Alcotest.(check bool) "reused" true
          (Control.alloc_segment m 256 == List.hd segs));
    (* ---- unseal fast path ---- *)
    case "invoking the adjacent seal reopens it in place" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        let seg = m.Control.sr.Rt.seg in
        let k = Control.capture_multi m in
        ignore (Control.reinstate m k);
        Alcotest.(check int) "unsealed" 1 stats.Stats.unseals;
        (* only the top frame moved (copied aside for re-invocation) *)
        Alcotest.(check int) "one frame copied" 8 stats.Stats.words_copied;
        Alcotest.(check bool) "same segment" true
          (m.Control.sr.Rt.seg == seg);
        (* resumed exactly where the sealed top frame lives *)
        Alcotest.(check int) "fp at top frame" 16 m.Control.fp;
        Alcotest.(check int) "base reopened" 16 m.Control.sr.Rt.base;
        (* the rest of the content stays sealed below, zero copy *)
        let krest = m.Control.sr.Rt.link in
        Alcotest.(check bool) "a sealed remainder" true
          (krest != Control.no_link);
        Alcotest.(check bool) "rest still in segment" true
          (krest.Rt.seg == seg);
        Alcotest.(check int) "rest sealed" 16 krest.Rt.current);
    case "a record unsealed in place returns through the underflow mark"
      (fun () ->
        let m = machine_with_frames 3 8 in
        let k = Control.capture_multi m in
        ignore (Control.reinstate m k);
        (* [k] now holds only the copied top frame; its remainder is the
           record below, so its own bottom slot must underflow there *)
        Alcotest.(check int) "one frame" 8 k.Rt.current;
        Alcotest.(check bool) "slot 0 is the underflow mark" true
          (k.Rt.seg.(k.Rt.base) = Rt.Underflow_mark);
        Alcotest.(check bool) "remainder holds the return" true
          (match k.Rt.link.Rt.ret with Rt.Retaddr _ -> true | _ -> false));
    case "re-invoking an unsealed record rebuilds the same state" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        let k = Control.capture_multi m in
        let r1 = Control.reinstate m k in
        let fp1 = m.Control.fp in
        let saved = m.Control.sr.Rt.seg.(m.Control.fp + 1) in
        (* the resumed code damages the reopened top frame *)
        m.Control.sr.Rt.seg.(m.Control.fp + 1) <- Rt.Int 999;
        Alcotest.(check bool) "still invocable" true
          (not (Control.is_shot k) && Control.is_multi k);
        let r2 = Control.reinstate m k in
        Alcotest.(check bool) "same resume point" true (r1 == r2);
        Alcotest.(check int) "same frame position" fp1 m.Control.fp;
        Alcotest.(check bool) "frame content restored" true
          (m.Control.sr.Rt.seg.(m.Control.fp + 1) = saved);
        Alcotest.(check int) "only one unseal" 1 stats.Stats.unseals);
    case "underflow never takes the unseal path" (fun () ->
        let stats = Stats.create () in
        let m = machine_with_frames ~stats 3 8 in
        ignore (Control.capture_multi m);
        (* return through the seal: fp is already at the empty base *)
        let r = Control.underflow m in
        Alcotest.(check int) "resume disp" 8 (rdisp r);
        Alcotest.(check int) "no unseal" 0 stats.Stats.unseals;
        Alcotest.(check int) "bulk copy" 24 stats.Stats.words_copied);
    (* ---- backtrace across a shot record ---- *)
    case "backtrace marks a shot record instead of truncating" (fun () ->
        let config =
          { small_config with Control.oneshot_seal = Control.Seal_displacement 16 }
        in
        let m = machine_with_frames ~config 3 8 in
        let k1 = Control.capture_oneshot m in
        (* push two frames above the sealed slice, then seal them too *)
        for _ = 1 to 2 do
          let fp = m.Control.fp in
          m.Control.sr.Rt.seg.(fp + 8) <- retaddr ~disp:8;
          m.Control.fp <- fp + 8
        done;
        let k2 = Control.capture_oneshot m in
        (* shoot k1 (escaping below k2), then re-enter k2: its chain now
           crosses the consumed k1 *)
        ignore (Control.reinstate m k1);
        ignore (Control.reinstate m k2);
        let names = Control.backtrace m in
        Alcotest.(check (list string)) "sentinel frame" [ "t"; "<shot>" ]
          names);
    case "oversized overflow segments are reused across runs" (fun () ->
        (* A frame larger than a whole segment forces an oversized
           overflow allocation; with rounding + first-fit the second run
           must be served entirely from the cache. *)
        let bindings =
          String.concat " "
            (List.init 150 (fun i -> Printf.sprintf "(x%d %d)" i i))
        in
        let args =
          String.concat " " (List.init 150 (fun i -> Printf.sprintf "x%d" i))
        in
        let define =
          Printf.sprintf "(define (bigframe) (let* (%s) (+ %s)))" bindings args
        in
        let config =
          { Control.default_config with seg_words = 128; hysteresis_words = 24 }
        in
        let stats = Stats.create () in
        let s = Scheme.create ~backend:(Scheme.Stack config) ~stats () in
        ignore (Scheme.eval ~fuel:Tutil.default_fuel s define);
        ignore (Scheme.eval ~fuel:Tutil.default_fuel s "(bigframe)");
        Stats.reset stats;
        ignore (Scheme.eval ~fuel:Tutil.default_fuel s "(bigframe)");
        Alcotest.(check int) "no fresh segments" 0 stats.Stats.seg_allocs;
        Alcotest.(check bool) "served from cache" true
          (stats.Stats.cache_hits > 0));
  ]
