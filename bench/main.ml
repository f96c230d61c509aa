(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4 and the Section 5 comparison), plus ablations of
   the design choices called out in DESIGN.md.

     e1    ctak with call/cc vs call/1cc          (Section 4, first result)
     e2    thread systems, Figure 5               (CPS / call/cc / call/1cc)
     e3    deep recursion under overflow policies (Section 4, third result)
     e4    per-frame overhead, stack vs heap      (Section 5, Appel-Shao)
     e5    dynamic-wind: deep wind/unwind with escaping one-shot conts
     a1    segment cache on/off
     a2    overflow hysteresis on/off
     a3    copy bound sweep (splitting)
     a4    one-shot fragmentation: whole-segment vs seal-displacement
     a5    promotion: eager walk vs shared flag
     micro Bechamel micro-benchmarks of the control primitives

   Quick mode (default) runs scaled-down parameters; [--full] uses the
   paper's exact workloads (fib 20, 1000 threads, 10^6-call recursions). *)

let fuel = max_int

let iters = ref 1
(** [--iters N]: repeat every timed measurement [N] times.  Each timing
    reports the minimum (the headline number: least interference) and the
    median (robustness check).  The [reset] hook runs before each
    iteration so deterministic counters always reflect exactly one run. *)

let time_ms ?(reset = ignore) f =
  let n = max 1 !iters in
  let samples = Array.make n 0.0 in
  let result = ref None in
  for i = 0 to n - 1 do
    reset ();
    let t0 = Unix.gettimeofday () in
    result := Some (f ());
    samples.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
  done;
  Array.sort compare samples;
  let r = match !result with Some r -> r | None -> assert false in
  (r, samples.(0), samples.(n / 2))

let session ?(config = Control.default_config) () =
  let stats = Stats.create () in
  let s = Scheme.create ~backend:(Scheme.Stack config) ~stats () in
  Scheme.load_corpus s;
  (s, stats)

let heap_session () =
  let stats = Stats.create () in
  let s = Scheme.create ~backend:Scheme.Heap ~stats () in
  Scheme.load_corpus s;
  (s, stats)

let closure_session ?(config = Control.default_config) () =
  let stats = Stats.create () in
  let s = Scheme.create ~backend:(Scheme.Closure config) ~stats () in
  Scheme.load_corpus s;
  (s, stats)

let run s src = ignore (Scheme.eval ~fuel s src)
let header title = Printf.printf "\n== %s\n" title
let note fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable metrics (BENCH_*.json)                *)
(* ------------------------------------------------------------------ *)

(* Every experiment records its headline measurements here; [--json FILE]
   dumps them so each PR can commit a perf baseline and later PRs can
   diff against it.  Counter semantics are those of [Stats]. *)

type jval = J_int of int | J_float of float

let json_records : (string * (string * jval) list) list ref = ref []
let record name metrics = json_records := (name, metrics) :: !json_records

let stat_metrics (st : Stats.t) =
  [
    ("instrs", J_int st.Stats.instrs);
    ("words_copied", J_int st.Stats.words_copied);
    ("seg_alloc_words", J_int st.Stats.seg_alloc_words);
    ("cache_hits", J_int st.Stats.cache_hits);
  ]

let record_run ?(extra = []) ?median name ms (st : Stats.t) =
  let timing =
    ("ms", J_float ms)
    ::
    (match median with
    | Some m when !iters > 1 -> [ ("ms_median", J_float m) ]
    | _ -> [])
  in
  record name ((timing @ stat_metrics st) @ extra)

let write_json ~full path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"oneshot-bench/v1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": %S,\n" (if full then "full" else "quick"));
  Buffer.add_string buf (Printf.sprintf "  \"iters\": %d,\n" !iters);
  Buffer.add_string buf "  \"experiments\": {\n";
  let entries = List.rev !json_records in
  let n = List.length entries in
  List.iteri
    (fun i (name, metrics) ->
      Buffer.add_string buf (Printf.sprintf "    %S: {" name);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "%S: %s" k
               (match v with
               | J_int x -> string_of_int x
               | J_float x -> Printf.sprintf "%.3f" x)))
        metrics;
      Buffer.add_string buf (if i < n - 1 then "},\n" else "}\n"))
    entries;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* E1: ctak                                                            *)
(* ------------------------------------------------------------------ *)

let e1 ~full () =
  header "E1 (Section 4): ctak -- capture+invoke a continuation at every call";
  let x, y, z = if full then (20, 14, 7) else (18, 12, 6) in
  let measure mk op =
    let s, stats = mk () in
    run s (Printf.sprintf "(set! ctak-capture %s)" op);
    run s (Printf.sprintf "(ctak %d %d %d)" (x - 2) (y - 2) (z - 1));
    let _, ms, med =
      time_ms
        ~reset:(fun () -> Stats.reset stats)
        (fun () -> run s (Printf.sprintf "(ctak %d %d %d)" x y z))
    in
    (ms, med, Stats.copy stats)
  in
  let ms_cc, med_cc, st_cc = measure (fun () -> session ()) "%call/cc" in
  let ms_1cc, med_1cc, st_1cc = measure (fun () -> session ()) "%call/1cc" in
  let ms_tcc, med_tcc, st_tcc =
    measure (fun () -> closure_session ()) "%call/cc"
  in
  let ms_t1cc, med_t1cc, st_t1cc =
    measure (fun () -> closure_session ()) "%call/1cc"
  in
  Printf.printf "  workload: (ctak %d %d %d)\n" x y z;
  Printf.printf "  %-10s %10s %12s %12s %12s\n" "operator" "time(ms)"
    "captures" "copied(w)" "alloc(w)";
  let row name ms (st : Stats.t) =
    Printf.printf "  %-10s %10.1f %12d %12d %12d\n" name ms
      (st.captures_multi + st.captures_oneshot)
      st.words_copied st.seg_alloc_words
  in
  row "call/cc" ms_cc st_cc;
  row "call/1cc" ms_1cc st_1cc;
  row "T call/cc" ms_tcc st_tcc;
  row "T call/1cc" ms_t1cc st_t1cc;
  Printf.printf
    "  (T = closure backend; semantic counters must match the stack rows)\n";
  let captures (st : Stats.t) =
    ("captures", J_int (st.captures_multi + st.captures_oneshot))
  in
  record_run "e1.callcc" ms_cc st_cc ~median:med_cc ~extra:[ captures st_cc ];
  record_run "e1.call1cc" ms_1cc st_1cc ~median:med_1cc
    ~extra:[ captures st_1cc ];
  record_run "e1.closure-callcc" ms_tcc st_tcc ~median:med_tcc
    ~extra:[ captures st_tcc ];
  record_run "e1.closure-call1cc" ms_t1cc st_t1cc ~median:med_t1cc
    ~extra:[ captures st_t1cc ];
  Printf.printf
    "  call/1cc: %.0f%% faster, %.0f%% less stack allocation (paper: 13%% \
     faster, 23%% less memory)\n"
    ((ms_cc -. ms_1cc) /. ms_cc *. 100.)
    (float_of_int (st_cc.Stats.seg_alloc_words - st_1cc.Stats.seg_alloc_words)
    /. float_of_int (max 1 st_cc.Stats.seg_alloc_words)
    *. 100.)

(* ------------------------------------------------------------------ *)
(* E2: Figure 5 -- thread systems                                      *)
(* ------------------------------------------------------------------ *)

let e2 ~full () =
  header "E2 (Figure 5): thread systems, context-switch frequency sweep";
  let fib_n = if full then 20 else 15 in
  let thread_counts = if full then [ 10; 100; 1000 ] else [ 10; 100 ] in
  let freqs = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ] in
  let total_cps = ref 0. and total_cc = ref 0. and total_1cc = ref 0. in
  let med_cps = ref 0. and med_cc = ref 0. and med_1cc = ref 0. in
  (* Per-operator deterministic counters, accumulated across the whole
     freq x threads sweep.  [time_ms]'s reset hook zeroes the session
     counters before every iteration, so each measurement contributes
     exactly one run's worth regardless of --iters, and the totals are
     reproducible numbers compare.exe can gate at zero tolerance. *)
  let st_cps = Stats.create ()
  and st_cc = Stats.create ()
  and st_1cc = Stats.create () in
  let acc_into (dst : Stats.t) (src : Stats.t) =
    dst.Stats.instrs <- dst.Stats.instrs + src.Stats.instrs;
    dst.Stats.words_copied <- dst.Stats.words_copied + src.Stats.words_copied;
    dst.Stats.seg_alloc_words <-
      dst.Stats.seg_alloc_words + src.Stats.seg_alloc_words;
    dst.Stats.cache_hits <- dst.Stats.cache_hits + src.Stats.cache_hits;
    dst.Stats.captures_multi <-
      dst.Stats.captures_multi + src.Stats.captures_multi;
    dst.Stats.captures_oneshot <-
      dst.Stats.captures_oneshot + src.Stats.captures_oneshot
  in
  Printf.printf
    "  each thread computes (fib %d); times in ms (paper: DEC Alpha ms)\n"
    fib_n;
  List.iter
    (fun nthreads ->
      Printf.printf "\n  -- %d threads --\n" nthreads;
      Printf.printf "  %8s %12s %12s %12s\n" "freq" "cps" "call/cc" "call/1cc";
      List.iter
        (fun freq ->
          let run_one dst src =
            let s, stats = session () in
            let _, ms, med =
              time_ms ~reset:(fun () -> Stats.reset stats) (fun () -> run s src)
            in
            acc_into dst stats;
            (ms, med)
          in
          let cps, cps_m =
            run_one st_cps
              (Printf.sprintf "(run-cps-fib-threads %d %d %d)" nthreads fib_n
                 freq)
          in
          let cc, cc_m =
            run_one st_cc
              (Printf.sprintf "(run-fib-threads %d %d %d %%call/cc)" nthreads
                 fib_n freq)
          in
          let c1, c1_m =
            run_one st_1cc
              (Printf.sprintf "(run-fib-threads %d %d %d %%call/1cc)" nthreads
                 fib_n freq)
          in
          total_cps := !total_cps +. cps;
          total_cc := !total_cc +. cc;
          total_1cc := !total_1cc +. c1;
          med_cps := !med_cps +. cps_m;
          med_cc := !med_cc +. cc_m;
          med_1cc := !med_1cc +. c1_m;
          Printf.printf "  %8d %12.1f %12.1f %12.1f\n" freq cps cc c1)
        freqs)
    thread_counts;
  let e2_record name total med (st : Stats.t) =
    record name
      (("ms", J_float total)
      :: ((if !iters > 1 then [ ("ms_median", J_float med) ] else [])
         @ stat_metrics st
         @ [
             ( "captures",
               J_int (st.Stats.captures_multi + st.Stats.captures_oneshot) );
           ]))
  in
  e2_record "e2.cps" !total_cps !med_cps st_cps;
  e2_record "e2.callcc" !total_cc !med_cc st_cc;
  e2_record "e2.call1cc" !total_1cc !med_1cc st_1cc;
  note
    "  expected shape: CPS wins only for switches more frequent than about\n\
    \  once every 4-8 calls; call/1cc <= call/cc everywhere; the advantage\n\
    \  shrinks as switches become rare (paper: 'only a few percent' beyond\n\
    \  one switch per 128 calls).\n"

(* ------------------------------------------------------------------ *)
(* E3: deep recursion / overflow handling                              *)
(* ------------------------------------------------------------------ *)

let e3 ~full () =
  header
    "E3 (Section 4): repeated deep recursion; stack overflow as implicit \
     call/1cc vs call/cc";
  let iters, depth = if full then (100, 10_000) else (20, 10_000) in
  Printf.printf
    "  workload: %d iterations of %d-deep non-tail recursion (%d calls \
     total), 16K-word segments\n"
    iters depth (iters * depth);
  Printf.printf "  %-22s %10s %10s %12s %12s %10s\n" "overflow policy"
    "time(ms)" "overflows" "copied(w)" "alloc(w)" "cache-hit";
  let measure policy name =
    let config =
      { Control.default_config with Control.overflow_policy = policy }
    in
    let s, stats = session ~config () in
    run s (Printf.sprintf "(deep-loop 2 %d)" depth);
    let _, ms, med =
      time_ms
        ~reset:(fun () -> Stats.reset stats)
        (fun () -> run s (Printf.sprintf "(deep-loop %d %d)" iters depth))
    in
    Printf.printf "  %-22s %10.1f %10d %12d %12d %10d\n" name ms
      stats.Stats.overflows stats.Stats.words_copied
      stats.Stats.seg_alloc_words stats.Stats.cache_hits;
    (ms, med, Stats.copy stats)
  in
  let ms1, med1, st1 = measure Control.As_call1cc "implicit call/1cc" in
  let ms2, med2, st2 = measure Control.As_callcc "implicit call/cc" in
  record_run "e3.overflow-call1cc" ms1 st1 ~median:med1
    ~extra:[ ("overflows", J_int st1.Stats.overflows) ];
  record_run "e3.overflow-callcc" ms2 st2 ~median:med2
    ~extra:[ ("overflows", J_int st2.Stats.overflows) ];
  Printf.printf
    "  one-shot overflow: %.0fx less copying, %.0fx less allocation, %.0f%% \
     faster wall clock\n"
    (float_of_int st2.Stats.words_copied
    /. float_of_int (max 1 st1.Stats.words_copied))
    (float_of_int st2.Stats.seg_alloc_words
    /. float_of_int (max 1 st1.Stats.seg_alloc_words))
    ((ms2 -. ms1) /. ms2 *. 100.);
  note
    "  (paper: 300%% faster on native code where overflow cost dominates;\n\
    \   our interpreter dispatch mutes the wall-clock ratio -- the copy and\n\
    \   allocation counters carry the effect)\n"

(* ------------------------------------------------------------------ *)
(* E4: per-frame overhead, stack vs heap model                         *)
(* ------------------------------------------------------------------ *)

let e4 ~full () =
  header
    "E4 (Section 5): per-frame overhead, segmented stack vs heap frames \
     (Appel-Shao comparison)";
  ignore full;
  let workloads =
    [
      ("tak", "(tak 16 11 5)");
      ("fib", "(fib 18)");
      ("ack", "(ack 2 6)");
      ("queens", "(queens-count 7)");
      ("boyer", "(boyer-run 12)");
      ("cpstak", "(cpstak 14 10 5)");
      ("takl", "(takl 14 10 5)");
      ("div", "(div-bench 200 40)");
      ("destruct", "(destruct-bench 20 40 40)");
      ("mandel", "(mandel-count 24 30)");
      ("deep", "(deep-loop 2 20000)");
    ]
  in
  Printf.printf "  stack-allocation overhead per procedure call (words):\n";
  Printf.printf "  %-8s | %9s %9s %9s | %9s %9s %9s\n" "" "stack-VM" "copied"
    "closures" "heap-VM" "cow" "closures";
  let totals = ref (0., 0.) in
  let stack_ms = ref 0. and heap_ms = ref 0. and closure_ms = ref 0. in
  let stack_med = ref 0. and heap_med = ref 0. and closure_med = ref 0. in
  let stack_instrs = ref 0 and heap_instrs = ref 0 in
  let stack_copied_total = ref 0 and stack_alloc_total = ref 0 in
  let stack_hits_total = ref 0 in
  let closure_stats = Stats.create () in
  let heap_frame_words_total = ref 0 and heap_cow_total = ref 0 in
  List.iter
    (fun (name, src) ->
      let s, st = session () in
      let _, ms_s, med_s =
        time_ms ~reset:(fun () -> Stats.reset st) (fun () -> run s src)
      in
      let calls = float_of_int (max 1 st.Stats.calls) in
      let stack_w = float_of_int st.Stats.seg_alloc_words /. calls in
      let stack_copied = float_of_int st.Stats.words_copied /. calls in
      let stack_clos = float_of_int st.Stats.closures_made /. calls in
      let h, hst = heap_session () in
      let _, ms_h, med_h =
        time_ms ~reset:(fun () -> Stats.reset hst) (fun () -> run h src)
      in
      let hcalls = float_of_int (max 1 hst.Stats.calls) in
      let heap_w = float_of_int hst.Stats.heap_frame_words /. hcalls in
      let heap_cow = float_of_int hst.Stats.cow_copies /. hcalls in
      let heap_clos = float_of_int hst.Stats.closures_made /. hcalls in
      let c, cst = closure_session () in
      let _, ms_c, med_c =
        time_ms ~reset:(fun () -> Stats.reset cst) (fun () -> run c src)
      in
      totals := (fst !totals +. stack_w, snd !totals +. heap_w);
      stack_ms := !stack_ms +. ms_s;
      heap_ms := !heap_ms +. ms_h;
      closure_ms := !closure_ms +. ms_c;
      stack_med := !stack_med +. med_s;
      heap_med := !heap_med +. med_h;
      closure_med := !closure_med +. med_c;
      stack_instrs := !stack_instrs + st.Stats.instrs;
      heap_instrs := !heap_instrs + hst.Stats.instrs;
      stack_copied_total := !stack_copied_total + st.Stats.words_copied;
      stack_alloc_total := !stack_alloc_total + st.Stats.seg_alloc_words;
      stack_hits_total := !stack_hits_total + st.Stats.cache_hits;
      closure_stats.Stats.instrs <-
        closure_stats.Stats.instrs + cst.Stats.instrs;
      closure_stats.Stats.words_copied <-
        closure_stats.Stats.words_copied + cst.Stats.words_copied;
      closure_stats.Stats.seg_alloc_words <-
        closure_stats.Stats.seg_alloc_words + cst.Stats.seg_alloc_words;
      closure_stats.Stats.cache_hits <-
        closure_stats.Stats.cache_hits + cst.Stats.cache_hits;
      heap_frame_words_total :=
        !heap_frame_words_total + hst.Stats.heap_frame_words;
      heap_cow_total := !heap_cow_total + hst.Stats.cow_copies;
      Printf.printf "  %-8s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n" name
        stack_w stack_copied stack_clos heap_w heap_cow heap_clos)
    workloads;
  let med m = if !iters > 1 then [ ("ms_median", J_float m) ] else [] in
  record "e4.stack"
    ([ ("ms", J_float !stack_ms) ]
    @ med !stack_med
    @ [
        ("instrs", J_int !stack_instrs);
        ("words_copied", J_int !stack_copied_total);
        ("seg_alloc_words", J_int !stack_alloc_total);
        ("cache_hits", J_int !stack_hits_total);
      ]);
  record "e4.heap"
    ([ ("ms", J_float !heap_ms) ]
    @ med !heap_med
    @ [
        ("instrs", J_int !heap_instrs);
        ("heap_frame_words", J_int !heap_frame_words_total);
        ("cow_copies", J_int !heap_cow_total);
      ]);
  record_run "e4.closure" !closure_ms closure_stats ~median:!closure_med;
  let n = float_of_int (List.length workloads) in
  Printf.printf
    "  mean words/call: stack VM %.3f vs heap VM %.3f (paper: 0.1 vs 7.4 \
     instructions of per-frame overhead)\n"
    (fst !totals /. n) (snd !totals /. n);
  Printf.printf
    "  wall clock over the corpus: stack %.1f ms, closure %.1f ms (%.2fx), \
     heap %.1f ms\n"
    !stack_ms !closure_ms
    (!stack_ms /. Float.max 1e-9 !closure_ms)
    !heap_ms;
  if
    closure_stats.Stats.instrs <> !stack_instrs
    || closure_stats.Stats.words_copied <> !stack_copied_total
    || closure_stats.Stats.seg_alloc_words <> !stack_alloc_total
    || closure_stats.Stats.cache_hits <> !stack_hits_total
  then (
    Printf.eprintf
      "e4: closure-backend semantic counters diverged from the stack VM\n";
    exit 1)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let a1 ~full () =
  header
    "A1: segment cache on/off (paper: without it, call/1cc programs were \
     'unacceptably slow')";
  let nthreads, fib_n = if full then (100, 16) else (20, 13) in
  let freq = 4 in
  Printf.printf
    "  workload: %d call/1cc threads of (fib %d), switch every %d calls\n"
    nthreads fib_n freq;
  Printf.printf "  %-12s %10s %12s %12s %12s\n" "cache" "time(ms)"
    "alloc-segs" "alloc(w)" "cache-hits";
  List.iter
    (fun enabled ->
      let config =
        { Control.default_config with Control.cache_enabled = enabled }
      in
      let s, stats = session ~config () in
      let _, ms, med =
        time_ms
          ~reset:(fun () -> Stats.reset stats)
          (fun () ->
            run s
              (Printf.sprintf "(run-fib-threads %d %d %d %%call/1cc)" nthreads
                 fib_n freq))
      in
      Printf.printf "  %-12s %10.1f %12d %12d %12d\n"
        (if enabled then "enabled" else "disabled")
        ms stats.Stats.seg_allocs stats.Stats.seg_alloc_words
        stats.Stats.cache_hits;
      record_run
        (if enabled then "a1.cache-on" else "a1.cache-off")
        ms stats ~median:med
        ~extra:[ ("seg_allocs", J_int stats.Stats.seg_allocs) ])
    [ true; false ]

let a2 ~full () =
  header "A2: overflow hysteresis (copy-up) prevents bouncing";
  let depth = if full then 8_000 else 2_000 in
  Printf.printf
    "  workload: crawl to depth %d on 1K-word segments, oscillating 12 \
     frames at every depth -- oscillations that straddle a segment \
     boundary bounce unless the copied-up frames absorb them\n"
    depth;
  Printf.printf "  %-18s %10s %10s %12s\n" "hysteresis(words)" "time(ms)"
    "overflows" "copied(w)";
  List.iter
    (fun h ->
      let config =
        {
          Control.default_config with
          Control.seg_words = 1024;
          hysteresis_words = h;
        }
      in
      let s, stats = session ~config () in
      run s
        {|(define (wiggle n) (if (= n 0) 0 (+ 1 (wiggle (- n 1)))))
          (define (crawl n)
            (if (= n 0) 0 (begin (wiggle 12) (+ 1 (crawl (- n 1))))))|};
      let _, ms, med =
        time_ms
          ~reset:(fun () -> Stats.reset stats)
          (fun () -> run s (Printf.sprintf "(crawl %d)" depth))
      in
      Printf.printf "  %-18d %10.1f %10d %12d\n" h ms stats.Stats.overflows
        stats.Stats.words_copied;
      record_run
        (Printf.sprintf "a2.hysteresis-%d" h)
        ms stats ~median:med
        ~extra:[ ("overflows", J_int stats.Stats.overflows) ])
    [ 0; 16; 64; 256 ]

let a3 ~full () =
  header
    "A3: copy bound caps the latency of one multi-shot invocation (splitting)";
  let depth = if full then 4_000 else 1_000 in
  Printf.printf
    "  workload: capture at depth %d, then one invocation of the \
     continuation\n"
    depth;
  Printf.printf "  %-14s %10s %10s %16s\n" "copy-bound(w)" "splits" "invokes"
    "copied/invoke(w)";
  List.iter
    (fun bound ->
      let config =
        { Control.default_config with Control.copy_bound = bound }
      in
      let s, stats = session ~config () in
      (* Capture at depth, then escape without unwinding so the saved
         segment is still one unsplit block when we invoke it. *)
      run s
        (Printf.sprintf
           {|(define kk #f)
             (define (probe n)
               (if (= n 0)
                   (%%call/cc (lambda (c) (set! kk c) (%%escape 'captured)))
                   (+ 1 (probe (- n 1)))))
             (define %%escape #f)
             (%%call/cc (lambda (out) (set! %%escape out) (probe %d)))|}
           depth);
      Stats.reset stats;
      run s "(let ((k2 kk)) (set! kk #f) (if k2 (k2 0) 'done))";
      let invokes = max 1 stats.Stats.invokes_multi in
      Printf.printf "  %-14d %10d %10d %16.1f\n" bound stats.Stats.splits
        stats.Stats.invokes_multi
        (float_of_int stats.Stats.words_copied /. float_of_int invokes);
      record
        (Printf.sprintf "a3.bound-%d" bound)
        [
          ("splits", J_int stats.Stats.splits);
          ("words_copied", J_int stats.Stats.words_copied);
        ])
    [ 32; 128; 512; 4096 ]

let a4 ~full () =
  header
    "A4 (Section 3.4): one-shot fragmentation -- whole-segment vs \
     seal-displacement";
  let held = if full then 100 else 32 in
  Printf.printf
    "  workload: %d nested live one-shot captures (idle threads); resident \
     stack words\n"
    held;
  Printf.printf "  %-24s %14s %14s\n" "seal policy" "live words" "per capture";
  List.iter
    (fun (name, seal) ->
      let config =
        { Control.default_config with Control.oneshot_seal = seal }
      in
      let s, _ = session ~config () in
      (* Hold [held] live one-shot captures (parked threads), escaping
         from the bottom so none of them is consumed. *)
      run s
        (Printf.sprintf
           {|(define ks '())
             (define %%out #f)
             (define (hold n)
               (if (= n 0)
                   (%%out 'parked)
                   ;; non-tail: each capture encapsulates a live segment
                   (+ 1 (%%call/1cc (lambda (k)
                     (set! ks (cons k ks))
                     (hold (- n 1)))))))
             (%%call/cc (lambda (o) (set! %%out o) (hold %d)))|}
           held);
      let live =
        match Globals.lookup_opt (Scheme.globals s) "ks" with
        | Some v ->
            List.fold_left
              (fun acc k ->
                match k with
                | Rt.Cont { sr; _ } -> acc + max sr.Rt.size 0
                | _ -> acc)
              0
              (Values.list_of_value v)
        | None -> 0
      in
      Printf.printf "  %-24s %14d %14.1f\n" name live
        (float_of_int live /. float_of_int held);
      record
        (match seal with
        | Control.Whole_segment -> "a4.whole-segment"
        | Control.Seal_displacement _ -> "a4.seal-displacement")
        [ ("live_words", J_int live) ])
    [
      ("whole segment", Control.Whole_segment);
      ("seal displacement 256", Control.Seal_displacement 256);
    ];
  note
    "  (paper: 100 threads on 16KB default segments occupy 1.6MB unless the\n\
    \   segment is sealed at a fixed displacement above the occupied part)\n"

let a5 ~full () =
  header "A5 (Section 3.3): promotion cost -- eager chain walk vs shared flag";
  let chain = if full then 10_000 else 2_000 in
  Printf.printf
    "  workload: call/cc capturing above %d live one-shot records\n" chain;
  Printf.printf "  %-14s %12s %12s\n" "strategy" "time(us)" "promotions";
  List.iter
    (fun (name, strategy) ->
      let config =
        { Control.default_config with Control.promotion = strategy }
      in
      let s, stats = session ~config () in
      run s
        (Printf.sprintf
           {|(define (nest n thunk)
               (if (= n 0)
                   (thunk)
                   ;; non-tail capture: every level creates a live record
                   (+ 1 (%%call/1cc (lambda (k) (nest (- n 1) thunk))))))
             (define (measure)
               (nest %d (lambda () (%%call/cc (lambda (m) 0)))))|}
           chain);
      let _, ms, med =
        time_ms
          ~reset:(fun () -> Stats.reset stats)
          (fun () -> run s "(measure)")
      in
      Printf.printf "  %-14s %12.1f %12d\n" name (ms *. 1000.)
        stats.Stats.promotions;
      record
        ("a5." ^ name)
        ([ ("ms", J_float ms) ]
        @ (if !iters > 1 then [ ("ms_median", J_float med) ] else [])
        @ [ ("promotions", J_int stats.Stats.promotions) ]))
    [ ("eager", Control.Eager); ("shared-flag", Control.Shared_flag) ]

let a6 ~full () =
  header
    "A6 (extension): capture strategy -- paper's zero-copy sealing vs the      classic eager copy-on-capture";
  let x, y, z = if full then (18, 12, 6) else (16, 11, 5) in
  Printf.printf
    "  workload: (ctak %d %d %d) with %%call/cc -- a capture at every call\n"
    x y z;
  Printf.printf "  %-18s %10s %14s %14s\n" "capture strategy" "time(ms)"
    "copied@capture" "copied@invoke";
  List.iter
    (fun (name, strategy) ->
      let config =
        { Control.default_config with Control.capture = strategy }
      in
      let s, stats = session ~config () in
      run s "(set! ctak-capture %call/cc)";
      run s (Printf.sprintf "(ctak %d %d %d)" (x - 2) (y - 2) (z - 1));
      let _, ms, med =
        time_ms
          ~reset:(fun () -> Stats.reset stats)
          (fun () -> run s (Printf.sprintf "(ctak %d %d %d)" x y z))
      in
      (* under Seal, all copying happens at invocation; under
         Copy_on_capture, words_copied counts both directions -- report
         capture-side copying as total minus the invoke-side share, which
         for ctak is symmetric *)
      Printf.printf "  %-18s %10.1f %14s %14d\n" name ms
        (match strategy with
        | Control.Seal -> "0"
        | Control.Copy_on_capture -> string_of_int (stats.Stats.words_copied / 2))
        (match strategy with
        | Control.Seal -> stats.Stats.words_copied
        | Control.Copy_on_capture -> stats.Stats.words_copied / 2);
      record_run
        (match strategy with
        | Control.Seal -> "a6.seal"
        | Control.Copy_on_capture -> "a6.copy-on-capture")
        ms stats ~median:med)
    [ ("seal (paper)", Control.Seal); ("copy-on-capture", Control.Copy_on_capture) ]

(* ------------------------------------------------------------------ *)
(* E5: dynamic-wind -- deep wind/unwind with escaping one-shot         *)
(* continuations (tracks the native winder protocol of PR 3)           *)
(* ------------------------------------------------------------------ *)

let e5_defs =
  {scheme|
(define (wind-escape depth)
  (call/1cc
   (lambda (k)
     (let loop ((d depth))
       (if (= d 0)
           (k 'out)
           (dynamic-wind
            (lambda () #t)
            (lambda () (loop (- d 1)))
            (lambda () #t)))))))

(define (wind-escape-loop times depth)
  (if (= times 0)
      'done
      (begin (wind-escape depth) (wind-escape-loop (- times 1) depth))))
|scheme}

let e5 ~full () =
  header
    "E5: dynamic-wind -- deep wind/unwind, one-shot escape through the \
     winder chain";
  let times, depth = if full then (2_000, 100) else (200, 50) in
  Printf.printf
    "  workload: %d escapes, each entering %d nested dynamic-winds and \
     escaping\n  through all of them with a call/1cc continuation (%d \
     guard thunks/escape)\n"
    times depth (2 * depth);
  let measure name scheme_winders =
    let stats = Stats.create () in
    let s =
      Scheme.create
        ~backend:(Scheme.Stack Control.default_config)
        ~stats ~scheme_winders ()
    in
    Scheme.load_corpus s;
    run s e5_defs;
    run s (Printf.sprintf "(wind-escape-loop %d %d)" (times / 10) depth);
    let _, ms, med =
      time_ms
        ~reset:(fun () -> Stats.reset stats)
        (fun () -> run s (Printf.sprintf "(wind-escape-loop %d %d)" times depth))
    in
    Printf.printf "  %-16s %10.1f ms %12d instrs %10d captures %10d closures\n"
      name ms stats.Stats.instrs
      (stats.Stats.captures_multi + stats.Stats.captures_oneshot)
      stats.Stats.closures_made;
    (ms, med, Stats.copy stats)
  in
  let ms_n, med_n, st_n = measure "native" false in
  let ms_s, med_s, st_s = measure "scheme-winders" true in
  let extra (st : Stats.t) =
    [
      ("captures", J_int (st.Stats.captures_multi + st.Stats.captures_oneshot));
      ("closures_made", J_int st.Stats.closures_made);
    ]
  in
  record_run "e5.dynamic-wind" ms_n st_n ~median:med_n ~extra:(extra st_n);
  record_run "e5.dynamic-wind-scheme" ms_s st_s ~median:med_s
    ~extra:(extra st_s);
  Printf.printf
    "  native winders: %.0f%% faster than the Scheme-level protocol\n"
    ((ms_s -. ms_n) /. ms_s *. 100.)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "micro: Bechamel benchmarks of the control primitives";
  let open Bechamel in
  (* Compile once; each run re-executes the compiled form, so the numbers
     measure the control operations, not the reader/compiler. *)
  let make_test name src =
    let vm = Vm.create () in
    ignore (Vm.eval vm Prelude.source);
    ignore (Vm.eval vm Programs.all_defs);
    ignore (Vm.eval vm Threads.scheduler);
    let codes = Compiler.compile_string (Vm.globals vm) src in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Vm.run_program vm codes)))
  in
  let tests =
    [
      make_test "capture+invoke %call/cc" "(%call/cc (lambda (k) (k 1)))";
      make_test "capture+invoke %call/1cc" "(%call/1cc (lambda (k) (k 1)))";
      make_test "capture-only %call/cc" "(%call/cc (lambda (k) 1))";
      make_test "capture-only %call/1cc" "(%call/1cc (lambda (k) 1))";
      make_test "plain call baseline" "((lambda (x) x) 1)";
      make_test "thread switch pair (1cc)"
        "(run-threads (list (lambda () 1) (lambda () 2)) 1000 %call/1cc)";
      make_test "engine slice" "(engine-run-to-completion 64 (make-engine (lambda () (fib 8))))";
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ e ] -> Printf.printf "  %-32s %12.1f ns/run\n" name e
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all ~full () =
  e1 ~full ();
  e2 ~full ();
  e3 ~full ();
  e4 ~full ();
  e5 ~full ();
  a1 ~full ();
  a2 ~full ();
  a3 ~full ();
  a4 ~full ();
  a5 ~full ();
  a6 ~full ()

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" argv in
  let rec json_path = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> json_path rest
    | [] -> None
  in
  let json = json_path argv in
  let rec iters_arg = function
    | "--iters" :: n :: _ -> (
        match int_of_string_opt n with
        | Some k when k >= 1 -> k
        | _ ->
            Printf.eprintf "--iters expects a positive integer, got %s\n" n;
            exit 1)
    | _ :: rest -> iters_arg rest
    | [] -> 1
  in
  iters := iters_arg argv;
  let rec positional = function
    | [] -> []
    | "--full" :: rest -> positional rest
    | "--json" :: _ :: rest -> positional rest
    | "--iters" :: _ :: rest -> positional rest
    | x :: rest -> x :: positional rest
  in
  let which = match positional argv with [] -> "all" | x :: _ -> x in
  Printf.printf "oneshot-continuations benchmark harness (%s mode%s)\n"
    (if full then "full/paper-scale" else "quick")
    (if !iters > 1 then
       Printf.sprintf ", %d iterations/measurement, reporting min + median"
         !iters
     else "");
  (match which with
  | "e1" -> e1 ~full ()
  | "e2" -> e2 ~full ()
  | "e3" -> e3 ~full ()
  | "e4" -> e4 ~full ()
  | "e5" -> e5 ~full ()
  | "a1" -> a1 ~full ()
  | "a2" -> a2 ~full ()
  | "a3" -> a3 ~full ()
  | "a4" -> a4 ~full ()
  | "a5" -> a5 ~full ()
  | "a6" -> a6 ~full ()
  | "micro" -> micro ()
  | "all" ->
      all ~full ();
      micro ()
  | other ->
      Printf.eprintf
        "unknown experiment %s (expected e1..e5, a1..a6, micro, all)\n"
        other;
      exit 1);
  match json with
  | Some path ->
      write_json ~full path;
      Printf.printf "\nwrote %s\n" path
  | None -> ()
