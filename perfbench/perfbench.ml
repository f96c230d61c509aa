(* The benchmark's measuring program.  run.py drives it; each mode is one
   process:

     perfbench refs  --workload W --seed N          expected value per job
     perfbench setup --workload W                   one cold set-up, seconds
     perfbench run   --workload W --seed N --seconds T   < refs
     perfbench trace --workload W --seed N               < refs

   [run] is the closed loop with one client and tracing off: jobs go
   back to back through [Scheme.eval] and every result is checked.
   [trace] replays the same round twice — once through [Scheme.eval],
   once through the public entry point of each layer with a span around
   each call — and requires the two replays to count the same engine and
   control events.  Both print one JSON object as their last line. *)

open Jobs

let now = Unix.gettimeofday

(* Words allocated so far on the OCaml heap: minor + major - promoted,
   so a promoted word is not counted twice.  [Gc.minor_words] is exact;
   the major and promoted totals advance at minor collections, so they
   are exact only over spans that contain many of them. *)
let alloc_words () =
  let q = Gc.quick_stat () in
  Gc.minor_words () +. q.Gc.major_words -. q.Gc.promoted_words

(* ---- command line ---- *)

let mode, workload, seed, seconds =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | [] -> ()
    | a :: _ -> failwith ("unexpected argument: " ^ a)
  in
  go (List.tl (List.tl (Array.to_list Sys.argv)));
  (mode, workload_of_string !workload, !seed, !seconds)

(* ---- results and references ---- *)

let render_result f =
  match f () with
  | v -> Values.write_string v
  | exception e -> "!error " ^ String.map (function '\n' -> ' ' | c -> c) (Printexc.to_string e)

let read_refs n = Array.init n (fun _ -> input_line stdin)

let check expected got = got = expected && String.length got > 0 && got.[0] <> '!'

(* ---- sessions ---- *)

let new_session w =
  let s = Scheme.create ~backend:(backend w) () in
  if uses_corpus w then Scheme.load_corpus s;
  s

(* Run one job the way a user would: on the workload's persistent
   session, or (compile) on a fresh one per job, as [schemer file.scm]. *)
let eval_job w session job =
  let s = match session with Some s -> s | None -> Scheme.create ~backend:(backend w) () in
  Scheme.eval s job.src

(* ---- JSON output ---- *)

let json_num x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~attempted ~failed ~ok metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok
    attempted failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) metrics))

(* ---- self-checks ---- *)

(* The same seed gives a byte-identical round, another seed a different
   one, and a planted wrong expected value is counted as a failure. *)
let self_check refs jobs =
  let listing_ok =
    listing (round workload seed) = listing jobs
    && listing (round workload (seed + 1)) <> listing jobs
  in
  let job = List.hd jobs in
  let session = if fresh_session_per_job workload then None else Some (new_session workload) in
  let got = render_result (fun () -> eval_job workload session job) in
  let planted_ok = check refs.(0) got && not (check (refs.(0) ^ "0") got) in
  if not listing_ok then prerr_endline "self-check: round is not a function of the seed";
  if not planted_ok then prerr_endline "self-check: planted wrong reference not detected";
  listing_ok && planted_ok

(* ---- refs ---- *)

let refs_mode () =
  let oracle () = Scheme.create ~backend:Oracle ~corpus:(uses_corpus workload) () in
  let shared = lazy (oracle ()) in
  List.iter
    (fun job ->
      let expected =
        match job.reference with
        | Native s -> s
        | By_oracle ->
            let o = if fresh_session_per_job workload then oracle () else Lazy.force shared in
            render_result (fun () -> Scheme.eval o job.src)
      in
      print_endline expected)
    (round workload seed)

(* ---- setup ---- *)

let setup_mode () =
  let t0 = now () in
  ignore (new_session workload);
  Printf.printf "%.9f\n" (now () -. t0)

(* ---- closed loop ---- *)

let percentile sorted p =
  let n = Array.length sorted in
  let x = p *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i + 1 >= n then sorted.(n - 1)
  else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* Host speed.  The shared host this benchmark was defined on runs the
   same code up to 1.7 times faster or slower from one minute to the
   next, which would swamp any change worth detecting.  So the loop
   times a fixed native kernel between jobs (calls and branches: fib and
   tak in OCaml, no allocation, no library code — no change to the
   system under test can move it), and reports the timing metrics at
   the reference speed at which the kernel takes [kernel_ref_s].  Each
   one-second window's job times are scaled by [kernel_ref_s / median
   kernel time in that window]; the raw figures are printed too. *)
let kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (fib 21 + tak 12 8 4));
  now () -. t0

(* Near the kernel's median on the 2-vCPU Intel Xeon host the benchmark
   was defined on; it only fixes the unit. *)
let kernel_ref_s = 80e-6

let kernel_every_s = 0.005 (* of job time *)
let window_s = 1.0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let run_mode () =
  let jobs = Array.of_list (round workload seed) in
  let n = Array.length jobs in
  let refs = read_refs n in
  let checks_ok = self_check refs (Array.to_list jobs) in
  let session = if fresh_session_per_job workload then None else Some (new_session workload) in
  let attempt i =
    let job = jobs.(i mod n) in
    let t0 = now () in
    let got = render_result (fun () -> eval_job workload session job) in
    let t1 = now () in
    (t1 -. t0, check refs.(i mod n) got)
  in
  (* Warm-up: one pass over the round (capped at a quarter of the
     measured time) fills the segment cache and the OCaml heap. *)
  let warm_until = now () +. (seconds /. 4.) in
  let i = ref 0 in
  while !i < n && now () < warm_until do
    ignore (attempt !i);
    incr i
  done;
  let attempted = ref 0 and failed = ref 0 in
  let raw = ref [] and scaled = ref [] and kernel_ms = ref [] in
  let window = ref [] and samples = ref [] and since = ref 0. in
  let close_window () =
    if !samples = [] then samples := [ kernel () ];
    let k = median !samples in
    kernel_ms := (1000. *. k) :: !kernel_ms;
    List.iter (fun dt -> raw := dt :: !raw; scaled := (dt *. kernel_ref_s /. k) :: !scaled) !window;
    window := [];
    samples := []
  in
  (* The heap's high-water mark keeps creeping up, slowly, for as long
     as the loop runs, so it is read after a fixed amount of work — two
     measured rounds — not after a fixed time, which would make it
     depend on the host's speed. *)
  let peak_words = ref None in
  let a0 = alloc_words () in
  let t0 = now () in
  let deadline = t0 +. seconds and window_end = ref (t0 +. window_s) in
  while now () < deadline do
    let dt, ok = attempt !attempted in
    window := dt :: !window;
    incr attempted;
    if not ok then incr failed;
    if !attempted = 2 * n then peak_words := Some (Gc.quick_stat ()).Gc.top_heap_words;
    since := !since +. dt;
    if !since >= kernel_every_s then begin
      since := 0.;
      samples := kernel () :: !samples
    end;
    if now () >= !window_end then begin
      close_window ();
      window_end := !window_end +. window_s
    end
  done;
  close_window ();
  let a1 = alloc_words () in
  let peak_words =
    match !peak_words with Some w -> w | None -> (Gc.quick_stat ()).Gc.top_heap_words
  in
  let jobs_done = float_of_int !attempted in
  let summary l =
    let a = Array.of_list l in
    Array.sort compare a;
    (jobs_done /. Array.fold_left ( +. ) 0. a, 1000. *. percentile a 0.5, 1000. *. percentile a 0.95)
  in
  let rate, p50, p95 = summary !scaled and raw_rate, raw_p50, raw_p95 = summary !raw in
  Printf.printf
    "{\"latency_samples\": %d, \"round_jobs\": %d, \"kernel_ms_p50\": %.6f, \
     \"raw_jobs_per_s\": %.3f, \"raw_job_ms_p50\": %.6f, \"raw_job_ms_p95\": %.6f, \
     \"backend\": %S, \"ocaml\": %S}\n"
    !attempted n (median !kernel_ms) raw_rate raw_p50 raw_p95 (backend_name workload)
    Sys.ocaml_version;
  print_result ~attempted:!attempted ~failed:!failed ~ok:(checks_ok && !failed = 0)
    [ ("jobs_per_s", rate);
      ("job_ms_p50", p50);
      ("job_ms_p95", p95);
      ("alloc_words_per_job", (a1 -. a0) /. jobs_done);
      ("peak_heap_mb",
       float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.) ]

(* ---- traced replay ---- *)

(* Span accumulators, one per layer metric. *)
let ms = Hashtbl.create 16
let alloc = Hashtbl.create 16
let count = Hashtbl.create 16
let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let span name f =
  let a0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  bump ms name ((t1 -. t0) *. 1000.);
  bump alloc name (alloc_words () -. a0);
  r

(* The traced session: the machine [Scheme.create] builds for this
   backend, constructed here so each layer can be called directly.  The
   counter-equality check against the [Scheme.eval] replay catches any
   drift between this mirror and [Scheme.create]. *)
type machine = Stack_m of Vm.t | Closure_m of Closurevm.t

let image () =
  Prelude_image.get ~scheme_winders:false ~optimize:false ~peephole:true ~regalloc:true

let traced_session stats =
  let config = Control.default_config in
  let m =
    match backend workload with
    | Scheme.Closure _ -> Closure_m (Closurevm.create ~config ~stats ())
    | _ -> Stack_m (Vm.create ~config ~stats ())
  in
  let globals = match m with Stack_m vm -> Vm.globals vm | Closure_m vm -> Closurevm.globals vm in
  Prelude_image.install (image ()) globals;
  if uses_corpus workload then
    List.iter
      (fun src ->
        ignore
          (match m with
          | Stack_m vm -> Vm.eval vm src
          | Closure_m vm -> Closurevm.eval vm src))
      [ Programs.all_defs; Threads.scheduler; Cml.source ];
  m

let is_fused : Rt.instr -> bool = function
  | Const_push _ | Local_push _ | Free_push _ | Global_push _ | Prim_call _ | Prim_call1 _
  | Prim_call2 _ | Prim_tail_call _ | Local_branch_false _ | Prim_branch1 _ | Prim_branch2 _
  | Prim_call1_op _ | Prim_call2_op _ | Prim_branch1_op _ | Prim_branch2_op _ | Prim_tail1_op _
  | Prim_tail2_op _ | Return_op _ ->
      true
  | _ -> false

let all_codes codes = List.fold_left Bytecode.collect_codes [] codes

let count_instrs p codes =
  List.fold_left
    (fun acc (c : Rt.code) ->
      Array.fold_left (fun acc i -> if p i then acc + 1 else acc) acc c.instrs)
    0 (all_codes codes)

(* One job through the layers, each call inside its span. *)
let traced_job m src =
  let menv, globals =
    match m with
    | Stack_m vm -> (vm.Engine.menv, vm.Engine.globals)
    | Closure_m vm -> (vm.Engine.menv, vm.Engine.globals)
  in
  bump count "sexp.bytes" (float_of_int (String.length src));
  let datums = span "sexp" (fun () -> Sexp.read_all src) in
  let tops = span "frontend" (fun () -> Expander.expand_program ~hygiene:true ~menv datums) in
  bump count "frontend.tops" (float_of_int (List.length tops));
  let codes = span "compiler" (fun () -> Compiler.compile_program globals tops) in
  bump count "compiler.instrs_emitted" (float_of_int (count_instrs (fun _ -> true) codes));
  let codes = span "optimize" (fun () -> Optimize.peephole_program ~regalloc:true globals codes) in
  bump count "optimize.fused_sites" (float_of_int (count_instrs is_fused codes));
  match m with
  | Stack_m vm -> span "vm.run" (fun () -> Vm.run_program vm codes)
  | Closure_m vm ->
      span "closurevm.template" (fun () -> Closurevm.precompile codes);
      span "closurevm.run" (fun () -> Closurevm.run_program vm codes)

(* Replay [jobs] untraced through [Scheme.eval]; the session's counters
   cover the jobs only (reset after set-up). *)
let untraced_pass w jobs refs =
  let stats = Stats.create () in
  let fresh = fresh_session_per_job w in
  let session =
    if fresh then None
    else begin
      let s = Scheme.create ~backend:(backend w) ~stats () in
      if uses_corpus w then Scheme.load_corpus s;
      Stats.reset stats;
      Some s
    end
  in
  let failed = ref 0 and per_kind = Hashtbl.create 8 in
  let a0 = alloc_words () in
  let t0 = now () in
  List.iteri
    (fun i job ->
      let tj = now () in
      let s =
        match session with Some s -> s | None -> Scheme.create ~backend:(backend w) ~stats ()
      in
      if not (check refs.(i) (render_result (fun () -> Scheme.eval s job.src))) then incr failed;
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt per_kind job.kind) in
      Hashtbl.replace per_kind job.kind (c + 1, t +. now () -. tj))
    jobs;
  let dt = now () -. t0 in
  (stats, dt, alloc_words () -. a0, !failed, per_kind)

let traced_pass jobs refs =
  let stats = Stats.create () in
  let fresh = fresh_session_per_job workload in
  let session =
    if fresh then None
    else begin
      let m = span "scheme.setup" (fun () -> traced_session stats) in
      Stats.reset stats;
      Some m
    end
  in
  let failed = ref 0 in
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  List.iteri
    (fun i job ->
      let m =
        match session with
        | Some m -> m
        | None -> span "scheme.create" (fun () -> traced_session stats)
      in
      if not (check refs.(i) (render_result (fun () -> traced_job m job.src))) then incr failed)
    jobs;
  let dt = now () -. t0 in
  let q1 = Gc.quick_stat () in
  (stats, dt, q0, q1, !failed)

(* Counters that must agree between the two replays: everything but the
   template counters, which [Closurevm.precompile] does not record. *)
let compared = List.filter (fun c -> c <> "tmpl-codes" && c <> "tmpl-steps") Stats.names

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The paper's E1 comparison: the shared job shapes (multi-shot-only
   kinds left out) under %call/cc against %call/1cc. *)
let e1_summary () =
  let pass op =
    let jobs = List.map (render op) (shapes seed) in
    let refs = Array.of_list (List.map (fun j -> match j.reference with Native s -> s | By_oracle -> "") jobs) in
    let stats, dt, words, failed, _ = untraced_pass Oneshot jobs refs in
    (dt, words, stats.Stats.seg_alloc_words, stats.Stats.instrs, failed)
  in
  (* ABBA order, summed, so neither operator always runs first. *)
  let t1, w1, s1, i1, f1 = pass "%call/1cc" in
  let tm, wm, sm, im, fm = pass "%call/cc" in
  let tm', wm', sm', im', fm' = pass "%call/cc" in
  let t1', w1', s1', i1', f1' = pass "%call/1cc" in
  Printf.printf
    "E1 on seed %d, multishot/oneshot over the shared job shapes: jobs_per_s %.3f, \
     alloc_words_per_job %.3f, control.seg_alloc_words %.3f, engine.instrs %.4f, failures %d \
     (paper: call/1cc 13%% faster and 23%% less allocation than call/cc)\n"
    seed ((t1 +. t1') /. (tm +. tm')) ((wm +. wm') /. (w1 +. w1')) (ratio (sm + sm') (s1 + s1'))
    (ratio (im + im') (i1 + i1')) (f1 + fm + fm' + f1')

let trace_mode () =
  ignore (span "scheme.prelude_image" image);
  let jobs = round workload seed in
  let refs = read_refs (List.length jobs) in
  let checks_ok = self_check refs jobs in
  (* A discarded warm-up replay, then the untraced and the traced one:
     their time ratio is the tracing overhead. *)
  ignore (untraced_pass workload jobs refs);
  let u_stats, u_dt, _, u_failed, per_kind = untraced_pass workload jobs refs in
  let t_stats, t_dt, q0, q1, t_failed = traced_pass jobs refs in
  let mismatched =
    List.filter (fun c -> Stats.get u_stats c <> Stats.get t_stats c) compared
  in
  List.iter
    (fun c ->
      Printf.eprintf "trace: counter %s differs: Scheme.eval %d, traced %d\n" c
        (Stats.get u_stats c) (Stats.get t_stats c))
    mismatched;
  let st = t_stats in
  let multishot_ok =
    workload <> Multishot || (st.Stats.splits > 0 && st.Stats.unseals > 0 && st.Stats.promotions > 0)
  in
  if not multishot_ok then prerr_endline "trace: multishot left splits, unseals or promotions at 0";
  let n = List.length jobs in
  let job_layers =
    [ "scheme.create"; "sexp"; "frontend"; "compiler"; "optimize"; "closurevm.template";
      "closurevm.run"; "vm.run" ]
  in
  let total = List.fold_left (fun s l -> s +. get ms l) 0. job_layers in
  let run_ms = get ms "vm.run" +. get ms "closurevm.run" +. get ms "closurevm.template" in
  let front_ms = get ms "sexp" +. get ms "frontend" +. get ms "compiler" +. get ms "optimize" in
  let per_instr run = if st.Stats.instrs = 0 then 0. else run *. 1e6 /. float_of_int st.Stats.instrs in
  let i x = float_of_int x in
  let failed = u_failed + t_failed in
  if workload = Oneshot || workload = Multishot then e1_summary ();
  Printf.printf
    "{\"round_jobs\": %d, \"untraced_s\": %.6f, \"traced_s\": %.6f, \"backend\": %S, \"ocaml\": %S, \"kind_ms\": {%s}}\n"
    n u_dt t_dt (backend_name workload) Sys.ocaml_version
    (String.concat ", "
       (Hashtbl.fold
          (fun k (c, t) acc -> Printf.sprintf "%S: {\"jobs\": %d, \"mean_ms\": %.3f}" k c (1000. *. t /. float_of_int c) :: acc)
          per_kind []));
  print_result ~attempted:(2 * n) ~failed
    ~ok:(checks_ok && failed = 0 && mismatched = [] && multishot_ok)
    [ ("scheme.prelude_image_ms", get ms "scheme.prelude_image");
      ("scheme.create_ms", get ms "scheme.setup" +. get ms "scheme.create");
      ("sexp.ms", get ms "sexp"); ("sexp.alloc_words", get alloc "sexp");
      ("sexp.bytes", get count "sexp.bytes");
      ("frontend.ms", get ms "frontend"); ("frontend.alloc_words", get alloc "frontend");
      ("frontend.tops", get count "frontend.tops");
      ("compiler.ms", get ms "compiler"); ("compiler.alloc_words", get alloc "compiler");
      ("compiler.instrs_emitted", get count "compiler.instrs_emitted");
      ("optimize.ms", get ms "optimize"); ("optimize.alloc_words", get alloc "optimize");
      ("optimize.fused_sites", get count "optimize.fused_sites");
      ("closurevm.template_ms", get ms "closurevm.template");
      ("closurevm.run_ms", get ms "closurevm.run");
      ("closurevm.ns_per_instr", per_instr (get ms "closurevm.run"));
      ("closurevm.tmpl_steps", i u_stats.Stats.tmpl_steps);
      ("vm.run_ms", get ms "vm.run"); ("vm.ns_per_instr", per_instr (get ms "vm.run"));
      ("vm.run_alloc_words", get alloc "vm.run");
      ("engine.instrs", i st.Stats.instrs); ("engine.calls", i st.Stats.calls);
      ("engine.frames", i st.Stats.frames); ("engine.prim_calls", i st.Stats.prim_calls);
      ("engine.prim_fast", i st.Stats.prim_fast);
      ("engine.prim_fast_ratio", ratio st.Stats.prim_fast st.Stats.prim_calls);
      ("control.captures_oneshot", i st.Stats.captures_oneshot);
      ("control.captures_multi", i st.Stats.captures_multi);
      ("control.invokes_oneshot", i st.Stats.invokes_oneshot);
      ("control.invokes_multi", i st.Stats.invokes_multi);
      ("control.words_copied", i st.Stats.words_copied);
      ("control.seg_allocs", i st.Stats.seg_allocs);
      ("control.seg_alloc_words", i st.Stats.seg_alloc_words);
      ("control.cache_hits", i st.Stats.cache_hits);
      ("control.cache_class_misses", i st.Stats.cache_class_misses);
      ("control.cache_hit_ratio", ratio st.Stats.cache_hits (st.Stats.cache_hits + st.Stats.seg_allocs));
      ("control.overflows", i st.Stats.overflows); ("control.underflows", i st.Stats.underflows);
      ("control.splits", i st.Stats.splits); ("control.unseals", i st.Stats.unseals);
      ("control.promotions", i st.Stats.promotions);
      ("gc.minor_words", q1.Gc.minor_words -. q0.Gc.minor_words);
      ("gc.promoted_words", q1.Gc.promoted_words -. q0.Gc.promoted_words);
      ("gc.major_collections", i (q1.Gc.major_collections - q0.Gc.major_collections));
      ("trace.overhead", t_dt /. u_dt);
      ("trace.run_share", run_ms /. total);
      ("trace.front_share", front_ms /. total);
      ("error_rate", float_of_int failed /. float_of_int (2 * n)) ]

let () =
  match mode with
  | "refs" -> refs_mode ()
  | "setup" -> setup_mode ()
  | "run" -> run_mode ()
  | "trace" -> trace_mode ()
  | "list" -> print_string (listing (round workload seed))
  | m -> failwith ("unknown mode: " ^ m)
