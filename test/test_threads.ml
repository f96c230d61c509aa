(* Thread systems and engines: the machinery behind Figure 5. *)

let case = Tutil.case

let run_stack ?(config = Control.default_config) src =
  let stats = Stats.create () in
  let s = Scheme.create ~backend:(Scheme.Stack config) ~stats () in
  Scheme.load_corpus s;
  let v = Scheme.eval_string ~fuel:Tutil.default_fuel s src in
  (v, stats, s)

let check_result name src expected =
  case name (fun () ->
      let v, _, _ = run_stack src in
      Alcotest.(check string) src expected v)

let fib_expected n =
  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
  fib n

let suite =
  [
    (* timer basics *)
    check_result "timer fires and handler runs"
      {|(let ((hits 0))
          (define (handler) (set! hits (+ hits 1)))
          (%set-timer! 3 handler)
          (fib 10)
          (%set-timer! 0 handler)
          (> hits 0))|}
      "#t";
    check_result "timer disabled does not fire"
      {|(let ((hits 0))
          (define (handler) (set! hits (+ hits 1)))
          (%set-timer! 0 handler)
          (fib 8)
          hits)|}
      "0";
    check_result "get-timer reads remaining ticks"
      {|(begin
          (%set-timer! 1000 (lambda () 'never))
          (fib 5)
          (let ((left (%get-timer)))
            (%set-timer! 0 (lambda () 'never))
            (and (> left 0) (< left 1000))))|}
      "#t";
    (* scheduler: correctness of results under preemption *)
    check_result "threads compute correct results"
      {|(let ((results (make-vector 3 #f)))
          (run-threads
           (list (lambda () (vector-set! results 0 (fib 10)))
                 (lambda () (vector-set! results 1 (tak 8 5 2)))
                 (lambda () (vector-set! results 2 (ack 2 3))))
           7 %call/1cc)
          results)|}
      (Printf.sprintf "#(%d 5 9)" (fib_expected 10));
    check_result "threads with call/cc capture"
      {|(let ((results (make-vector 2 #f)))
          (run-threads
           (list (lambda () (vector-set! results 0 (fib 9)))
                 (lambda () (vector-set! results 1 (fib 8))))
           3 %call/cc)
          results)|}
      (Printf.sprintf "#(%d %d)" (fib_expected 9) (fib_expected 8));
    check_result "threads interleave"
      {|(let ((trace '()))
          (define (spin tag n)
            (if (= n 0)
                (set! trace (cons tag trace))
                (begin (fib 5) (spin tag (- n 1)))))
          (run-threads
           (list (lambda () (spin 'a 4)) (lambda () (spin 'b 4)))
           5 %call/1cc)
          ;; both finished
          (list (if (memq 'a trace) #t #f) (if (memq 'b trace) #t #f)
                (length trace)))|}
      "(#t #t 2)";
    check_result "empty thread list" "(run-threads '() 4 %call/1cc)" "all-done";
    check_result "single thread no preemption needed"
      "(let ((r #f)) (run-threads (list (lambda () (set! r 'ran))) 1000000 %call/1cc) r)"
      "ran";
    check_result "run-fib-threads call/1cc" "(run-fib-threads 5 10 4 %call/1cc)"
      "all-done";
    check_result "run-fib-threads call/cc" "(run-fib-threads 5 10 4 %call/cc)"
      "all-done";
    check_result "run-fib-threads freq 1" "(run-fib-threads 3 8 1 %call/1cc)"
      "all-done";
    check_result "cps threads" "(run-cps-fib-threads 5 10 4)" "all-done";
    check_result "cps threads freq 1" "(run-cps-fib-threads 3 8 1)" "all-done";
    (* shape facts the paper relies on *)
    case "one-shot threads copy nothing" (fun () ->
        let _, st, _ = run_stack "(run-fib-threads 4 10 2 %call/1cc)" in
        Alcotest.(check int) "words copied" 0 st.Stats.words_copied;
        Alcotest.(check bool) "many one-shot switches" true
          (st.Stats.invokes_oneshot > 50));
    case "multi-shot threads copy per switch" (fun () ->
        let _, st, _ = run_stack "(run-fib-threads 4 10 2 %call/cc)" in
        Alcotest.(check bool) "copied" true (st.Stats.words_copied > 0);
        Alcotest.(check bool) "many multi switches" true
          (st.Stats.invokes_multi > 50));
    case "one-shot threads hit the segment cache" (fun () ->
        let _, st, _ = run_stack "(run-fib-threads 4 10 2 %call/1cc)" in
        Alcotest.(check bool) "cache hits" true (st.Stats.cache_hits > 10));
    case "cps threads capture no stack continuations" (fun () ->
        let _, st, _ = run_stack "(run-cps-fib-threads 4 10 2)" in
        (* one call/1cc for the exit continuation only *)
        Alcotest.(check bool) "at most one capture" true
          (st.Stats.captures_oneshot <= 1 && st.Stats.captures_multi = 0));
    (* engines *)
    check_result "engine completes"
      "(engine-run-to-completion 1000000 (make-engine (lambda () (fib 10))))"
      (string_of_int (fib_expected 10));
    check_result "engine completes across many slices"
      "(engine-run-to-completion 5 (make-engine (lambda () (fib 10))))"
      (string_of_int (fib_expected 10));
    check_result "engine single tick slices"
      "(engine-run-to-completion 1 (make-engine (lambda () (fib 6))))"
      (string_of_int (fib_expected 6));
    check_result "engine expire hands over a runnable engine"
      {|(let ((e ((make-engine (lambda () (fib 10))) 3
                  (lambda (r v) 'finished-too-fast)
                  (lambda (next) next))))
          (if (procedure? e)
              (engine-run-to-completion 50 e)
              e))|}
      (string_of_int (fib_expected 10));
    check_result "engine complete receives remaining ticks"
      {|((make-engine (lambda () 'quick)) 1000
         (lambda (remaining v) (list v (> remaining 0)))
         (lambda (next) 'expired))|}
      "(quick #t)";
    case "engine rejects non-positive ticks" (fun () ->
        match
          run_stack
            "((make-engine (lambda () 1)) 0 (lambda (r v) v) (lambda (e) e))"
        with
        | v, _, _ -> Alcotest.failf "expected error, got %s" v
        | exception Rt.Scheme_error (msg, _) ->
            Alcotest.(check bool) "mentions ticks" true
              (Tutil.contains ~sub:"ticks" msg));
    check_result "two engines round-robin manually"
      {|(let ((log '()))
          (define (note x) (set! log (cons x log)))
          (define (run2 e1 e2)
            (e1 4
                (lambda (r v) (note (cons 'done1 v))
                  (e2 1000000 (lambda (r v) (note (cons 'done2 v)) 'ok)
                      (lambda (n) 'no)))
                (lambda (n1)
                  (e2 4
                      (lambda (r v) (note (cons 'done2 v))
                        (n1 1000000 (lambda (r v) (note (cons 'done1 v)) 'ok)
                            (lambda (n) 'no)))
                      (lambda (n2) (run2 n1 n2))))))
          (run2 (make-engine (lambda () (fib 8)))
                (make-engine (lambda () (fib 7))))
          (list (length log)
                (if (assq 'done1 log) (cdr (assq 'done1 log)) #f)
                (if (assq 'done2 log) (cdr (assq 'done2 log)) #f)))|}
      (Printf.sprintf "(2 %d %d)" (fib_expected 8) (fib_expected 7));
    (* threads on tiny segments: preemption across overflow machinery *)
    case "threads survive tiny segments" (fun () ->
        let v, _, _ =
          run_stack ~config:Tutil.tiny_config
            "(run-fib-threads 3 9 4 %call/1cc)"
        in
        Alcotest.(check string) "done" "all-done" v);
    case "threads survive tiny segments with call/cc overflow" (fun () ->
        let v, _, _ =
          run_stack ~config:Tutil.tiny_callcc_config
            "(run-fib-threads 3 9 4 %call/cc)"
        in
        Alcotest.(check string) "done" "all-done" v);
  ]

(* ------------------------------------------------------------------ *)
(* The thread system on every machine                                  *)
(* ------------------------------------------------------------------ *)

(* The cases above drive the stack VM only.  These run the same
   scheduled programs on every backend and on the stack geometries that
   force overflow, underflow and promotion, so a control effect inside
   a preempted thread — a one-shot escape, an error caught by [try],
   ctak's captures — behaves alike wherever the switch is made.  [thread-map] runs one thread per element and collects the
   results in order. *)
let thread_map_def =
  {|(define (thread-map f xs freq capture)
      (let ((out (make-vector (length xs) #f)))
        (run-threads
         (let loop ((i 0) (xs xs))
           (if (null? xs)
               '()
               (cons (let ((i i) (x (car xs)))
                       (lambda () (vector-set! out i (f x))))
                     (loop (+ i 1) (cdr xs)))))
         freq capture)
        (vector->list out)))
    (define (guarded x)
      (try (lambda () (if (= x 2) (error 'boom "two") (fib x)))
           (lambda (m) 'caught)))
    (define (escape x) (%call/1cc (lambda (k) (fib 8) (k (* 10 x)) 'dead)))
    (define (ct x) (ctak 8 5 x))
    (set! ctak-capture %call/1cc)
|}

(* The machines whose timer preempts: every backend but the oracle. *)
let preempting =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("stack/tiny", Scheme.Stack Tutil.tiny_config);
    ("stack/tiny-cc", Scheme.Stack Tutil.tiny_callcc_config);
    ("stack/copy-capture", Scheme.Stack Tutil.copy_capture_config);
    ("closure", Scheme.Closure Control.default_config);
    ("closure/tiny", Scheme.Closure Tutil.tiny_config);
    ("heap", Scheme.Heap);
  ]

(* The oracle has no preemption ([%set-timer!] is a no-op there, so each
   thread runs to completion in turn), so it joins only the cases whose
   result does not depend on it. *)
let every_machine = preempting @ [ ("oracle", Scheme.Oracle) ]

let run_machine backend src =
  let stats = Stats.create () in
  let s = Scheme.create ~backend ~stats ~corpus:true () in
  ignore (Scheme.eval ~fuel:Tutil.default_fuel s thread_map_def);
  Stats.reset stats;
  let v = Scheme.eval_string ~fuel:Tutil.default_fuel s src in
  (v, Scheme.output s, stats)

let on_machines machines name src expected =
  List.map
    (fun (mname, backend) ->
      case (Printf.sprintf "%s [%s]" name mname) (fun () ->
          let v, _, _ = run_machine backend src in
          Alcotest.(check string) src expected v))
    machines

let fibs_to n = List.init n fib_expected

let list_string xs = "(" ^ String.concat " " xs ^ ")"

let interleave_src =
  {|(define (count-up show)
      (let loop ((i 0))
        (if (< i 5) (begin (display (show i)) (fib 6) (loop (+ i 1))))))
    (run-threads
     (list (lambda () (count-up (lambda (i) i)))
           (lambda () (count-up (lambda (i) "a"))))
     7 %call/1cc)|}

(* Preemption every 7 calls splits each thread between its [display]s,
   so the two outputs alternate: the timer ticks alike on every
   preempting machine. *)
let interleave_case (mname, backend) =
  case (Printf.sprintf "preemption interleaves output [%s]" mname) (fun () ->
      let v, out, _ = run_machine backend interleave_src in
      Alcotest.(check string) "value" "all-done" v;
      Alcotest.(check string) "output" "0a1a2a3a4a" out)

(* Each preemption is one one-shot capture and its invocation, and the
   machines execute the same calls: the call count matches the stack
   VM's, whatever the segment geometry or frame representation. *)
let switches_src = "(thread-map fib (list 12 12 12) 5 %call/1cc)"

let switches_case (mname, backend) =
  case (Printf.sprintf "preemptions are one-shot switches [%s]" mname)
    (fun () ->
      let _, _, ref_stats =
        run_machine (Scheme.Stack Control.default_config) switches_src
      in
      let v, _, st = run_machine backend switches_src in
      Alcotest.(check string) "value" "(144 144 144)" v;
      Alcotest.(check int) "calls" ref_stats.Stats.calls st.Stats.calls;
      if st.Stats.invokes_oneshot <= 50 then
        Alcotest.failf "expected many one-shot switches, got %d"
          st.Stats.invokes_oneshot)

let suite =
  suite
  @ on_machines every_machine "thread-map = map"
      "(thread-map fib (iota 12) 5 %call/1cc)"
      (list_string (List.map string_of_int (fibs_to 12)))
  @ on_machines every_machine "thread-map with multi-shot switches"
      "(thread-map fib (iota 10) 3 %call/cc)"
      (list_string (List.map string_of_int (fibs_to 10)))
  @ on_machines every_machine "one-shot escape inside a thread"
      "(thread-map escape '(1 2 3) 5 %call/1cc)" "(10 20 30)"
  @ on_machines every_machine "ctak inside threads"
      "(thread-map ct '(1 2 3) 5 %call/1cc)" "(5 5 5)"
  @ on_machines every_machine "error caught inside a thread"
      "(thread-map guarded '(1 2 10) 5 %call/1cc)"
      (Printf.sprintf "(1 caught %d)" (fib_expected 10))
  @ List.map interleave_case preempting
  @ List.map switches_case preempting
