(* The unified execution core (lib/engine instantiated by the stack and
   heap frame policies) must keep sessions fully independent: each
   Scheme.t owns its machine, stats, globals, macro tables, output
   buffer and (stack backend) segment cache, so interleaving sessions —
   or running them on separate domains — never lets one observe
   another.  These tests pin that property, plus the pieces the
   unification is allowed to share: the single fuel-exhaustion exception
   and the oracle's now-live counters. *)

let eval s src = Values.write_string (Scheme.eval s src)

(* Two sessions on different policies of the same engine, interleaved:
   same-named globals diverge, outputs accumulate separately. *)
let interleaved_backends () =
  let a = Scheme.create () in
  let b = Scheme.create ~backend:Scheme.Heap () in
  let c = Scheme.create ~backend:(Scheme.Closure Control.default_config) () in
  ignore
    (Scheme.eval a
       "(define (f n) (if (< n 2) n (+ (f (- n 1)) (f (- n 2)))))");
  ignore (Scheme.eval b "(define (f n) (* n 10))");
  ignore (Scheme.eval c "(define (f n) (+ n 100))");
  Alcotest.(check string) "stack f" "8" (eval a "(f 6)");
  Alcotest.(check string) "heap f" "60" (eval b "(f 6)");
  Alcotest.(check string) "closure f" "106" (eval c "(f 6)");
  ignore (Scheme.eval b "(define only-in-b 1)");
  (match Scheme.eval a "only-in-b" with
  | _ -> Alcotest.fail "session a sees session b's global"
  | exception Rt.Scheme_error _ -> ());
  ignore (Scheme.eval a "(display \"A\")");
  ignore (Scheme.eval b "(display \"B\")");
  ignore (Scheme.eval a "(display \"A\")");
  Alcotest.(check string) "a output" "AA" (Scheme.output a);
  Alcotest.(check string) "b output" "B" (Scheme.output b)

(* Counters are per-session: work in one session never ticks another,
   and each stack machine warms its own segment cache. *)
let independent_stats () =
  let a = Scheme.create () in
  let b = Scheme.create () in
  Stats.reset (Scheme.stats a);
  Stats.reset (Scheme.stats b);
  ignore
    (Scheme.eval a
       "(let loop ((i 0) (acc 0))\n\
       \  (if (= i 40) acc\n\
       \      (loop (+ i 1) (+ acc (%call/1cc (lambda (k) (k i)))))))");
  let sa = Scheme.stats a and sb = Scheme.stats b in
  Alcotest.(check bool) "a ran" true (sa.Stats.instrs > 0);
  Alcotest.(check int) "a captured" 40 sa.Stats.captures_oneshot;
  Alcotest.(check int) "b instrs untouched" 0 sb.Stats.instrs;
  Alcotest.(check int) "b cache untouched" 0 sb.Stats.cache_hits;
  (* %stat reads the evaluating session's own live counters. *)
  let a_multi = eval a "(begin (%call/cc (lambda (k) 1)) (%stat 'captures-multi))" in
  Alcotest.(check string) "a %stat" "1" a_multi;
  Alcotest.(check string) "b %stat" "0" (eval b "(%stat 'captures-multi)")

(* The oracle backend allocates a live Stats.t by default and shares it
   with the session (satellite of the engine unification: all three
   backends report through the same object they count into). *)
let oracle_live_stats () =
  let o = Scheme.create ~backend:Scheme.Oracle () in
  Stats.reset (Scheme.stats o);
  ignore (Scheme.eval o "(%call/cc (lambda (k) (k 1)))");
  let st = Scheme.stats o in
  Alcotest.(check bool) "oracle ticks instrs" true (st.Stats.instrs > 0);
  Alcotest.(check int) "oracle counts captures" 1 st.Stats.captures_multi;
  Alcotest.(check string) "oracle %stat live" "1"
    (eval o "(%stat 'captures-multi)")

(* Both policy instantiations raise the one engine-level fuel exception,
   so a caller can catch either VM's exhaustion through either alias. *)
let fuel_exception_unified () =
  let h = Scheme.create ~backend:Scheme.Heap () in
  (match Scheme.eval ~fuel:100 h "(let loop () (loop))" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Vm.Vm_fuel_exhausted -> ());
  let s = Scheme.create () in
  (match Scheme.eval ~fuel:100 s "(let loop () (loop))" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Heapvm.Vm_fuel_exhausted -> ());
  let c = Scheme.create ~backend:(Scheme.Closure Control.default_config) () in
  match Scheme.eval ~fuel:100 c "(let loop () (loop))" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Closurevm.Vm_fuel_exhausted -> ()

(* The three backends agree on capture-heavy programs when run through
   the unified engine (spot differential; test_diff.ml fuzzes this). *)
let backends_agree () =
  let progs =
    [
      "(%call/1cc (lambda (k) (+ 1 (k 41))))";
      "(+ (%call/cc (lambda (k) (k 2))) 40)";
      "(let ((out '()))\n\
      \  (dynamic-wind\n\
      \    (lambda () (set! out (cons 'in out)))\n\
      \    (lambda () (%call/1cc (lambda (k) (k 1))))\n\
      \    (lambda () (set! out (cons 'out out))))\n\
      \  out)";
    ]
  in
  List.iter
    (fun src ->
      let s = Scheme.create () in
      let c = Scheme.create ~backend:(Scheme.Closure Control.default_config) () in
      let h = Scheme.create ~backend:Scheme.Heap () in
      let o = Scheme.create ~backend:Scheme.Oracle () in
      let vs = eval s src in
      Alcotest.(check string) ("closure: " ^ src) vs (eval c src);
      Alcotest.(check string) ("heap: " ^ src) vs (eval h src);
      Alcotest.(check string) ("oracle: " ^ src) vs (eval o src))
    progs

(* Sessions on separate domains are independent: the same program, run
   by two sessions on two spawned domains at once, gives the value,
   output and counters that it gives on the calling domain, and no
   domain builds a prelude image of its own.  The program uses the
   corpus, hygienic macros (expanded again at run time through [eval])
   and [dynamic-wind] around a one-shot escape, whose resume codes are
   the closure backend's process-shared templates. *)
let domain_src =
  "(define-syntax my-or\n\
  \  (syntax-rules ()\n\
  \    ((_) #f) ((_ e) e) ((_ e r ...) (let ((t e)) (if t t (my-or r ...))))))\n\
   (define-syntax sq (syntax-rules () ((_ x) (* x x))))\n\
   (define t 5)\n\
   (define trace '())\n\
   (set! ctak-capture %call/1cc)\n\
   (define v\n\
  \  (dynamic-wind\n\
  \    (lambda () (set! trace (cons 'in trace)))\n\
  \    (lambda () (%call/1cc (lambda (k) (k (ctak 12 8 4)))))\n\
  \    (lambda () (set! trace (cons 'out trace)))))\n\
   (display (my-or #f t))\n\
   (newline)\n\
   (list v (my-or #f t) (sq (eval '(sq 3))) (fib 18) (queens-count 7)\n\
  \      (boyer-run 5)\n\
  \      (run-threads (list (lambda () (fib 9)) (lambda () (fib 10))) 16\n\
  \                   %call/1cc)\n\
  \      (reverse trace))"

let run_domain_src backend () =
  let stats = Stats.create () in
  let s = Scheme.create ~backend ~stats ~corpus:true () in
  Stats.reset stats;
  let v = Scheme.eval ~fuel:Tutil.default_fuel s domain_src in
  (Values.write_string v, Scheme.output s, Stats.to_rows stats)

let sessions_across_domains (bname, backend) =
  Alcotest.test_case
    (Printf.sprintf "sessions on two domains match the calling domain [%s]"
       bname)
    `Quick (fun () ->
      let value, output, rows = run_domain_src backend () in
      let builds = Prelude_image.builds () in
      let d1 = Domain.spawn (run_domain_src backend) in
      let d2 = Domain.spawn (run_domain_src backend) in
      let there = [ Domain.join d1; Domain.join d2 ] in
      Alcotest.(check int) "prelude image builds" builds
        (Prelude_image.builds ());
      Alcotest.(check string) "value" "(5 5 81 2584 40 #t all-done (in out))"
        value;
      Alcotest.(check string) "output" "5\n" output;
      List.iteri
        (fun i (v, out, rs) ->
          let label what = Printf.sprintf "domain %d %s" (i + 1) what in
          Alcotest.(check string) (label "value") value v;
          Alcotest.(check string) (label "output") output out;
          Alcotest.(check (list (pair string int))) (label "counters") rows rs)
        there)

let all_backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

(* A runtime error raised by a session on a spawned domain reaches the
   joining domain as the same [Rt.Scheme_error] the calling domain sees,
   after a one-shot escape and a [dynamic-wind] exit on its way out. *)
let domain_error_src =
  "(define (blow x) (error 'blow (number->string x)))\n\
   (dynamic-wind\n\
  \  (lambda () #f)\n\
  \  (lambda () (%call/1cc (lambda (k) (blow (k 1)))) (blow 2))\n\
  \  (lambda () #f))"

let domain_error (bname, backend) =
  Alcotest.test_case
    (Printf.sprintf "an error on a domain reaches the joiner [%s]" bname)
    `Quick (fun () ->
      let run () =
        match Scheme.eval (Scheme.create ~backend ()) domain_error_src with
        | v -> Alcotest.failf "expected an error, got %s" (Values.write_string v)
        | exception Rt.Scheme_error (m, _) -> m
      in
      let here = run () in
      Alcotest.(check string) "message" "blow: 2" here;
      let d =
        Domain.spawn (fun () ->
            Scheme.eval (Scheme.create ~backend ()) domain_error_src)
      in
      match Domain.join d with
      | v -> Alcotest.failf "expected an error, got %s" (Values.write_string v)
      | exception Rt.Scheme_error (m, _) ->
          Alcotest.(check string) "message on the domain" here m)

(* Every backend starts from the same global environment.  The stack,
   closure and heap backends install the compiled prelude image; the
   oracle expands the prelude source itself, so the two paths must be
   kept in step by hand. *)
let defined_names s =
  Globals.fold
    (fun name (g : Rt.global) acc -> if g.Rt.gdefined then name :: acc else acc)
    (Scheme.globals s) []
  |> List.sort String.compare

let prelude_parity corpus =
  Alcotest.test_case
    (Printf.sprintf "backends define the same globals [corpus=%b]" corpus)
    `Quick (fun () ->
      let names backend = defined_names (Scheme.create ~backend ~corpus ()) in
      let stack = names (Scheme.Stack Control.default_config) in
      List.iter
        (fun (bname, backend) ->
          Alcotest.(check (list string)) bname stack (names backend))
        (List.tl all_backends))

(* [take_output] hands out each piece of output once and empties the
   buffer; [output] still shows what has accumulated since. *)
let take_output_drains (bname, backend) =
  Alcotest.test_case (Printf.sprintf "take_output drains [%s]" bname) `Quick
    (fun () ->
      let s = Scheme.create ~backend () in
      ignore (Scheme.eval s "(display 1)");
      ignore (Scheme.eval s "(display 2)");
      Alcotest.(check string) "first take" "12" (Scheme.take_output s);
      Alcotest.(check string) "drained" "" (Scheme.output s);
      ignore (Scheme.eval s "(display 3) (newline)");
      Alcotest.(check string) "output since" "3\n" (Scheme.output s);
      Alcotest.(check string) "second take" "3\n" (Scheme.take_output s);
      Alcotest.(check string) "empty take" "" (Scheme.take_output s))

(* A size no heap can supply is a runtime error the session survives,
   not an OCaml exception: the sizes exceed any 64-bit address space
   (2^53 words) or the OCaml array/string limits (2^60). *)
let huge_alloc_errors (bname, backend) =
  Alcotest.test_case (Printf.sprintf "huge make-vector/make-string [%s]" bname)
    `Quick (fun () ->
      let s = Scheme.create ~backend () in
      List.iter
        (fun (src, who) ->
          match Scheme.eval s src with
          | v -> Alcotest.failf "%s returned %s" src (Values.write_string v)
          | exception Rt.Scheme_error (m, _) ->
              Alcotest.(check string) src (who ^ ": size too large to allocate") m)
        [
          ("(make-vector (expt 2 53) 0)", "make-vector");
          ("(make-vector (expt 2 60))", "make-vector");
          ("(make-string (expt 2 56) #\\a)", "make-string");
          ("(make-string (expt 2 60))", "make-string");
        ];
      Alcotest.(check string) "session survives" "3"
        (eval s "(vector-length (make-vector 3 0))"))

(* The machine steps written once in {!Engine} and shared by both frame
   policies, the dispatch loops and the closure templates, on each of
   their callers: exact arity messages, a variadic procedure entered at
   an overflowing segment (its [Enter] makes room, then builds the rest
   list), a preemption fire at a variadic entry, the [%stat] error, and
   a deopt after [set!] of a fused primitive, tail and non-tail, to a
   closure and to a primitive. *)
let step_backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("stack/tiny", Scheme.Stack Tutil.tiny_config);
    ("closure", Scheme.Closure Control.default_config);
    ("closure/tiny", Scheme.Closure Tutil.tiny_config);
    ("heap", Scheme.Heap);
  ]

let step_errors =
  [
    ("(define (f a b) a) (f 1)", "f: expected 2 arguments, got 1");
    ("(define (f a b) a) (f 1 2 3)", "f: expected 2 arguments, got 3");
    ("(define (g a b . r) a) (g 1)", "g: expected at least 2 arguments, got 1");
    ("(%stat 'no-such-counter)", "%stat: unknown counter no-such-counter");
  ]

let step_programs =
  [
    ( "variadic entry after overflow",
      {|(define (v n . rest)
          (if (= n 0) rest (cons (car rest) (v (- n 1) n (* 2 n)))))
        (let ((r (v 300 7)))
          (list (length r) (car r) (list-ref r 1) (list-ref r 299)
                (list-tail r 300)))|},
      "(302 7 300 2 (1 2))" );
    ( "timer fires at a variadic entry",
      {|(define hits 0)
        (define (h) (set! hits (+ hits 1)) (%set-timer! 3 h))
        (define (v n . rest) (if (= n 0) (length rest) (v (- n 1) n n)))
        (%set-timer! 3 h)
        (define r (v 100))
        (%set-timer! 0 h)
        (list r hits)|},
      "(2 34)" );
    ( "deopt after set! of a fused primitive",
      {|(define (f x y) (list (+ x y)))
        (define (g x y) (+ x y))
        (define r1 (list (f 1 2) (g 1 2)))
        (set! + (lambda (a b) (* a b)))
        (define r2 (list (f 3 4) (g 3 4)))
        (set! + -)
        (list r1 r2 (f 10 4) (g 10 4) (%stat 'prim-deopts))|},
      "(((3) 3) ((12) 12) (6) 6 4)" );
  ]

let shared_steps (bname, backend) =
  List.map
    (fun (src, msg) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" msg bname) `Quick
        (fun () ->
          let s = Scheme.create ~backend () in
          match Scheme.eval s src with
          | v -> Alcotest.failf "%s returned %s" src (Values.write_string v)
          | exception Rt.Scheme_error (m, _) ->
              Alcotest.(check string) src msg m))
    step_errors
  @ List.map
      (fun (name, src, expected) ->
        Alcotest.test_case (Printf.sprintf "%s [%s]" name bname) `Quick
          (fun () ->
            let s = Scheme.create ~backend () in
            Alcotest.(check string) name expected (eval s src);
            (* On tiny segments the variadic entries must really have
               overflowed. *)
            if name = "variadic entry after overflow" && String.ends_with ~suffix:"/tiny" bname
            then
              Alcotest.(check bool) "overflowed" true
                (int_of_string (eval s "(%stat 'overflows)") > 0)))
      step_programs

let suite =
  List.map take_output_drains all_backends
  @ List.map huge_alloc_errors all_backends
  @ [
    Alcotest.test_case "interleaved stack+heap sessions" `Quick
      interleaved_backends;
    Alcotest.test_case "per-session stats and caches" `Quick independent_stats;
    Alcotest.test_case "oracle keeps live stats" `Quick oracle_live_stats;
    Alcotest.test_case "one fuel exception across policies" `Quick
      fuel_exception_unified;
    Alcotest.test_case "backends agree via unified engine" `Quick
      backends_agree;
  ]
  @ List.map prelude_parity [ false; true ]
  @ List.map sessions_across_domains all_backends
  @ List.map domain_error all_backends
  @ List.concat_map shared_steps step_backends
