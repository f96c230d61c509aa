(* Continuation semantics: capture, escape, re-entry, one-shot consumption
   and promotion, dynamic-wind interaction — the heart of the paper. *)

let all = Tutil.check_all
let check = Tutil.check_eval
let case = Tutil.case

let backend_suite =
  List.concat
    [
      (* escapes *)
      all "call/cc escape" "(call/cc (lambda (k) (+ 1 (k 42))))" "42";
      all "call/cc unused" "(call/cc (lambda (k) 7))" "7";
      all "call/cc nonlocal exit from loop"
        "(call/cc (lambda (break) (let loop ((i 0)) (if (= i 100) (break i) (loop (+ i 1))))))"
        "100";
      all "call/cc in operand position" "(+ 1 (call/cc (lambda (k) (k 41))))"
        "42";
      all "call/1cc escape" "(call/1cc (lambda (k) (+ 1 (k 42))))" "42";
      all "call/1cc normal return" "(call/1cc (lambda (k) 'plain))" "plain";
      all "raw %call/cc" "(%call/cc (lambda (k) (k 'raw)))" "raw";
      all "raw %call/1cc" "(%call/1cc (lambda (k) (k 'raw1)))" "raw1";
      all "nested escapes"
        "(call/cc (lambda (k1) (call/cc (lambda (k2) (k1 (call/cc (lambda (k3) (k2 (k3 'deep)))))))))"
        "deep";
      (* re-entry (multi-shot only) *)
      all "re-enter three times"
        "(define saved #f) (define n 0) (define (go) (call/cc (lambda (k) (set! saved k))) (set! n (+ n 1)) (if (< n 3) (saved #f) n)) (go)"
        "3";
      all "generator by re-entry"
        "(let ((k2 #f) (out '())) (+ 1 (call/cc (lambda (k) (set! k2 k) 0))) (set! out (cons 'tick out)) (if (< (length out) 3) (k2 10) (length out)))"
        "3";
      (* continuations as arguments, stored in data *)
      all "continuation in a pair"
        "(let ((p (cons #f #f))) (set-car! p (call/cc (lambda (k) k))) (if (procedure? (car p)) ((car p) 'done) (car p)))"
        "done";
      (* multiple values through continuations *)
      all "continuation with multiple values"
        "(call-with-values (lambda () (call/cc (lambda (k) (k 1 2 3)))) list)"
        "(1 2 3)";
      all "one-shot with multiple values"
        "(call-with-values (lambda () (call/1cc (lambda (k) (k 4 5)))) +)" "9";
      (* dynamic-wind *)
      all "wind order simple"
        "(define o '()) (define (log x) (set! o (cons x o))) (dynamic-wind (lambda () (log 'in)) (lambda () (log 'mid) 'r) (lambda () (log 'out))) (reverse o)"
        "(in mid out)";
      all "wind on escape"
        "(define o '()) (define (log x) (set! o (cons x o))) (call/cc (lambda (k) (dynamic-wind (lambda () (log 'in)) (lambda () (k 'gone)) (lambda () (log 'out))))) (reverse o)"
        "(in out)";
      all "wind on one-shot escape"
        "(define o '()) (define (log x) (set! o (cons x o))) (call/1cc (lambda (k) (dynamic-wind (lambda () (log 'in)) (lambda () (k 'gone)) (lambda () (log 'out))))) (reverse o)"
        "(in out)";
      all "wind on reentry"
        {|(let ((o '()) (kk #f) (n 0))
            (define (log x) (set! o (cons x o)))
            (dynamic-wind
              (lambda () (log 'in))
              (lambda ()
                (call/cc (lambda (k) (set! kk k)))
                (set! n (+ n 1)))
              (lambda () (log 'out)))
            (if (< n 2) (kk #f) 'done)
            (reverse o))|}
        "(in out in out)";
      all "wind result is thunk value"
        "(dynamic-wind void (lambda () 5) void)" "5";
      all "wind passes multiple values"
        "(call-with-values (lambda () (dynamic-wind void (lambda () (values 1 2)) void)) +)"
        "3";
      all "nested winds unwind inner first"
        {|(define o '())
          (define (log x) (set! o (cons x o)))
          (call/cc (lambda (k)
            (dynamic-wind (lambda () (log 'in1))
              (lambda ()
                (dynamic-wind (lambda () (log 'in2))
                  (lambda () (k 'esc))
                  (lambda () (log 'out2))))
              (lambda () (log 'out1)))))
          (reverse o)|}
        "(in1 in2 out2 out1)";
      (* amb: multi-shot backtracking *)
      all "amb pythagorean triple"
        (Programs.amb ^ "(pythagorean-triple 15)")
        "(3 4 5)";
      (* generators: one-shot coroutines *)
      all "generator yields"
        (Programs.generator
       ^ "(generator->list (make-generator (lambda (y) (y 'a) (y 'b) 'end)))")
        "(a b)";
      all "generator empty"
        (Programs.generator
       ^ "(generator->list (make-generator (lambda (y) 'end)))")
        "()";
      all "samefringe equal"
        (Programs.generator ^ Programs.samefringe
       ^ "(same-fringe? '((1 2) (3 4)) '(1 (2 3 (4))))")
        "#t";
      all "samefringe different"
        (Programs.generator ^ Programs.samefringe
       ^ "(same-fringe? '(1 2 3) '(1 2 4))")
        "#f";
      all "samefringe different lengths"
        (Programs.generator ^ Programs.samefringe
       ^ "(same-fringe? '(1 2 3) '(1 2))")
        "#f";
    ]

(* One-shot consumption semantics (stack VM under several configs, plus
   heap VM, which keeps parity via frame guards). *)
let oneshot_cases =
  let double_explicit =
    "(define k #f) (call/1cc (lambda (c) (set! k c))) (k #f)"
  in
  let return_then_invoke =
    "(define k #f) (define (go) (call/1cc (lambda (c) (set! k c))) 'ret) (go) (k #f)"
  in
  let promoted_reinvoke =
    (* A one-shot record still live in the chain when a call/cc captures
       above it is promoted and becomes freely re-invocable. *)
    {|(let ((k1 #f) (n 0))
        (%call/1cc
         (lambda (c)
           (set! k1 c)
           (%call/cc (lambda (m) 'x))
           'first))
        (set! n (+ n 1))
        (if (< n 3) (k1 #f) n))|}
  in
  [
    Tutil.check_shot "use after implicit return is an error" double_explicit;
    Tutil.check_shot ~config:Tutil.tiny_config
      "use after implicit return is an error (tiny segments)" double_explicit;
    case "use after implicit return errors on heap VM" (fun () ->
        match Tutil.eval_heap double_explicit with
        | v -> Alcotest.failf "expected shot error, got %s" v
        | exception Rt.Shot_continuation -> ());
    case "use after implicit return errors on oracle" (fun () ->
        match Tutil.eval_oracle double_explicit with
        | v -> Alcotest.failf "expected shot error, got %s" v
        | exception Rt.Shot_continuation -> ());
    Tutil.check_shot "second use after explicit invoke is an error"
      {|(let ((k #f) (n 0))
          (call/1cc (lambda (c) (set! k c) (c 'first)))
          (set! n (+ n 1))
          (if (= n 1) (k 'again) n))|};
    Tutil.check_shot "normal return consumes the extent" return_then_invoke;
    case "normal return consumes on heap VM" (fun () ->
        match Tutil.eval_heap return_then_invoke with
        | v -> Alcotest.failf "expected shot error, got %s" v
        | exception Rt.Shot_continuation -> ());
    case "normal return consumes on oracle" (fun () ->
        match Tutil.eval_oracle return_then_invoke with
        | v -> Alcotest.failf "expected shot error, got %s" v
        | exception Rt.Shot_continuation -> ());
    (* Promotion: a one-shot captured inside a multi-shot extent becomes
       multi-shot and may be invoked repeatedly (paper Section 3.3). *)
    check "promotion allows repeated invocation" promoted_reinvoke "3";
    check ~config:Tutil.tiny_config
      "promotion allows repeated invocation (tiny segments)"
      promoted_reinvoke "3";
    check
      ~config:
        { Control.default_config with Control.promotion = Control.Shared_flag }
      "promotion allows repeated invocation (shared flag)" promoted_reinvoke
      "3";
    case "promotion on heap VM" (fun () ->
        Alcotest.(check string) "promoted" "3" (Tutil.eval_heap promoted_reinvoke));
    (* Introspection *)
    check "one-shot predicate"
      "(%call/1cc (lambda (k) (%continuation-one-shot? k)))" "#t";
    check "multi-shot predicate"
      "(%call/cc (lambda (k) (%continuation-one-shot? k)))" "#f";
    check "shot flag observable"
      {|(define k #f)
        (define (go) (%call/1cc (lambda (c) (set! k c))) 'x)
        (go)
        (%continuation-shot? k)|}
      "#t";
    check "unshot flag observable"
      "(%call/1cc (lambda (k) (%continuation-shot? k)))" "#f";
    check "promotion observable"
      {|(define k1 #f)
        (%call/1cc (lambda (c)
          (set! k1 c)
          (%call/cc (lambda (m) 'x))
          'done))
        (%continuation-promoted? k1)|}
      "#t";
    check "consumed one-shot is not reported promoted"
      {|(define k1 #f)
        (%call/1cc (lambda (c) (set! k1 c)))
        (%continuation-promoted? k1)|}
      "#f";
  ]

(* Paper-specific mechanics observable through counters. *)
let mechanics_cases =
  let run ?(config = Control.default_config) src =
    let stats = Stats.create () in
    let s = Scheme.create ~backend:(Scheme.Stack config) ~stats () in
    let v = Scheme.eval_string ~fuel:Tutil.default_fuel s src in
    (v, stats)
  in
  [
    case "call/cc capture copies nothing" (fun () ->
        let _, st = run "(%call/cc (lambda (k) 1))" in
        Alcotest.(check int) "words copied" 0 st.Stats.words_copied;
        Alcotest.(check int) "captures" 1 st.Stats.captures_multi);
    case "one-shot invoke copies nothing" (fun () ->
        let _, st =
          run "(define (f) (%call/1cc (lambda (k) (k 1)))) (f)"
        in
        Alcotest.(check int) "words copied" 0 st.Stats.words_copied;
        Alcotest.(check int) "oneshot invokes" 1 st.Stats.invokes_oneshot);
    case "multi-shot invoke copies" (fun () ->
        let _, st =
          run "(define (f) (+ 0 (%call/cc (lambda (k) (k 1))))) (f)"
        in
        Alcotest.(check bool) "copied something" true
          (st.Stats.words_copied > 0);
        Alcotest.(check int) "multi invokes" 1 st.Stats.invokes_multi);
    case "splitting caps single-invoke copy volume" (fun () ->
        (* Build a deep continuation, then invoke it: splitting must keep
           the copied portion at or below the copy bound. *)
        let config =
          { Control.default_config with Control.copy_bound = 64 }
        in
        let _, st =
          run ~config
            {|(define k #f)
              (define (deep n)
                (if (= n 0)
                    (%call/cc (lambda (c) (set! k c) 0))
                    (+ 1 (deep (- n 1)))))
              (deep 200)
              (if k (let ((k2 k)) (set! k #f) (k2 0)) 'done)|}
        in
        Alcotest.(check bool) "did split" true (st.Stats.splits > 0));
    case "overflow as implicit one-shot capture" (fun () ->
        let _, st =
          run ~config:Tutil.tiny_config
            "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 500)"
        in
        Alcotest.(check bool) "overflowed" true (st.Stats.overflows > 0);
        Alcotest.(check bool) "underflowed" true (st.Stats.underflows > 0);
        Alcotest.(check bool) "oneshot captures" true
          (st.Stats.captures_oneshot > 0));
    case "overflow as implicit call/cc copies on unwind" (fun () ->
        let _, st =
          run ~config:Tutil.tiny_callcc_config
            "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 500)"
        in
        Alcotest.(check bool) "copied plenty" true
          (st.Stats.words_copied > 1000));
    case "segment cache reused on deep recursion" (fun () ->
        let _, st =
          run ~config:Tutil.tiny_config
            "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 500) (sum 500) (sum 500)"
        in
        Alcotest.(check bool) "cache hits" true (st.Stats.cache_hits > 0));
    case "promotion of chain under call/cc" (fun () ->
        let _, st =
          run
            {|(define (f)
                (%call/1cc (lambda (c1)
                  (%call/1cc (lambda (c2)
                    (%call/cc (lambda (m) 'x)))))))
              (f)|}
        in
        Alcotest.(check bool) "promoted at least one" true
          (st.Stats.promotions >= 1));
    case "seal displacement shares the segment" (fun () ->
        let config =
          {
            Control.default_config with
            Control.oneshot_seal = Control.Seal_displacement 64;
          }
        in
        let v, st =
          run ~config
            "(define (f) (%call/1cc (lambda (k) (k 'sealed)))) (f)"
        in
        Alcotest.(check string) "value" "sealed" v;
        (* With seal displacement, capture allocates no fresh segment. *)
        Alcotest.(check int) "captures" 1 st.Stats.captures_oneshot);
    case "fragmentation: whole-segment one-shots hold their segments"
      (fun () ->
        let stats = Stats.create () in
        let s = Scheme.create ~backend:(Scheme.Stack Control.default_config)
            ~stats () in
        (* The capture sits under a live [+] frame: a one-shot captured
           at a segment's base reuses the underflow link instead of
           sealing, so a tail-position capture chain would provision
           nothing after the first.  The arithmetic keeps each capture
           non-empty, forcing the whole-segment seal every time. *)
        let v =
          Scheme.eval_string ~fuel:Tutil.default_fuel s
            {|(define ks '())
              (define (hold n)
                (if (= n 0)
                    (length ks)
                    (+ 0 (%call/1cc (lambda (k)
                      (set! ks (cons k ks))
                      (hold (- n 1)))))))
              (hold 8)|}
        in
        Alcotest.(check string) "held" "8" v;
        Alcotest.(check int) "captures" 8 stats.Stats.captures_oneshot;
        (* Each nested unconsumed one-shot owns a whole segment. *)
        Alcotest.(check bool) "segments provisioned" true
          (stats.Stats.seg_allocs + stats.Stats.cache_hits >= 8));
  ]

let suite = backend_suite @ oneshot_cases @ mechanics_cases

(* Extreme-geometry edge cases: frames larger than a segment, huge apply
   spreads, and captures inside apply, under every overflow/capture
   policy on 64-word segments. *)
let edge_cases =
  let configs =
    [
      ("tiny-1cc", { Control.default_config with Control.seg_words = 64;
                     copy_bound = 16; hysteresis_words = 8 });
      ("tiny-cc",
       { Control.default_config with Control.seg_words = 64; copy_bound = 16;
         hysteresis_words = 8; overflow_policy = Control.As_callcc });
      ("tiny-copy",
       { Control.default_config with Control.seg_words = 64; copy_bound = 16;
         capture = Control.Copy_on_capture });
    ]
  in
  List.concat_map
    (fun (cname, config) ->
      [
        Tutil.check_eval ~config ~corpus:true
          (Printf.sprintf "giant frame exceeds segment [%s]" cname)
          "((lambda args (length args)) 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 \
           16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 \
           38 39 40)"
          "40";
        Tutil.check_eval ~config ~corpus:true
          (Printf.sprintf "huge apply spread [%s]" cname)
          "(apply + (iota 400))" "79800";
        Tutil.check_eval ~config ~corpus:true
          (Printf.sprintf "capture inside apply [%s]" cname)
          "(apply (lambda (a b) (call/1cc (lambda (k) (k (+ a b))))) '(20 22))"
          "42";
        Tutil.check_eval ~config ~corpus:true
          (Printf.sprintf "timer fires across overflow boundaries [%s]" cname)
          {|(let ((hits 0))
              (define (h) (set! hits (+ hits 1)) (%set-timer! 7 h))
              (%set-timer! 7 h)
              (deep 300)
              (%set-timer! 0 h)
              (> hits 10))|}
          "#t";
      ])
    configs

let suite = suite @ edge_cases

(* Three wrong-answer bugs in re-entered control, pinned on all four
   backends.  The first re-enters, from a later top-level form and by
   copying, a record whose top frame an in-place unseal had copied
   aside: the copy's return slot must be the underflow mark, not the
   return address the remainder record holds.  The second re-enters a one-shot continuation that a nested
   call/cc promoted: on the heap backend the promoted continuation's
   frame must become copy-on-write.  The third re-enters an earlier
   top-level form of the same string: the oracle once chained every
   later form into that continuation and looped. *)
let reentry_cases =
  let backends =
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
      ("heap", Scheme.Heap);
      ("oracle", Scheme.Oracle);
    ]
  in
  let programs =
    [
      ( "re-entry after an in-place unseal",
        {|(define (deep n th) (if (= n 0) (th) (+ 0 (deep (- n 1) th))))
          (define k #f)
          (define n 0)
          (define v (deep 1 (lambda () (call/cc (lambda (c) (set! k c)
                                     (call/cc (lambda (j) (j 1))))))))
          (set! n (+ n 1))
          (if (< n 2) (k 2))
          v|},
        "2" );
      ( "re-entry of a promoted one-shot continuation",
        {|(let ((k #f) (n 0))
            (let ((r (+ -6 (call/1cc (lambda (c) (set! k c)
                       (let ((d (call/cc (lambda (d) d))))
                         (if (procedure? d) (d 5) d)))))))
              (set! n (+ n 1)) (if (< n 3) (k n) r)))|},
        "-4" );
      ( "re-entry of an earlier top-level form",
        {|(define k #f) (define v (call/cc (lambda (c) (set! k c) 1))) (k 2) v|},
        "2" );
    ]
  in
  List.concat_map
    (fun (pname, src, expected) ->
      List.map
        (fun (bname, backend) ->
          case (Printf.sprintf "%s [%s]" pname bname) (fun () ->
              let s = Scheme.create ~backend () in
              Alcotest.(check string) src expected
                (Scheme.eval_string ~fuel:Tutil.default_fuel s src)))
        backends)
    programs

let suite = suite @ reentry_cases
