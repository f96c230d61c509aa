(* Extended-feature tests: flonums, error handling, promises, sorting,
   assert, and the stack-walking backtrace. *)

let all = Tutil.check_all
let check = Tutil.check_eval
let case = Tutil.case

let flonum_suite =
  List.concat
    [
      all "float literal" "2.5" "2.5";
      all "negative float" "-0.25" "-0.25";
      all "exponent literal" "1e3" "1000.0";
      all "mixed addition promotes" "(+ 1 2.5)" "3.5";
      all "mixed multiply" "(* 2.0 3)" "6.0";
      all "division exact when even" "(/ 4 2)" "2";
      all "division inexact otherwise" "(/ 1 2)" "0.5";
      all "reciprocal" "(/ 4)" "0.25";
      all "unary minus float" "(- 1.5)" "-1.5";
      all "mixed comparison" "(< 1 1.5 2)" "#t";
      all "equality across exactness" "(= 2 2.0)" "#t";
      all "eqv distinguishes exactness" "(eqv? 2 2.0)" "#f";
      all "floor" "(floor 2.7)" "2.0";
      all "ceiling" "(ceiling 2.1)" "3.0";
      all "truncate negative" "(truncate -2.7)" "-2.0";
      all "round to even down" "(round 2.5)" "2.0";
      all "round to even up" "(round 3.5)" "4.0";
      all "sqrt exact" "(sqrt 16)" "4";
      all "sqrt inexact" "(sqrt 2.25)" "1.5";
      all "expt integer" "(expt 2 10)" "1024";
      all "expt zero" "(expt 5 0)" "1";
      all "exact->inexact" "(exact->inexact 3)" "3.0";
      all "inexact->exact" "(inexact->exact 3.0)" "3";
      all "exact? inexact?" "(list (exact? 1) (exact? 1.0) (inexact? 1.0))"
        "(#t #f #t)";
      all "number? covers flonums" "(number? 1.5)" "#t";
      all "integer? is exact only" "(integer? 1.5)" "#f";
      all "string->number float" {|(string->number "3.5")|} "3.5";
      all "number->string float" "(number->string 2.5)" {|"2.5"|};
      all "infinity prints" "(/ 1.0 0.0)" "+inf.0";
      all "negative infinity" "(/ -1.0 0.0)" "-inf.0";
      all "min promotes" "(min 1 0.5)" "0.5";
      all "abs float" "(abs -2.5)" "2.5";
      all "float truthiness" "(if 0.0 'yes 'no)" "yes";
      all "equal? on float lists" "(equal? '(1.5 2.5) (list 1.5 2.5))" "#t";
      all "trig roundtrip" "(< (abs (- (sin 0.0) 0.0)) 0.001)" "#t";
      all "log exp" "(< (abs (- (log (exp 1.0)) 1.0)) 0.0001)" "#t";
      all "atan two args" "(< (abs (atan 0.0 1.0)) 0.0001)" "#t";
    ]

let error_suite =
  [
    check "handler catches runtime type error"
      "(try (lambda () (car 5)) (lambda (msg) 'caught))" "caught";
    check "handler receives message"
      {|(call-with-error-handler
         (lambda (msg irritants) (list 'got irritants))
         (lambda () (error 'who "bad" 1 2)))|}
      "(got (1 2))";
    check "value passes through when no error"
      "(try (lambda () 42) (lambda (m) 'caught))" "42";
    check "nested handlers: inner wins"
      {|(try (lambda ()
              (try (lambda () (error 'x "inner"))
                   (lambda (m) 'inner-caught)))
            (lambda (m) 'outer-caught))|}
      "inner-caught";
    check "nested handlers: inner can re-raise to outer"
      {|(try (lambda ()
              (try (lambda () (error 'x "boom"))
                   (lambda (m) (error 'y "again"))))
            (lambda (m) (list 'outer m)))|}
      {|(outer "y: again")|};
    check "handler popped after normal exit"
      {|(begin
          (try (lambda () 'fine) (lambda (m) 'no))
          (null? %error-handlers))|}
      "#t";
    check "dynamic-wind exits run when handler escapes"
      {|(let ((o '()))
          (try (lambda ()
                 (dynamic-wind
                   (lambda () (set! o (cons 'in o)))
                   (lambda () (error 'x "boom"))
                   (lambda () (set! o (cons 'out o)))))
               (lambda (m) #f))
          (reverse o))|}
      "(in out)";
    check "unbound variable is catchable"
      "(try (lambda () this-is-unbound) (lambda (m) 'caught))" "caught";
    check "arity error is catchable"
      "(try (lambda () ((lambda (x) x) 1 2)) (lambda (m) 'caught))" "caught";
    check "vector bounds error is catchable"
      "(try (lambda () (vector-ref (vector 1) 5)) (lambda (m) 'caught))"
      "caught";
    check "division by zero is catchable"
      "(try (lambda () (quotient 1 0)) (lambda (m) 'caught))" "caught";
    check "tiny segments: handler escape crosses boundaries"
      ~config:Tutil.tiny_config
      {|(define (deep n) (if (= n 0) (error 'deep "bottom") (+ 1 (deep (- n 1)))))
        (try (lambda () (deep 500)) (lambda (m) 'caught))|}
      "caught";
    case "heap VM handles errors too" (fun () ->
        Alcotest.(check string)
          "caught" "caught"
          (Tutil.eval_heap "(try (lambda () (car 5)) (lambda (m) 'caught))"));
    check "assert passes" "(begin (assert (= 1 1)) 'ok)" "ok";
    check "assert failure is catchable"
      "(try (lambda () (assert (= 1 2))) (lambda (m) 'caught))" "caught";
    check "uncaught errors still propagate" "(length %error-handlers)" "0";
  ]

let promise_suite =
  List.concat
    [
      all "force of delay" "(force (delay (+ 1 2)))" "3";
      all "force memoizes"
        "(let ((n 0)) (define p (delay (begin (set! n (+ n 1)) n))) (force p) (force p) (list (force p) n))"
        "(1 1)";
      all "force of non-promise" "(force 7)" "7";
      all "promise?" "(list (promise? (delay 1)) (promise? 1))" "(#t #f)";
      all "delayed effects don't run until forced"
        "(let ((n 0)) (define p (delay (set! n 99))) (list n (begin (force p) n)))"
        "(0 99)";
      all "lazy infinite structure"
        {|(begin
            (define (ints-from n) (cons n (delay (ints-from (+ n 1)))))
            (define (take s n)
              (if (= n 0) '() (cons (car s) (take (force (cdr s)) (- n 1)))))
            (take (ints-from 5) 4))|}
        "(5 6 7 8)";
    ]

let sort_suite =
  List.concat
    [
      all "sort numbers" "(sort < '(3 1 4 1 5 9 2 6))" "(1 1 2 3 4 5 6 9)";
      all "sort empty" "(sort < '())" "()";
      all "sort singleton" "(sort < '(1))" "(1)";
      all "sort descending" "(sort > '(1 2 3))" "(3 2 1)";
      all "sort stable"
        {|(map cdr (sort (lambda (a b) (< (car a) (car b)))
                         '((2 . a) (1 . b) (2 . c) (1 . d))))|}
        "(b d a c)";
      all "sort longer list"
        "(sort < (reverse (iota 50)))"
        (Values.write_string
           (Values.list_to_value (List.init 50 (fun i -> Values.of_int i))));
    ]

(* [write] of shared and cyclic structure.  A cdr chain's own repeat is
   found in O(1) space, not by searching the pairs before it, so a long
   list prints in linear time; a pair seen among the enclosing objects
   still prints as [#<cycle>] at the same element, also through a
   multiple-values object. *)
let printer_suite =
  let upto n = List.init n string_of_int |> String.concat " " in
  let tail_of = "(define (tail-of x k) (if (= k 0) x (tail-of (cdr x) (- k 1))))" in
  List.concat
    [
      all "cyclic list with a long acyclic head"
        (tail_of
       ^ "(let ((x (iota 3000))) (set-cdr! (tail-of x 2999) (tail-of x 2)) x)")
        ("(" ^ upto 3000 ^ " . #<cycle>)");
      all "list whose last pair points to itself"
        (tail_of ^ "(let ((x (iota 2000))) (set-cdr! (tail-of x 1999) (tail-of x 1999)) x)")
        ("(" ^ upto 2000 ^ " . #<cycle>)");
      all "shared acyclic tail"
        "(let* ((t (iota 3)) (a (cons 9 t))) (list a t (cons t t)))"
        "((9 0 1 2) (0 1 2) ((0 1 2) 0 1 2))";
      all "long shared acyclic tail"
        "(let ((t (iota 2000))) (list (cons -1 t) t))"
        ("((-1 " ^ upto 2000 ^ ") (" ^ upto 2000 ^ "))");
      all "cdr chain reaching an enclosing pair"
        "(let ((x (list 1 2))) (set-car! x (cons 0 x)) x)"
        "((0 . #<cycle>) 2)";
      all "element pointing back into its own chain"
        "(let ((x (list 1 2 3))) (set-car! (cdr x) x) x)"
        "(1 #<cycle> 3)";
      all "multiple values holding the list around them"
        "(let ((x (list 1))) (set-car! x (values x 2)) x)"
        "(#<values #<cycle> 2>)";
    ]

let backtrace_suite =
  [
    check "backtrace names non-tail callers"
      {|(define (inner) (%backtrace))
        (define (middle) (let ((r (inner))) r))
        (define (outer) (let ((r (middle))) r))
        (let ((b (let ((r (outer))) r)))
          (list (car b) (cadr b)))|}
      "(middle outer)";
    check "tail calls leave no frames"
      {|(define (a) (%backtrace))
        (define (b) (a))
        (define (c) (b))
        ;; the only frames are the non-tail (c) call's and the toplevel's
        (length (c))|}
      "2";
    check ~config:Tutil.tiny_config "backtrace crosses segment boundaries"
      {|(define (deep n)
          (if (= n 0) (length (%backtrace)) (+ 1 (deep (- n 1)))))
        (> (deep 200) 30)|}
      "#t";
    case "heap VM backtrace matches" (fun () ->
        Alcotest.(check string)
          "names" "(middle outer)"
          (Tutil.eval_heap
             {|(define (inner) (%backtrace))
               (define (middle) (let ((r (inner))) r))
               (define (outer) (let ((r (middle))) r))
               (let ((b (let ((r (outer))) r)))
                 (list (car b) (cadr b)))|}));
  ]

let suite =
  flonum_suite @ error_suite @ promise_suite @ sort_suite @ printer_suite
  @ backtrace_suite

(* Corpus benchmark programs compute their known values on every backend
   (small parameters). *)
let corpus_suite =
  let corpus_all name src expected = Tutil.check_all ~corpus:true name src expected in
  List.concat
    [
      corpus_all "corpus tak" "(tak 8 5 2)" "5";
      corpus_all "corpus cpstak" "(cpstak 8 5 2)" "5";
      corpus_all "corpus takl" "(takl 8 5 2)" "5";
      corpus_all "corpus fib" "(fib 12)" "144";
      corpus_all "corpus ack" "(ack 2 4)" "11";
      corpus_all "corpus queens" "(queens-count 5)" "10";
      corpus_all "corpus boyer" "(boyer-run 6)" "#t";
      corpus_all "corpus deep" "(deep 500)" "500";
      corpus_all "corpus div iterative/recursive agree"
        "(let ((l (create-n 20))) (equal? (reverse (iterative-div2 l)) (recursive-div2 l)))"
        "#t";
      corpus_all "corpus destruct" "(destruct-bench 4 6 2)" "4";
      corpus_all "corpus mandel" "(mandel-count 8 15)" "14";
      corpus_all "corpus ctak one-shot"
        "(set! ctak-capture %call/1cc) (ctak 10 6 3)" "4";
    ]

(* case-lambda, output capture, and the extended char/string library. *)
let library_suite =
  List.concat
    [
      all "case-lambda picks by arity"
        "((case-lambda ((a) (list 1 a)) ((a b) (list 2 a b))) 5)" "(1 5)";
      all "case-lambda second clause"
        "((case-lambda ((a) 1) ((a b) (+ a b))) 7 8)" "15";
      all "case-lambda rest clause"
        "((case-lambda ((a) 1) (r (length r))) 1 2 3 4)" "4";
      all "case-lambda dotted clause"
        "((case-lambda ((a b . r) (list a b r))) 1 2 3 4)" "(1 2 (3 4))";
      (* not on the oracle: it cannot intercept VM-level errors *)
      [
        check "case-lambda no clause errors"
          "(try (lambda () ((case-lambda ((a) 1)) 1 2)) (lambda (m) 'none))"
          "none";
      ];
      all "case-lambda closes over environment"
        "(let ((x 10)) ((case-lambda ((a) (+ x a))) 5))" "15";
      all "with-output-to-string captures"
        {|(with-output-to-string (lambda () (display "ab") (display 42)))|}
        {|"ab42"|};
      all "with-output-to-string nests"
        {|(with-output-to-string
           (lambda ()
             (display "a")
             (display (with-output-to-string (lambda () (display "x"))))
             (display "b")))|}
        {|"axb"|};
      all "output outside capture unaffected"
        {|(begin (display "keep") (with-output-to-string (lambda () (display "drop"))) 'ok)|}
        "ok";
      all "list? proper" "(list? '(1 2 3))" "#t";
      all "list? improper" "(list? '(1 . 2))" "#f";
      all "list? empty" "(list? '())" "#t";
      (* Every primitive that walks a list to its end measures it first
         with one cycle-safe walk, so on a circular list each ends in its
         "expected proper list" error instead of looping (a primitive is
         one engine step: fuel cannot stop it). *)
      all "list primitives end on a circular list"
        {|(let ((x (list 1 2)))
            (set-cdr! (cdr x) x)
            (map (lambda (f) (try (lambda () (f x)) (lambda (msg) msg)))
                 (list length reverse list->vector list->string
                       (lambda (l) (memq 5 l)) (lambda (l) (member 5 l))
                       (lambda (l) (assq 5 l)) (lambda (l) (append l '(3)))
                       (lambda (l) (apply + l)) list?)))|}
        {|("length: expected proper list, got pair" "reverse: expected proper list, got pair" "list->vector: expected proper list, got pair" "list->string: expected proper list, got pair" "memq: expected proper list, got pair" "member: expected proper list, got pair" "assq: expected proper list, got pair" "append: expected proper list, got pair" "apply: expected a proper list" #f)|};
      all "a lasso and a one-pair cycle are not lists"
        {|(let ((lasso (iota 100)) (one (list 1)))
            (set-cdr! (list-tail lasso 99) (list-tail lasso 37))
            (set-cdr! one one)
            (map (lambda (l) (try (lambda () (length l)) (lambda (msg) 'error)))
                 (list lasso one)))|}
        "(error error)";
      all "improper tails are not lists"
        {|(map (lambda (f) (try (lambda () (f '(1 2 . 3))) (lambda (msg) msg)))
               (list length (lambda (l) (memq 5 l))))|}
        {|("length: expected proper list, got pair" "memq: expected proper list, got pair")|};
      all "length counts every proper list"
        {|(let loop ((n 0) (l '()) (ok #t))
            (if (= n 300) ok
                (loop (+ n 1) (cons n l) (and ok (= (length l) n)))))|}
        "#t";
      all "string<?" {|(string<? "abc" "abd")|} "#t";
      all "string>?" {|(string>? "b" "a")|} "#t";
      all "string case" {|(list (string-upcase "hi") (string-downcase "HI"))|}
        {|("HI" "hi")|};
      all "char predicates"
        {|(list (char-alphabetic? #\a) (char-numeric? #\7) (char-whitespace? #\space) (char-alphabetic? #\7))|}
        "(#t #t #t #f)";
      all "char case" "(list (char-upcase #\\a) (char-downcase #\\B))"
        "(#\\A #\\b)";
      all "make-string" "(make-string 3 #\\z)" {|"zzz"|};
      all "string constructor" "(string #\\a #\\b)" {|"ab"|};
      all "sort strings" {|(sort string<? '("pear" "apple" "fig"))|}
        {|("apple" "fig" "pear")|};
    ]

let hashtable_suite =
  List.concat
    [
      all "hashtable basic"
        {|(let ((h (make-hashtable)))
            (hashtable-set! h 'a 1)
            (hashtable-set! h 'b 2)
            (list (hashtable-ref h 'a #f) (hashtable-ref h 'z 'nope)
                  (hashtable-size h)))|}
        "(1 nope 2)";
      all "hashtable overwrite"
        {|(let ((h (make-hashtable)))
            (hashtable-set! h 'k 1)
            (hashtable-set! h 'k 2)
            (list (hashtable-ref h 'k #f) (hashtable-size h)))|}
        "(2 1)";
      all "hashtable delete"
        {|(let ((h (make-hashtable)))
            (hashtable-set! h 1 'one)
            (hashtable-delete! h 1)
            (list (hashtable-contains? h 1) (hashtable-size h)))|}
        "(#f 0)";
      all "hashtable fixnum and char keys"
        {|(let ((h (make-hashtable)))
            (hashtable-set! h 42 'num)
            (hashtable-set! h #\x 'char)
            (list (hashtable-ref h 42 #f) (hashtable-ref h #\x #f)))|}
        "(num char)";
      all "hashtable copy is independent"
        {|(let ((h (make-hashtable)))
            (hashtable-set! h 'a 1)
            (let ((h2 (hashtable-copy h)))
              (hashtable-set! h2 'a 99)
              (list (hashtable-ref h 'a #f) (hashtable-ref h2 'a #f))))|}
        "(1 99)";
      all "hashtable keys sortable"
        {|(let ((h (make-hashtable)))
            (for-each (lambda (k) (hashtable-set! h k (* k k))) '(3 1 2))
            (sort < (hashtable-keys h)))|}
        "(1 2 3)";
      all "hashtable?" "(list (hashtable? (make-hashtable)) (hashtable? 5))"
        "(#t #f)";
      [
        check "hashtable bad key is catchable"
          {|(try (lambda () (hashtable-set! (make-hashtable) (list 1) 'x))
                (lambda (m) 'bad-key))|}
          "bad-key";
      ];
    ]

let suite = suite @ corpus_suite @ library_suite @ hashtable_suite
