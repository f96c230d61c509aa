(* define-syntax / syntax-rules tests. *)

let all = Tutil.check_all
let check = Tutil.check_eval
let case = Tutil.case

(* The [syntax-rules] behaviour, pinned on every backend: each case
   gives the printed value, or the macro error's position and message,
   which must agree across stack, closure, heap and oracle. *)
let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

let outcome backend src =
  let s = Scheme.create ~backend () in
  match Scheme.eval_string ~fuel:Tutil.default_fuel s src with
  | v -> v
  | exception Macro.Macro_error (msg, p) ->
      Printf.sprintf "%d:%d: %s" (Sexp.line p) (Sexp.col p) msg

let pin name src expected =
  List.map
    (fun (bname, backend) ->
      case
        (Printf.sprintf "%s [%s]" name bname)
        (fun () -> Alcotest.(check string) src expected (outcome backend src)))
    backends

let pinned =
  List.concat
    [
      pin "pin: nested ellipses"
        {|(define-syntax rot
            (syntax-rules () ((_ (a b ...) ...) '((b ... a) ...))))
          (rot (1 2 3) (4) (5 6))|}
        "((2 3 1) (4) (6 5))";
      pin "pin: vector pattern"
        {|(define-syntax vsum (syntax-rules () ((_ #(a ...)) (+ 0 a ...))))
          (list (vsum #(1 2 3)) (vsum #()))|}
        "(6 0)";
      pin "pin: ellipsis followed by a fixed tail"
        {|(define-syntax last-first
            (syntax-rules () ((_ a ... z) '(z a ...))))
          (list (last-first 1 2 3) (last-first 4))|}
        "((3 1 2) (4))";
      pin "pin: dotted pattern"
        {|(define-syntax args-of (syntax-rules () ((_ . args) 'args)))
          (list (args-of) (args-of 1 2))|}
        "(() (1 2))";
      pin "pin: dotted template tail"
        {|(define-syntax dot9 (syntax-rules () ((_ x ...) '(x ... . 9))))
          (list (dot9 1 2) (dot9))|}
        "((1 2 . 9) 9)";
      pin "pin: ellipsis inside a vector template"
        {|(define-syntax vec9 (syntax-rules () ((_ x ...) '#(x ... 9))))
          (list (vec9 1 2) (vec9))|}
        "(#(1 2 9) #(9))";
      pin "pin: one variable in two ellipses"
        {|(define-syntax twice (syntax-rules () ((_ a ...) '(a ... a ...))))
          (list (twice 1 2) (twice))|}
        "((1 2 1 2) ())";
      pin "pin: literal =>"
        {|(define-syntax arrow
            (syntax-rules (=>)
              ((_ a => f) (f a))
              ((_ a b c) '(no-arrow a b c))))
          (list (arrow 1 => list) (arrow 1 -> list))|}
        "((1) (no-arrow 1 -> list))";
      pin "pin: _ in a template"
        {|(define-syntax under
            (syntax-rules () ((_ x) (let ((_ x)) (list '_ _)))))
          (under 5)|}
        "(_ 5)";
      pin "pin: (f) against (_ x ... y) has no match"
        {|(define-syntax f (syntax-rules () ((_ x ... y) 'ok)))
          (list (f 1) (f 1 2))
          (f)|}
        "3:10: no syntax-rules pattern matches this use";
      pin "pin: used without enough ellipses"
        {|(define-syntax flat (syntax-rules () ((_ a ...) (list a))))
          (list
            (flat 1 2))|}
        "3:12: syntax-rules: pattern variable a used without enough ellipses";
      pin "pin: ellipsis template has no pattern variable"
        {|(define-syntax ones (syntax-rules () ((_ a) (list 1 ...))))
          (define x 0)
            (ones x)|}
        "3:12: syntax-rules: ellipsis template has no pattern variable";
      pin "pin: mismatched ellipsis lengths"
        {|(define-syntax zip2
            (syntax-rules () ((_ (a ...) (b ...)) '((a b) ...))))
          (list (zip2 (1 2) (x y))
                (zip2 (1 2 3) (x y)))|}
        "4:16: syntax-rules: mismatched ellipsis lengths";
      pin "pin: a bad template that is never used raises nothing"
        {|(define-syntax bad
            (syntax-rules ()
              ((_ 0) 'zero)
              ((_ a ...) (list a 1 ...))))
          (bad 0)|}
        "zero";
    ]

(* One expansion step of the recursive [my-sum] costs O(template) words:
   the bare-variable ellipsis of [(_ x y ...)] binds the matched tail
   itself, and the template's [(my-sum y ...)] returns that list,
   shared.  Copying the tail at every step makes the whole expansion
   quadratic in k: about 4x the words from k = 200 to k = 400, where
   linear expansion gives 2x.  Both k stay under the 500-level depth
   limit. *)
let linear_expansion_case =
  case "recursive my-sum expands in linear words (k=400 <= 2.2 x k=200)"
    (fun () ->
      let words k =
        let menv = Macro.create_menv () in
        ignore
          (Expander.expand_string ~menv
             "(define-syntax my-sum\n\
             \  (syntax-rules () ((_) 0) ((_ x y ...) (+ x (my-sum y ...)))))");
        let use =
          Sexp.read_one
            ("(my-sum"
            ^ String.concat "" (List.init k (Printf.sprintf " (f%d x)"))
            ^ ")")
        in
        let w0 = Gc.minor_words () in
        ignore (Expander.expand_tops ~menv use);
        Gc.minor_words () -. w0
      in
      let w200 = words 200 in
      let w400 = words 400 in
      if w400 > 2.2 *. w200 then
        Alcotest.failf "k=200: %.0f words, k=400: %.0f words (x%.2f)" w200
          w400 (w400 /. w200))

(* A macro whose template copies its arguments twice doubles the use at
   every step, and the depth limit is far away when memory runs out.
   The instantiation budget of one top-level form stops it at the use,
   with the use's position, on every backend, and the session goes on.
   A matched tail returned whole costs nothing, however long. *)
let doubling =
  "(define-syntax m (syntax-rules () ((_ x ...) (m x ... x ...))))"

let budget_cases =
  let message =
    Printf.sprintf
      "macro expansion too large (over %d datums in one top-level form): m"
      Macro.instantiation_budget
  in
  List.map
    (fun (bname, backend) ->
      case (Printf.sprintf "doubling macro ends in an [expand] error [%s]" bname)
        (fun () ->
          let s = Scheme.create ~backend () in
          ignore (Scheme.eval s doubling);
          match Scheme.eval s "(define a 1)\n  (list a (m 1))" with
          | v ->
              Alcotest.failf "expanded to %s" (Values.write_string v)
          | exception e ->
              let d = Option.get (Diag.of_exn e) in
              Alcotest.(check string) "diagnostic"
                ("2:10: error: [expand] " ^ message)
                (Diag.to_string d);
              Alcotest.(check string) "session goes on" "6"
                (Scheme.eval_string s
                   "(define-syntax twice (syntax-rules () ((_ x ...) (+ x ... x ...))))\n\
                    (twice 1 2)")))
    backends
  @ [
      case "a macro within its budget expands" (fun () ->
          let menv = Macro.create_menv () in
          ignore (Expander.expand_string ~menv doubling);
          ignore
            (Expander.expand_string ~menv
               "(define-syntax stop (syntax-rules () ((_ x ...) (quote (x ...)))))");
          let big = String.concat " " (List.init 200_000 string_of_int) in
          match Expander.expand_string ~menv ("(stop " ^ big ^ ")") with
          | [ _ ] -> ()
          | tops -> Alcotest.failf "%d tops" (List.length tops));
    ]

let suite =
  pinned
  @ [ linear_expansion_case ]
  @ budget_cases
  @ List.concat
    [
      all "simple substitution"
        {|(define-syntax double (syntax-rules () ((_ e) (* 2 e))))
          (double 21)|}
        "42";
      all "multiple rules dispatch on shape"
        {|(define-syntax my-or
            (syntax-rules ()
              ((_) #f)
              ((_ e) e)
              ((_ e r ...) (let ((t e)) (if t t (my-or r ...))))))
          (list (my-or) (my-or 7) (my-or #f #f 3) (my-or #f #f))|}
        "(#f 7 3 #f)";
      all "swap! two variables"
        {|(define-syntax swap!
            (syntax-rules () ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))
          (let ((x 1) (y 2)) (swap! x y) (list x y))|}
        "(2 1)";
      all "recursive macro"
        {|(define-syntax my-let*
            (syntax-rules ()
              ((_ () body ...) (begin body ...))
              ((_ ((x e) rest ...) body ...)
               (let ((x e)) (my-let* (rest ...) body ...)))))
          (my-let* ((a 1) (b (+ a 1)) (c (* b 2))) (list a b c))|}
        "(1 2 4)";
      all "literals must match"
        {|(define-syntax for
            (syntax-rules (in)
              ((_ x in lst body ...) (for-each (lambda (x) body ...) lst))))
          (let ((seen '()))
            (for v in '(a b c) (set! seen (cons v seen)))
            (reverse seen))|}
        "(a b c)";
      all "ellipsis over pairs"
        {|(define-syntax alist
            (syntax-rules () ((_ (k v) ...) (list (cons 'k v) ...))))
          (alist (a 1) (b 2) (c 3))|}
        "((a . 1) (b . 2) (c . 3))";
      all "ellipsis with empty repetition"
        {|(define-syntax count-args
            (syntax-rules () ((_ e ...) (length (list 'e ...)))))
          (list (count-args) (count-args x) (count-args x y z))|}
        "(0 1 3)";
      all "ellipsis before fixed tail"
        {|(define-syntax all-but-last
            (syntax-rules () ((_ e ... last) (list e ...))))
          (all-but-last 1 2 3 4)|}
        "(1 2 3)";
      all "nested ellipses"
        {|(define-syntax flatten2
            (syntax-rules () ((_ (a ...) ...) (append (list a ...) ...))))
          (flatten2 (1 2) () (3 4 5))|}
        "(1 2 3 4 5)";
      all "macro expanding to definitions"
        {|(define-syntax defconsts
            (syntax-rules () ((_ (name val) ...) (begin (define name val) ...))))
          (defconsts (seven 7) (eight 8))
          (+ seven eight)|}
        "15";
      all "wildcard pattern"
        {|(define-syntax second-of
            (syntax-rules () ((_ _ b) b)))
          (second-of (error 'no "never evaluated") 42)|}
        "42";
      all "dotted pattern"
        {|(define-syntax rest-of
            (syntax-rules () ((_ a . r) 'r)))
          (rest-of 1 2 3)|}
        "(2 3)";
      all "constant patterns"
        {|(define-syntax classify
            (syntax-rules ()
              ((_ 0) 'zero)
              ((_ 1) 'one)
              ((_ n) 'many)))
          (list (classify 0) (classify 1) (classify 5))|}
        "(zero one many)";
      all "macro used before other definitions"
        {|(define-syntax inc! (syntax-rules () ((_ v) (set! v (+ v 1)))))
          (define counter 0)
          (inc! counter) (inc! counter)
          counter|}
        "2";
      all "macros compose"
        {|(define-syntax unless2 (syntax-rules () ((_ t e) (if t #f e))))
          (define-syntax when2 (syntax-rules () ((_ t e) (unless2 (not t) e))))
          (when2 #t 'yes)|}
        "yes";
      all "macro inside eval"
        {|(eval '(begin
                  (define-syntax twice (syntax-rules () ((_ e) (+ e e))))
                  (twice 21)))|}
        "42";
      all "macros persist across eval in one session"
        {|(define-syntax quadruple (syntax-rules () ((_ e) (* 4 e))))
          (eval '(quadruple 10))|}
        "40";
    ]
  @ [
      check "core forms are not shadowed by macros"
        {|(define-syntax if2 (syntax-rules () ((_ a b c) (if a b c))))
          (if2 #t 'then 'else)|}
        "then";
      case "macro loops are detected" (fun () ->
          match
            Tutil.eval_stack
              {|(define-syntax loopy (syntax-rules () ((_ x) (loopy x))))
                (loopy 1)|}
          with
          | v -> Alcotest.failf "expected expansion error, got %s" v
          | exception Expander.Expand_error _ -> ()
          | exception Macro.Macro_error _ -> ());
      case "no matching rule reports an error" (fun () ->
          match
            Tutil.eval_stack
              {|(define-syntax one-arg (syntax-rules () ((_ x) x)))
                (one-arg 1 2 3)|}
          with
          | v -> Alcotest.failf "expected macro error, got %s" v
          | exception Macro.Macro_error _ -> ());
      case "mismatched ellipsis lengths rejected" (fun () ->
          match
            Tutil.eval_stack
              {|(define-syntax zip2
                  (syntax-rules () ((_ (a ...) (b ...)) (list (cons a b) ...))))
                (zip2 (1 2 3) (x y))|}
          with
          | v -> Alcotest.failf "expected macro error, got %s" v
          | exception Macro.Macro_error _ -> ());
      (* Each ellipsis instantiation steps through its variables' slice
         lists together, so a k-element expansion is linear in k.  The
         CPU budget is generous: the expansion takes well under 1 s,
         where indexing each slice with List.nth takes about 11 s. *)
      case "100,000-element ellipsis expansion is linear" (fun () ->
          let k = 100_000 in
          let b = Buffer.create (8 * k) in
          Buffer.add_string b
            "(define-syntax my-list (syntax-rules () ((_ x ...) (list x ...))))\n\
             (let ((l (my-list";
          for i = 0 to k - 1 do
            Printf.bprintf b " %d" i
          done;
          Buffer.add_string b ")))\n  (list (length l) (car l) (car (reverse l))))";
          let t0 = Sys.time () in
          Alcotest.(check string) "value" "(100000 0 99999)"
            (Tutil.eval_stack (Buffer.contents b));
          let dt = Sys.time () -. t0 in
          if dt > 5. then Alcotest.failf "took %.2f s of CPU (budget 5 s)" dt);
      case "macros do not leak across sessions" (fun () ->
          let s1 = Scheme.create () in
          ignore
            (Scheme.eval s1
               "(define-syntax leaky (syntax-rules () ((_ e) (* 2 e))))");
          let s2 = Scheme.create () in
          match Scheme.eval_string s2 "(leaky 1)" with
          | v -> Alcotest.failf "macro leaked: %s" v
          | exception Rt.Scheme_error _ -> ());
    ]
