(* Lint pass: golden diagnostics (exact rule, severity, message, and
   source location pinned) for the three rule families, plus clean runs
   over every shipped corpus. *)

let case = Tutil.case

let render ds = String.concat "\n" (List.map Lint.to_string ds)

let golden label src expected =
  case label (fun () ->
      Alcotest.(check string) "diagnostics" expected (render (Lint.lint_string src)))

let clean label src =
  case label (fun () ->
      Alcotest.(check string) (label ^ " lints clean") "" (render (Lint.lint_string src)))

let golden_cases =
  [
    golden "definite multi-shot call/1cc is an error"
      "(call/1cc (lambda (k) (k 1) (k 2)))"
      "1:0: error: [multi-shot-1cc] continuation k captured by call/1cc is \
       invoked on more than one path; one-shot continuations may be invoked \
       at most once";
    golden "escape + invoke is a possible-multi-shot warning"
      "(define saved #f)\n(call/1cc (lambda (k) (set! saved k) (k 0)))"
      "2:0: warning: [multi-shot-1cc] continuation k captured by call/1cc \
       escapes and is also invoked here; invoking the stored continuation \
       again would raise a shot-continuation error";
    golden "apply counts as an invocation"
      "(call/1cc (lambda (k) (apply k '(1)) (k 2)))"
      "1:0: error: [multi-shot-1cc] continuation k captured by call/1cc is \
       invoked on more than one path; one-shot continuations may be invoked \
       at most once";
    golden "set! of a fused standard primitive"
      "(set! car (lambda (p) p))"
      "1:6: warning: [fused-prim-set] set! of car deoptimizes every \
       inline-cached call site compiled against its standard primitive \
       binding";
    golden "unused let binding"
      "(let ((x 1) (y 2)) y)"
      "1:7: warning: [unused-binding] binding x is never referenced";
    golden "unused named-let name"
      "(let loop ((i 0)) i)"
      "1:5: warning: [unused-binding] binding loop is never referenced";
  ]

let negative_cases =
  [
    clean "escape-only capture (engine idiom)"
      "(define saved #f)\n(call/1cc (lambda (k) (set! saved k)))";
    clean "one invocation per exclusive branch"
      "(call/1cc (lambda (k) (if (null? '()) (k 1) (k 2))))";
    clean "direct abort from a loop body cannot re-fire"
      "(call/1cc (lambda (abort) (let loop ((xs '(2 0 4)) (acc 1)) (cond \
       ((null? xs) acc) ((= (car xs) 0) (abort 0)) (else (loop (cdr xs) (* \
       acc (car xs))))))))";
    clean "invocation inside a nested lambda is not counted"
      "(define (with-escape f) (call/1cc (lambda (k) (f (lambda (v) (k v))))))";
    clean "set! of a name the program defines itself"
      "(define (car x) x)\n(set! car (lambda (p) p))";
    clean "set! of a lexical binding"
      "(let ((count 0)) (set! count (+ count 1)) count)";
    clean "do-loop variables used by step and test"
      "(do ((i 0 (+ i 1)) (acc 1 (* acc i))) ((= i 5) acc))";
    clean "lambda parameters are exempt from unused-binding"
      "(define f (lambda (unused-param) 42)) (f 1)";
    clean "shadowed k is a different variable"
      "(call/1cc (lambda (k) (let ((k list)) (k 1) (k 2))))";
  ]

(* The shipped corpora must lint clean: the prelude's escape-only
   continuation idioms (engines, error handlers) and the
   winder wrappers' apply-invocations must none of them trip the
   multi-shot analysis. *)
let corpus_cases =
  List.map
    (fun (label, src) -> clean ("corpus lints clean: " ^ label) src)
    [
      ("prelude", Prelude.source);
      ("prelude-scheme-winders", Prelude.source_scheme_winders);
      ("programs", Programs.all_defs);
      ("threads", Threads.scheduler);
      ("cml", Cml.source);
    ]

(* With a live global table, fused-prim-set consults actual bindings. *)
let globals_cases =
  [
    case "globals-aware: set! of a non-prim global is quiet" (fun () ->
        let g = Globals.create () in
        Prims.install g;
        Globals.define g "my-hook" (Rt.Int 0);
        Alcotest.(check int)
          "no diagnostics" 0
          (List.length (Lint.lint_string ~globals:g "(set! my-hook 1)")));
    case "globals-aware: set! of an installed pure prim warns" (fun () ->
        let g = Globals.create () in
        Prims.install g;
        match Lint.lint_string ~globals:g "(set! vector-ref car)" with
        | [ d ] ->
            Alcotest.(check string)
              "rule" "fused-prim-set"
              (match d.Diag.rule with Some r -> r | None -> "<none>")
        | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  ]

let suite = golden_cases @ negative_cases @ corpus_cases @ globals_cases
