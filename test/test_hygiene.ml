(* Hygiene differential suite: the rename-based syntax-rules expansion
   across every backend (stack, closure, heap, oracle), with the
   hygiene switch both on and off.

   Each program is chosen so that hygienic and unhygienic expansion
   produce *different* values, pinning both behaviours: the default must
   neither capture use-site bindings nor let template bindings be
   captured, and [~hygiene:false] must reproduce the historical textual
   expansion exactly.  All four backends share one expander, so every
   case also checks the three VMs against the CPS oracle. *)

open Tutil

let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

let eval_with backend hygiene src =
  let s = Scheme.create ~backend ~hygiene () in
  Scheme.eval_string ~fuel:default_fuel s src

(* One case per backend x hygiene switch, against the expected value for
   that switch. *)
let differential name src ~hygienic ~unhygienic =
  List.concat_map
    (fun (bname, backend) ->
      [
        case (Printf.sprintf "%s [%s]" name bname) (fun () ->
            Alcotest.(check string) src hygienic (eval_with backend true src));
        case (Printf.sprintf "%s [%s, no-hygiene]" name bname) (fun () ->
            Alcotest.(check string)
              src unhygienic
              (eval_with backend false src));
      ])
    backends

(* The paper-classic swap!: the template's [tmp] must not capture a
   use-site [tmp].  Unhygienic expansion rebinds the use-site variable,
   so the swap silently fails. *)
let swap_cases =
  differential "swap! does not capture a use-site tmp"
    "(define-syntax swap!\n\
    \  (syntax-rules ()\n\
    \    ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))\n\
     (define tmp 1)\n\
     (define other 2)\n\
     (swap! tmp other)\n\
     (list tmp other)"
    ~hygienic:"(2 1)" ~unhygienic:"(1 2)"

(* my-or's template [let] must not shadow the use site's [t]. *)
let my_or_cases =
  differential "my-or's template binding is invisible to the use site"
    "(define-syntax my-or\n\
    \  (syntax-rules ()\n\
    \    ((_ a b) (let ((t a)) (if t t b)))))\n\
     (let ((t 5)) (my-or #f t))"
    ~hygienic:"5" ~unhygienic:"#f"

(* A cond/else introduced by a template still reads as the auxiliary
   keyword even when the use site binds [else] as a variable. *)
let else_cases =
  differential "template-introduced else survives a use-site shadow"
    "(define-syntax pick\n\
    \  (syntax-rules ()\n\
    \    ((_ x) (cond ((= x 1) 'one) (else 'right)))))\n\
     (let ((else #f)) (pick 2))"
    ~hygienic:"right" ~unhygienic:"right"

(* Nested macro uses get distinct marks: two expansions of the same
   template must not capture each other's bindings. *)
let nesting_cases =
  differential "two expansions of one template do not collide"
    "(define-syntax dub\n\
    \  (syntax-rules ()\n\
    \    ((_ e) (let ((v e)) (+ v v)))))\n\
     (dub (dub 3))"
    ~hygienic:"12" ~unhygienic:"12"

(* let-syntax / letrec-syntax scope the binding to the body. *)
let let_syntax_cases =
  differential "let-syntax scopes the macro to its body"
    "(define (m x) (* x 10))\n\
     (+ (let-syntax ((m (syntax-rules () ((_ x) (+ x 1))))) (m 4))\n\
    \   (m 4))"
    ~hygienic:"45" ~unhygienic:"45"
  @ differential "letrec-syntax expands nested uses"
      "(letrec-syntax ((wrap (syntax-rules () ((_ x) (list x)))))\n\
      \  (wrap (wrap 7)))"
      ~hygienic:"((7))" ~unhygienic:"((7))"

(* Satellite (a): macro environments are per-session state, so two
   domains expanding *different* macros under the same keyword at the
   same time must not see each other (the expander once kept the
   current menv in a process global, which raced exactly here).  The
   Scheme-level [eval] re-enters the expander at runtime, so each
   domain re-expands its own macro hundreds of times while the other
   does the same. *)
let distinct_macros_across_domains =
  case "distinct macros in distinct domains do not interfere" (fun () ->
      let run tag =
        let s = Scheme.create () in
        Scheme.eval_string ~fuel:default_fuel s
          (Printf.sprintf
             "(define-syntax m (syntax-rules () ((_ x) (cons '%s x))))\n\
              (define (go n acc)\n\
             \  (if (= n 0) acc (go (- n 1) (eval '(m 1)))))\n\
              (go 200 #f)"
             tag)
      in
      let d1 = Domain.spawn (fun () -> run "left") in
      let d2 = Domain.spawn (fun () -> run "right") in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      Alcotest.(check string) "left domain" "(left . 1)" r1;
      Alcotest.(check string) "right domain" "(right . 1)" r2)

let suite =
  swap_cases @ my_or_cases @ else_cases @ nesting_cases @ let_syntax_cases
  @ [ distinct_macros_across_domains ]
