(* Differential testing: random core-Scheme programs must produce the same
   value on the CPS oracle, the heap VM, and the stack VM under several
   control configurations (tiny segments force the overflow/underflow and
   splitting machinery; the call/cc overflow policy and shared-flag
   promotion are exercised too).

   The generator produces closed, terminating programs: recursion only
   through upward continuation escapes, mutation only of number-valued
   variables.  Programs whose stack-VM run raises are compared on the
   error class only (the oracle's promotion over-approximation may let a
   shot-continuation error pass there; see oracle.mli).

   The generator is written in direct style over [Random.State] — building
   it from QCheck's eager combinators would construct the whole
   exponential branch tree before sampling. *)

let fresh_counter = ref 0

let fresh prefix =
  incr fresh_counter;
  Printf.sprintf "%s%d" prefix !fresh_counter

let choose st xs = List.nth xs (Random.State.int st (List.length xs))
let pick_var st env = choose st env

let rec gen_int st env depth =
  if depth = 0 then gen_int_leaf st env
  else
    match Random.State.int st 12 with
    | 0 | 1 -> gen_int_leaf st env
    | 2 | 3 ->
        let op = choose st [ "+"; "-"; "*" ] in
        let a = gen_int st env (depth - 1) in
        let b = gen_int st env (depth - 1) in
        Printf.sprintf "(%s %s %s)" op a b
    | 4 ->
        let t = gen_bool st env (depth - 1) in
        let a = gen_int st env (depth - 1) in
        let b = gen_int st env (depth - 1) in
        Printf.sprintf "(if %s %s %s)" t a b
    | 5 ->
        let x = fresh "v" in
        let init = gen_int st env (depth - 1) in
        let body = gen_int st (x :: env) (depth - 1) in
        Printf.sprintf "(let ((%s %s)) %s)" x init body
    | 6 ->
        let x = fresh "p" in
        let body = gen_int st (x :: env) (depth - 1) in
        let arg = gen_int st env (depth - 1) in
        Printf.sprintf "((lambda (%s) %s) %s)" x body arg
    | 7 -> (
        match env with
        | [] -> gen_int_leaf st env
        | _ ->
            let x = pick_var st env in
            let e = gen_int st env (depth - 1) in
            let body = gen_int st env (depth - 1) in
            Printf.sprintf "(begin (set! %s %s) %s)" x e body)
    | 8 ->
        let k = fresh "k" in
        Printf.sprintf "(call/cc (lambda (%s) %s))" k
          (gen_escape_body st k env (depth - 1))
    | 9 ->
        let k = fresh "j" in
        Printf.sprintf "(call/1cc (lambda (%s) %s))" k
          (gen_escape_body st k env (depth - 1))
    | 10 ->
        let a = gen_int st env (depth - 1) in
        let b = gen_int st env (depth - 1) in
        if Random.State.bool st then Printf.sprintf "(car (cons %s %s))" a b
        else Printf.sprintf "(cdr (cons %s %s))" b a
    | _ ->
        Printf.sprintf "(+ 1 (+ 1 (+ 1 (+ 1 %s))))"
          (gen_int st env (depth - 1))

and gen_int_leaf st env =
  match env with
  | [] -> string_of_int (Random.State.int st 41 - 20)
  | _ ->
      if Random.State.int st 3 = 0 then pick_var st env
      else string_of_int (Random.State.int st 41 - 20)

and gen_escape_body st k env depth =
  match Random.State.int st 4 with
  | 0 -> gen_int st env depth
  | 1 | 2 -> Printf.sprintf "(+ 1 (%s %s))" k (gen_int st env depth)
  | _ ->
      let t = gen_bool st env depth in
      let v = gen_int st env depth in
      let other = gen_int st env depth in
      Printf.sprintf "(if %s (%s %s) %s)" t k v other

and gen_bool st env depth =
  if depth = 0 then choose st [ "#t"; "#f" ]
  else
    match Random.State.int st 4 with
    | 0 -> choose st [ "#t"; "#f" ]
    | 1 | 2 ->
        let op = choose st [ "<"; "="; ">"; "<="; ">=" ] in
        let a = gen_int st env (depth - 1) in
        let b = gen_int st env (depth - 1) in
        Printf.sprintf "(%s %s %s)" op a b
    | _ -> Printf.sprintf "(not %s)" (gen_bool st env (depth - 1))

let gen_program st =
  let depth = 2 + Random.State.int st 5 in
  gen_int st [] depth

type outcome = Value of string | Error_scheme | Error_shot

let run_on session src =
  match Scheme.eval_string ~fuel:3_000_000 session src with
  | v -> Value v
  | exception Rt.Scheme_error _ -> Error_scheme
  | exception Rt.Shot_continuation -> Error_shot

let sessions =
  lazy
    (let mk backend = Scheme.create ~backend () in
     [
       ("oracle", mk Scheme.Oracle);
       ("heap", mk Scheme.Heap);
       ("stack", mk (Scheme.Stack Control.default_config));
       ("stack-tiny", mk (Scheme.Stack Tutil.tiny_config));
       ("stack-tiny-cc", mk (Scheme.Stack Tutil.tiny_callcc_config));
       (* template-compiled backend: same machine, closure-threaded
          dispatch; tiny segments force its slow paths through the shared
          overflow/underflow machinery *)
       ("closure", mk (Scheme.Closure Control.default_config));
       ("closure-tiny", mk (Scheme.Closure Tutil.tiny_config));
       ( "closure-noopt",
         Scheme.create
           ~backend:(Scheme.Closure Control.default_config)
           ~options:{ Compiler.default_options with peephole = false } () );
       ( "stack-flag",
         mk
           (Scheme.Stack
              {
                Control.default_config with
                Control.promotion = Control.Shared_flag;
              }) );
       ( "stack-seal",
         mk
           (Scheme.Stack
              {
                Tutil.tiny_config with
                Control.oneshot_seal = Control.Seal_displacement 48;
              }) );
       ( "stack-optimized",
         Scheme.create ~backend:(Scheme.Stack Control.default_config)
           ~options:{ Compiler.default_options with optimize = true } () );
       ( "stack-noopt",
         (* unfused bytecode: differential witness for the peephole pass *)
         Scheme.create ~backend:(Scheme.Stack Control.default_config)
           ~options:{ Compiler.default_options with peephole = false } () );
       ( "heap-noopt",
         Scheme.create ~backend:Scheme.Heap
           ~options:{ Compiler.default_options with peephole = false } () );
       ( "stack-copy-capture",
         mk
           (Scheme.Stack
              {
                Tutil.tiny_config with
                Control.capture = Control.Copy_on_capture;
              }) );
       (* The historical Scheme-level winder protocol must stay
          observationally equal to the native one on random programs
          (every call/cc / call/1cc in the generator goes through the
          public wind-aware operators). *)
       ( "stack-scmwind",
         Scheme.create
           ~backend:(Scheme.Stack Control.default_config)
           ~scheme_winders:true () );
       ("heap-scmwind", Scheme.create ~backend:Scheme.Heap ~scheme_winders:true ());
       ( "oracle-scmwind",
         Scheme.create ~backend:Scheme.Oracle ~scheme_winders:true () );
     ])

let outcome_to_string = function
  | Value v -> "value " ^ v
  | Error_scheme -> "<scheme error>"
  | Error_shot -> "<shot continuation>"

let diff_prop =
  QCheck.Test.make ~name:"all backends agree on random programs" ~count:300
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun src ->
      let results =
        List.map (fun (name, s) -> (name, run_on s src)) (Lazy.force sessions)
      in
      match List.assoc "stack" results with
      | Error_shot | Error_scheme ->
          (* Error classes are checked by targeted unit tests; the oracle
             deliberately over-promotes. *)
          true
      | Value expected ->
          List.for_all
            (fun (name, r) ->
              match r with
              | Value v when v = expected -> true
              | r ->
                  QCheck.Test.fail_reportf
                    "backend %s disagrees on %s:\n  stack: %s\n  %s: %s" name
                    src expected name (outcome_to_string r))
            results)

(* A second property: programs built around deep non-tail recursion give
   identical results across segment sizes (stressing overflow, underflow,
   hysteresis and splitting with varied geometry). *)
let depth_prop =
  QCheck.Test.make ~name:"deep recursion agrees across segment geometries"
    ~count:20
    QCheck.(make ~print:string_of_int (Gen.int_range 100 2000))
    (fun n ->
      let src =
        Printf.sprintf
          "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum %d)" n
      in
      let expected = string_of_int (n * (n + 1) / 2) in
      List.for_all
        (fun seg ->
          let config =
            { Control.default_config with Control.seg_words = seg }
          in
          Tutil.eval_stack ~config src = expected
          &&
          let config =
            { config with Control.overflow_policy = Control.As_callcc }
          in
          Tutil.eval_stack ~config src = expected)
        [ 128; 256; 1024 ])

(* Continuation-heavy torture: ctak on all stack configurations. *)
let ctak_prop =
  QCheck.Test.make ~name:"ctak agrees across configurations and operators"
    ~count:8
    QCheck.(
      make
        ~print:(fun (x, y, z) -> Printf.sprintf "(%d,%d,%d)" x y z)
        Gen.(triple (int_range 4 9) (int_range 2 6) (int_range 0 3)))
    (fun (x, y, z) ->
      let rec tak x y z =
        if not (y < x) then z
        else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
      in
      let expected = string_of_int (tak x y z) in
      let run op config =
        Tutil.eval_stack ~config ~corpus:true
          (Printf.sprintf "(set! ctak-capture %s) (ctak %d %d %d)" op x y z)
      in
      List.for_all
        (fun op ->
          List.for_all
            (fun config -> run op config = expected)
            [
              Control.default_config;
              Tutil.tiny_config;
              Tutil.tiny_callcc_config;
              { Control.default_config with Control.copy_bound = 16 };
              Tutil.copy_capture_config;
            ])
        [ "%call/cc"; "%call/1cc"; "call/cc"; "call/1cc" ])

(* Thread systems are deterministic under a per-call timer: the vector of
   per-thread results must be identical across operators, configurations,
   and switch frequencies. *)
let thread_prop =
  QCheck.Test.make ~name:"thread results agree across operators and configs"
    ~count:10
    QCheck.(
      make
        ~print:(fun (n, freq) -> Printf.sprintf "threads=%d freq=%d" n freq)
        Gen.(pair (int_range 2 6) (int_range 1 64)))
    (fun (nthreads, freq) ->
      let src op =
        Printf.sprintf
          {|(let ((results (make-vector %d #f)))
              (run-threads
               (let loop ((i 0) (acc '()))
                 (if (= i %d)
                     acc
                     (loop (+ i 1)
                           (cons (lambda () (vector-set! results i (fib (+ 8 i))))
                                 acc))))
               %d %s)
              results)|}
          nthreads nthreads freq op
      in
      let expected = Tutil.eval_stack ~corpus:true (src "%call/1cc") in
      List.for_all
        (fun (op, config) ->
          Tutil.eval_stack ~corpus:true ~config (src op) = expected)
        [
          ("%call/cc", Control.default_config);
          ("%call/1cc", Tutil.tiny_config);
          ("%call/cc", Tutil.tiny_callcc_config);
          ("%call/1cc",
           { Control.default_config with
             Control.oneshot_seal = Control.Seal_displacement 128 });
        ])

(* ------------------------------------------------------------------ *)
(* Native vs Scheme winders: the native dynamic-wind protocol (winder
   chains on the machines, wind trampoline frames) must be
   observationally identical to the historical prelude implementation,
   across both VMs and the oracle.  Every program is one top-level form:
   cross-form continuation re-entry is a known, documented divergence
   between the oracle and the VMs, so these cases keep all control flow
   inside a single form. *)

let winders_sessions =
  lazy
    (let mk name backend scheme_winders =
       (name, Scheme.create ~backend ~scheme_winders ())
     in
     [
       mk "stack/native" (Scheme.Stack Control.default_config) false;
       mk "stack/scheme" (Scheme.Stack Control.default_config) true;
       mk "stack-tiny/native" (Scheme.Stack Tutil.tiny_config) false;
       mk "closure/native" (Scheme.Closure Control.default_config) false;
       mk "closure/scheme" (Scheme.Closure Control.default_config) true;
       mk "closure-tiny/native" (Scheme.Closure Tutil.tiny_config) false;
       mk "heap/native" Scheme.Heap false;
       mk "heap/scheme" Scheme.Heap true;
       mk "oracle/native" Scheme.Oracle false;
       mk "oracle/scheme" Scheme.Oracle true;
     ])

let winders_cases =
  [
    ( "one-shot escape unwinds nested winds in order",
      {|(let ((trace '()))
          (let ((v (call/1cc (lambda (k)
                     (dynamic-wind
                       (lambda () (set! trace (cons 'b1 trace)))
                       (lambda ()
                         (dynamic-wind
                           (lambda () (set! trace (cons 'b2 trace)))
                           (lambda () (k 'out))
                           (lambda () (set! trace (cons 'a2 trace)))))
                       (lambda () (set! trace (cons 'a1 trace))))))))
            (cons v (reverse trace))))|},
      `Value "(out b1 b2 a2 a1)" );
    ( "multi-shot re-entry rewinds the before guard each time",
      {|(let ((trace '()) (k2 #f) (n 0))
          (dynamic-wind
            (lambda () (set! trace (cons 'before trace)))
            (lambda ()
              (call/cc (lambda (k) (set! k2 k)))
              (set! n (+ n 1))
              (set! trace (cons n trace)))
            (lambda () (set! trace (cons 'after trace))))
          (if (< n 3) (k2 #f))
          (reverse trace))|},
      `Value "(before 1 after before 2 after before 3 after)" );
    ( "switching between sibling extents walks to the common tail",
      {|(let ((trace '()) (kin #f))
          (dynamic-wind
            (lambda () (set! trace (cons 'b1 trace)))
            (lambda ()
              (call/cc (lambda (k) (set! kin k)))
              'body)
            (lambda () (set! trace (cons 'a1 trace))))
          (dynamic-wind
            (lambda () (set! trace (cons 'b2 trace)))
            (lambda ()
              (if (eq? kin 'used)
                  'done
                  (let ((k kin)) (set! kin 'used) (k #f))))
            (lambda () (set! trace (cons 'a2 trace))))
          (reverse trace))|},
      `Value "(b1 a1 b2 a2 b1 a1 b2 a2)" );
    ( "capture inside a before guard is benign",
      {|(let ((seen '()))
          (dynamic-wind
            (lambda () (call/cc (lambda (k) (set! seen (cons 'b seen)))))
            (lambda () (set! seen (cons 'x seen)) 42)
            (lambda () (set! seen (cons 'a seen))))
          (reverse seen))|},
      `Value "(b x a)" );
    ( "second re-entry of a one-shot wound continuation is shot",
      {|(let ((k1 #f) (n 0))
          (dynamic-wind
            (lambda () #t)
            (lambda () (call/1cc (lambda (k) (set! k1 k))) (set! n (+ n 1)))
            (lambda () #t))
          (if (< n 3) (k1 #f))
          n)|},
      `Shot );
  ]

let is_oracle name =
  String.length name >= 6 && String.sub name 0 6 = "oracle"

let winders_suite =
  List.map
    (fun (name, src, expect) ->
      Tutil.case ("winders: " ^ name) (fun () ->
          List.iter
            (fun (sname, s) ->
              match (expect, run_on s src) with
              | `Value v, Value got -> Alcotest.(check string) sname v got
              | `Shot, Error_shot -> ()
              | `Shot, Value _ when is_oracle sname ->
                  (* The oracle over-approximates promotion (oracle.mli):
                     a one-shot record it re-invokes may have been
                     silently promoted, so the shot error need not
                     surface there. *)
                  ()
              | _, got ->
                  Alcotest.failf "%s: unexpected outcome %s on %s" sname
                    (outcome_to_string got) src)
            (Lazy.force winders_sessions)))
    winders_cases

(* ------------------------------------------------------------------ *)
(* Evaluation order: the operator is evaluated after its operands
   (R7RS 4.1.3 leaves the order unspecified) on every backend, the
   oracle included.  Each case runs in a fresh session, since some
   assign standard bindings. *)

let order_cases =
  [
    ( "unbound global operator reports its argument's error",
      "(no-such-procedure (car 5))",
      `Error "car: expected pair" );
    ( "an argument that assigns the global operator calls the new value",
      {|(define (f x) (list 'f x))
        (define (g x) (list 'g x))
        (f (begin (set! f g) 1))|},
      `Value "(g 1)" );
    ( "an argument that assigns a local operator calls the new value",
      "(let ((f car)) (f (begin (set! f cdr) (list 1 2))))",
      `Value "(2)" );
    ( "a computed operator is evaluated after the operands",
      {|(let ((t '()))
          ((begin (set! t (cons 'op t)) list) (begin (set! t (cons 'arg t)) 1))
          t)|},
      `Value "(op arg)" );
    ( "set! of + inside its own fused call deoptimizes the site",
      "(+ (begin (set! + -) 5) 1)",
      `Value "4" );
    ( "set! of + inside the last operand of an in-place fused call",
      "(define (h) (list (+ 1 (begin (set! + -) 5)))) (h)",
      `Value "(-4)" );
  ]

let order_backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

(* Error handlers: a runtime error goes to the innermost [try] handler
   with the faulting operation's continuation on every backend, the
   oracle included, and the handler list is restored on the way out. *)
let handler_cases =
  [
    ( "try catches a call to error",
      "(try (lambda () (error 'boom \"two\")) (lambda (m) 'caught))",
      `Value "caught" );
    ( "try catches a primitive failure inside an argument",
      "(list 'x (try (lambda () (+ 1 (car 5))) (lambda (m) 'caught)) 'y)",
      `Value "(x caught y)" );
    ( "try catches an unbound global",
      "(try (lambda () (no-such-variable 1)) (lambda (m) 'caught))",
      `Value "caught" );
    ( "try catches an arity error",
      "(try (lambda () ((lambda (x) x))) (lambda (m) 'caught))",
      `Value "caught" );
    ( "an error in the inner handler's extent reaches the outer one",
      {|(try (lambda ()
               (list (try (lambda () (error "in")) (lambda (m) 'inner))
                     (car '())))
             (lambda (m) 'outer))|},
      `Value "outer" );
    ( "the handler list is restored after a normal return",
      "(try (lambda () 1) (lambda (m) 2)) %error-handlers",
      `Value "()" );
    ( "an error outside any try is reported",
      "(try (lambda () 1) (lambda (m) 2)) (car 5)",
      `Error "car: expected pair" );
  ]

let on_backends prefix cases =
  List.concat_map
    (fun (name, src, expect) ->
      List.map
        (fun (bname, backend) ->
          Tutil.case (Printf.sprintf "%s: %s [%s]" prefix name bname)
            (fun () ->
              let s = Scheme.create ~backend () in
              match (expect, Scheme.eval_string ~fuel:3_000_000 s src) with
              | `Value v, got -> Alcotest.(check string) src v got
              | `Error _, got -> Alcotest.failf "expected error, got %s" got
              | exception Rt.Scheme_error (msg, _) -> (
                  match expect with
                  | `Error sub ->
                      if not (Tutil.contains ~sub msg) then
                        Alcotest.failf "error %S does not mention %S" msg sub
                  | `Value _ -> Alcotest.failf "unexpected error %S" msg)))
        order_backends)
    cases

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ diff_prop; depth_prop; ctak_prop; thread_prop ]
  @ winders_suite
  @ on_backends "order" order_cases
  @ on_backends "error handlers" handler_cases
