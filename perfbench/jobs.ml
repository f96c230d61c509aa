(* Seeded job streams for the benchmark workloads.

   A workload is a round of jobs generated from the seed; the closed
   loop cycles through the round.  Every cost-bearing parameter is
   drawn by [spread]: across one round each level of the parameter
   occurs equally often, in a seeded order and seeded combination with
   the other parameters.  Different seeds therefore give different
   programs with nearly the same total work, which keeps the measured
   rates comparable from one seed to the next. *)

type workload = Oneshot | Multishot | Corpus | Compile

let workloads =
  [ ("oneshot", Oneshot); ("multishot", Multishot); ("corpus", Corpus);
    ("compile", Compile) ]

let workload_of_string s =
  match List.assoc_opt s workloads with
  | Some w -> w
  | None -> invalid_arg ("unknown workload: " ^ s)

let backend_name = function
  | Corpus -> "closure"
  | Oneshot | Multishot | Compile -> "stack"

let backend w : Scheme.backend =
  match w with
  | Corpus -> Closure Control.default_config
  | Oneshot | Multishot | Compile -> Stack Control.default_config

(* The corpus definitions (fib, ctak, deep, the thread scheduler, ...)
   are part of the session for every workload but [compile], whose jobs
   each start from a fresh prelude-only session. *)
let uses_corpus = function Compile -> false | _ -> true
let fresh_session_per_job = function Compile -> true | _ -> false

(* Where a job's expected value comes from: a native OCaml reference
   computed from the generator's parameters, or the CPS [Oracle]
   backend (run in a separate process, outside the measured region). *)
type reference = Native of string | By_oracle

type job = { kind : string; src : string; reference : reference }

(* ---- splitmix64: a PRNG fixed by this file, not by the stdlib ---- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [m] values over [levels], each level taking an equal share (up to
   rounding), in seeded order. *)
let spread r m levels =
  let l = Array.of_list levels in
  let k = Array.length l in
  let a = Array.init m (fun j -> l.(j * k / m)) in
  shuffle r a;
  a

(* ---- native references ---- *)

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let rec tak x y z =
  if not (y < x) then z else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)

let rec ack m n =
  if m = 0 then n + 1 else if n = 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1))

let queens n =
  let rec ok row dist = function
    | [] -> true
    | p :: rest -> p <> row + dist && p <> row - dist && p <> row && ok row (dist + 1) rest
  in
  let rec go row placed col =
    if col = n then 1
    else if row = n then 0
    else
      (if ok row 1 placed then go 0 (row :: placed) (col + 1) else 0)
      + go (row + 1) placed col
  in
  go 0 [] 0

let native n = Native (string_of_int n)

(* Round robin over the kinds, each kind in its own seeded order: heavy
   jobs never cluster, so the latency tail and the heap's high-water
   mark depend little on the seed. *)
let rotate kinds =
  let m = Array.length (List.hd kinds) in
  List.concat (List.init m (fun i -> List.map (fun a -> a.(i)) kinds))

(* ---- oneshot / multishot: the paper's control workloads ---- *)

(* One job shape, rendered under either capture operator. *)
type shape =
  | Threads of int list * int  (** per-thread fib sizes, preemption period *)
  | Ctak of int * int * int
  | Deep of int

(* Every thread job computes fib 15 + fib 15 = 1220 worth of fib calls,
   split over 2, 3 or 4 threads in a seeded order, and every ctak job
   makes 2809 tak calls: within a kind, cost depends on the preemption
   period and the recursion depth only, so the latency tail does not
   hinge on which combinations a seed happens to draw. *)
let thread_splits = [| [ 15; 15 ]; [ 13; 14; 15 ]; [ 13; 13; 14; 14 ] |]

let shapes seed =
  let r = rng seed in
  let per_kind = 120 in
  let split = spread r per_kind [ 0; 1; 2 ] in
  let freq = spread r per_kind [ 1; 4; 16; 64 ] in
  let threads =
    Array.init per_kind (fun i ->
        let ns = Array.of_list thread_splits.(split.(i)) in
        shuffle r ns;
        Threads (Array.to_list ns, freq.(i)))
  in
  let ctak =
    Array.map
      (fun (x, y, z) -> Ctak (x, y, z))
      (spread r per_kind [ (14, 9, 5); (13, 8, 4); (12, 7, 3); (11, 6, 2); (10, 5, 1); (9, 4, 0) ])
  in
  let deep = Array.map (fun n -> Deep n) (spread r per_kind [ 6000; 7000; 8000; 9000 ]) in
  rotate [ threads; ctak; deep ]

let render op = function
  | Threads (ns, freq) ->
      (* Each thread finishes its computation before it touches the
         shared sum: [(set! acc (+ acc (fib n)))] would read [acc]
         before the preemptible call and lose updates. *)
      let thunk n =
        Printf.sprintf "(lambda () (let ((v (fib %d))) (set! acc (+ acc v))))" n
      in
      { kind = "threads";
        src =
          Printf.sprintf "(let ((acc 0)) (run-threads (list %s) %d %s) acc)"
            (String.concat " " (List.map thunk ns)) freq op;
        reference = native (List.fold_left (fun s n -> s + fib n) 0 ns) }
  | Ctak (x, y, z) ->
      { kind = "ctak";
        src = Printf.sprintf "(begin (set! ctak-capture %s) (ctak %d %d %d))" op x y z;
        reference = native (tak x y z) }
  | Deep n -> { kind = "deep"; src = Printf.sprintf "(deep %d)" n; reference = native n }

(* Multi-shot only: re-enter a continuation captured at the bottom of a
   deep recursion [times] times (copying with splitting), and run an amb
   search inside a generator, so [%call/cc] captures a chain holding the
   generator's one-shot records (promotion).  Both are small in
   instructions next to the shared shapes. *)
let reenter depth times =
  { kind = "reenter";
    src =
      Printf.sprintf
        "(let ((k #f) (n 0))\n\
        \  (letrec ((down (lambda (d) (if (= d 0) (%%call/cc (lambda (c) (set! k c) 0)) (+ 1 (down (- d 1)))))))\n\
        \    (let ((v (down %d)))\n\
        \      (set! n (+ n 1))\n\
        \      (if (< n %d) (k n) (+ v n)))))"
        depth times;
    reference = By_oracle }

let gen_amb limit count =
  { kind = "gen-amb";
    src =
      Printf.sprintf
        "(let ((fail #f))\n\
        \  (define (choose lo hi)\n\
        \    (%%call/cc\n\
        \     (lambda (k)\n\
        \       (let ((prev fail))\n\
        \         (let try ((i lo))\n\
        \           (if (> i hi)\n\
        \               (begin (set! fail prev) (prev))\n\
        \               (begin\n\
        \                 (%%call/cc (lambda (retry) (set! fail (lambda () (retry #f))) (k i)))\n\
        \                 (try (+ i 1)))))))))\n\
        \  (let ((g (make-generator\n\
        \            (lambda (yield)\n\
        \              (%%call/cc\n\
        \               (lambda (done)\n\
        \                 (set! fail (lambda () (done 'end)))\n\
        \                 (let* ((a (choose 1 %d)) (b (choose a %d)) (c (choose b %d)))\n\
        \                   (if (= (+ (* a a) (* b b)) (* c c)) (yield (+ a b c)))\n\
        \                   (fail))))))))\n\
        \    (let loop ((i 0) (sum 0))\n\
        \      (if (= i %d)\n\
        \          sum\n\
        \          (let ((x (g)))\n\
        \            (if (eq? (car x) 'done) sum (loop (+ i 1) (+ sum (cdr x)))))))))"
        limit limit limit count;
    reference = By_oracle }

let multishot_extras seed =
  let r = rng (seed lxor 0x5eed) in
  let n = 12 in
  let depth = spread r n [ 300; 600 ] and times = spread r n [ 2; 3 ] in
  let limit = spread r n [ 9; 12 ] and count = spread r n [ 1; 2 ] in
  List.init n (fun i -> reenter depth.(i) times.(i))
  @ List.init n (fun i -> gen_amb limit.(i) count.(i))

(* Insert each extra at a seeded position of [base]. *)
let interleave r base extras =
  let a = Array.of_list base in
  let n = Array.length a in
  let slots = Array.make n [] in
  List.iter (fun e -> let i = int r n in slots.(i) <- e :: slots.(i)) extras;
  List.concat (List.init n (fun i -> a.(i) :: List.rev slots.(i)))

(* ---- corpus: closure-backend dispatch, no continuations ---- *)

let corpus seed =
  let r = rng seed in
  let m = 60 in
  let kinds =
    [ Array.map (fun n -> ("fib", Printf.sprintf "(fib %d)" n, native (fib n)))
        (spread r m [ 15; 16; 17; 18 ]);
      Array.map
        (fun (x, y, z) -> ("tak", Printf.sprintf "(tak %d %d %d)" x y z, native (tak x y z)))
        (spread r m [ (10, 5, 0); (12, 7, 2); (13, 8, 3) ]);
      Array.map (fun n -> ("ack", Printf.sprintf "(ack 2 %d)" n, native (ack 2 n)))
        (spread r m [ 40; 60; 80; 100 ]);
      Array.map (fun n -> ("queens", Printf.sprintf "(queens-count %d)" n, native (queens n)))
        (spread r m [ 5; 6 ]);
      Array.map (fun d -> ("boyer", Printf.sprintf "(boyer-run %d)" d, By_oracle))
        (spread r m [ 7; 8; 9 ]);
      Array.map
        (fun (x, y, z) -> ("takl", Printf.sprintf "(takl %d %d %d)" x y z, By_oracle))
        (spread r m [ (12, 8, 4); (11, 6, 2) ]);
      Array.map
        (fun (s, i) -> ("mandel", Printf.sprintf "(mandel-count %d %d)" s i, By_oracle))
        (spread r m [ (8, 30); (10, 25); (12, 20) ]) ]
  in
  List.map (fun (kind, src, reference) -> { kind; src; reference }) (rotate kinds)

(* ---- compile: front-end-heavy generated programs ---- *)

(* A full arithmetic tree of the given depth over the parameters [a] and
   [b]; constants stay small so values remain fixnums. *)
let rec arith r depth =
  if depth = 0 then
    match int r 3 with 0 -> "a" | 1 -> "b" | _ -> string_of_int (int r 10)
  else
    match int r 3 with
    | 0 -> Printf.sprintf "(+ %s %s)" (arith r (depth - 1)) (arith r (depth - 1))
    | 1 -> Printf.sprintf "(- %s %s)" (arith r (depth - 1)) (arith r (depth - 1))
    | _ -> Printf.sprintf "(* %d %s)" (1 + int r 3) (arith r (depth - 1))

let macros =
  "(define-syntax my-sum\n\
  \  (syntax-rules () ((_) 0) ((_ x y ...) (+ x (my-sum y ...)))))\n\
   (define-syntax my-let*\n\
  \  (syntax-rules ()\n\
  \    ((_ () body ...) (let () body ...))\n\
  \    ((_ ((n v) rest ...) body ...) (let ((n v)) (my-let* (rest ...) body ...)))))\n\
   (define-syntax swap!\n\
  \  (syntax-rules () ((_ x y) (let ((tmp x)) (set! x y) (set! y tmp)))))\n\
   (define-syntax pairs-sum\n\
  \  (syntax-rules () ((_ (p q) ...) (my-sum (- p q) ...))))\n"

let program r =
  let b = Buffer.create 4096 in
  Buffer.add_string b macros;
  let nfun = 24 in
  let depths = spread r nfun [ 2; 3; 4; 5; 6 ] in
  for i = 0 to nfun - 1 do
    Printf.bprintf b "(define (f%d a b) %s)\n" i (arith r depths.(i))
  done;
  let nwide = 6 in
  let widths = spread r nwide [ 8; 10; 12; 14 ] in
  for i = 0 to nwide - 1 do
    let w = widths.(i) in
    let vars = List.init w (fun j -> Printf.sprintf "v%d" j) in
    let binds =
      List.mapi (fun j v -> Printf.sprintf "(%s (f%d x %d))" v (int r nfun) j) vars
    in
    Printf.bprintf b
      "(define (w%d x)\n  (let (%s)\n    (swap! v0 v1)\n    (my-let* ((s (my-sum %s)) (t (pairs-sum (v0 v1) (v2 v3)))) (+ s t))))\n"
      i (String.concat " " binds) (String.concat " " vars)
  done;
  let calls =
    List.init nfun (fun i -> Printf.sprintf "(f%d %d %d)" i (int r 50) (int r 50))
    @ List.init nwide (fun i -> Printf.sprintf "(w%d %d)" i (int r 50))
  in
  Printf.bprintf b "(my-sum %s)\n" (String.concat " " calls);
  Buffer.contents b

let compile_round seed =
  let r = rng seed in
  List.init 80 (fun _ -> { kind = "program"; src = program r; reference = By_oracle })

(* ---- rounds ---- *)

let round w seed =
  match w with
  | Oneshot -> List.map (render "%call/1cc") (shapes seed)
  | Multishot ->
      interleave (rng (seed lxor 0x1e4f)) (List.map (render "%call/cc") (shapes seed))
        (multishot_extras seed)
  | Corpus -> corpus seed
  | Compile -> compile_round seed

(* The round as text: the form the determinism self-check compares. *)
let listing jobs =
  String.concat "" (List.map (fun j -> Printf.sprintf ";; %s\n%s\n" j.kind j.src) jobs)
