(* Deterministic performance-counter regression tests.

   The dispatch loop batches its instruction counting per landing and the
   call path was rewritten around interned return addresses; these tests
   pin the deterministic counters (instruction, call, frame and capture
   counts) for representative workloads across backends so any future
   change to the hot path that silently alters execution shape fails
   loudly.  Regenerate the table with

     dune exec test/gen_counters.exe

   (keep the configs/workloads there in sync with this file) and justify
   any diff in review.

   Also here: the two allocation-discipline tests the interpreter-core
   overhaul is accountable to — a non-tail call must not allocate its
   return address, and batched fuel/instruction accounting must stay
   exact to the single instruction. *)

let case = Tutil.case

let counter_names =
  [
    "instrs";
    "calls";
    "frames";
    "prim-calls";
    "captures-multi";
    "captures-oneshot";
    "words-copied";
    "cache-class-hits";
    "tmpl-codes";
    "tmpl-steps";
    "tmpl-enters";
  ]

let tiny_config =
  { Control.default_config with seg_words = 128; hysteresis_words = 24 }

(* (backend, peephole, regalloc).  The -noreg rows run the full peephole
   pipeline minus the register-lowering stage (--no-regalloc): they must
   reproduce the pre-regalloc instruction counts exactly, pinning the
   escape hatch as a faithful image of the old encoding. *)
let configs =
  [
    ("stack", (Scheme.Stack Control.default_config, true, true));
    ("stack-noreg", (Scheme.Stack Control.default_config, true, false));
    ("stack-nofuse", (Scheme.Stack Control.default_config, false, true));
    ("stack-tiny", (Scheme.Stack tiny_config, true, true));
    ("closure", (Scheme.Closure Control.default_config, true, true));
    ("closure-noreg", (Scheme.Closure Control.default_config, true, false));
    ("closure-nofuse", (Scheme.Closure Control.default_config, false, true));
    ("closure-tiny", (Scheme.Closure tiny_config, true, true));
    ("heap", (Scheme.Heap, true, true));
    ("heap-noreg", (Scheme.Heap, true, false));
  ]

let workloads =
  [
    ("fib", "(fib 13)");
    ("ctak-cc", "(set! ctak-capture %call/cc) (ctak 12 8 4)");
    ("ctak-1cc", "(set! ctak-capture %call/1cc) (ctak 12 8 4)");
    ( "threads",
      "(run-threads (list (lambda () (fib 9)) (lambda () (fib 10))) 16 \
       %call/1cc)" );
  ]

(* instrs / calls / frames / prim-calls / captures-multi /
   captures-oneshot / words-copied / cache-class-hits / tmpl-codes /
   tmpl-steps / tmpl-enters, in [counter_names] order.  Generated by
   test/gen_counters.exe.

   [cache-class-hits] pins the O(1) exact-size-class pop of the
   segment cache: ctak-1cc's one-shot adopt/release loop must recycle
   nearly every segment through its exact class; the heap backend has
   no segment machine, so it pins 0.

   The closure rows pin two properties of the template-compiled backend
   at once: every semantic counter (the first eight columns) is
   byte-identical to the stack row for the same workload — the backends
   share the control substrate and the slow paths, so any divergence is
   a compilation bug — while the tmpl-* columns pin the closure
   backend's own shape (codes compiled per eval, step closures built,
   dispatch-loop re-entries after slow paths).  Only the closure rows
   have nonzero tmpl-* values. *)
let pinned =
  [
    (("stack", "fib"), [ 6402; 753; 752; 1881; 0; 0; 0; 1; 0; 0; 0 ]);
    (("stack", "ctak-cc"), [ 28608; 3034; 1299; 6065; 1300; 0; 15588; 2; 0; 0; 0 ]);
    (("stack", "ctak-1cc"), [ 28608; 3034; 1299; 6065; 0; 1300; 0; 1291; 0; 0; 0 ]);
    (("stack", "threads"), [ 3049; 342; 291; 860; 0; 19; 0; 17; 0; 0; 0 ]);
    (("stack-noreg", "fib"), [ 9788; 753; 752; 1881; 0; 0; 0; 1; 0; 0; 0 ]);
    (("stack-noreg", "ctak-cc"), [ 35106; 3034; 1299; 6065; 1300; 0; 15588; 2; 0; 0; 0 ]);
    (("stack-noreg", "ctak-1cc"), [ 35106; 3034; 1299; 6065; 0; 1300; 0; 1291; 0; 0; 0 ]);
    (("stack-noreg", "threads"), [ 4378; 342; 291; 860; 0; 19; 0; 17; 0; 0; 0 ]);
    (("stack-nofuse", "fib"), [ 18067; 753; 752; 1881; 0; 0; 0; 1; 0; 0; 0 ]);
    (("stack-nofuse", "ctak-cc"), [ 62404; 3034; 1299; 6065; 1300; 0; 15588; 2; 0; 0; 0 ]);
    (("stack-nofuse", "ctak-1cc"), [ 62404; 3034; 1299; 6065; 0; 1300; 0; 1291; 0; 0; 0 ]);
    (("stack-nofuse", "threads"), [ 8066; 342; 291; 860; 0; 19; 0; 17; 0; 0; 0 ]);
    (("stack-tiny", "fib"), [ 6402; 753; 752; 1881; 0; 0; 0; 1; 0; 0; 0 ]);
    (("stack-tiny", "ctak-cc"), [ 28608; 3034; 1299; 6065; 1300; 0; 15975; 2; 0; 0; 0 ]);
    (("stack-tiny", "ctak-1cc"), [ 28608; 3034; 1299; 6065; 0; 1300; 0; 1291; 0; 0; 0 ]);
    (("stack-tiny", "threads"), [ 3049; 342; 291; 860; 0; 19; 0; 17; 0; 0; 0 ]);
    (("closure", "fib"), [ 6402; 753; 752; 1881; 0; 0; 0; 1; 1; 5; 1 ]);
    (("closure", "ctak-cc"), [ 28608; 3034; 1299; 6065; 1300; 0; 15588; 2; 2; 11; 2602 ]);
    (("closure", "ctak-1cc"), [ 28608; 3034; 1299; 6065; 0; 1300; 0; 1291; 2; 11; 2602 ]);
    (("closure", "threads"), [ 3049; 342; 291; 860; 0; 19; 0; 17; 3; 21; 58 ]);
    (("closure-noreg", "fib"), [ 9788; 753; 752; 1881; 0; 0; 0; 1; 1; 5; 1 ]);
    (("closure-noreg", "ctak-cc"), [ 35106; 3034; 1299; 6065; 1300; 0; 15588; 2; 2; 11; 2602 ]);
    (("closure-noreg", "ctak-1cc"), [ 35106; 3034; 1299; 6065; 0; 1300; 0; 1291; 2; 11; 2602 ]);
    (("closure-noreg", "threads"), [ 4378; 342; 291; 860; 0; 19; 0; 17; 3; 22; 58 ]);
    (("closure-nofuse", "fib"), [ 18067; 753; 752; 1881; 0; 0; 0; 1; 1; 7; 377 ]);
    (("closure-nofuse", "ctak-cc"), [ 62404; 3034; 1299; 6065; 1300; 0; 15588; 2; 2; 15; 2602 ]);
    (("closure-nofuse", "ctak-1cc"), [ 62404; 3034; 1299; 6065; 0; 1300; 0; 1291; 2; 15; 2602 ]);
    (("closure-nofuse", "threads"), [ 8066; 342; 291; 860; 0; 19; 0; 17; 3; 31; 201 ]);
    (("closure-tiny", "fib"), [ 6402; 753; 752; 1881; 0; 0; 0; 1; 1; 5; 1 ]);
    (("closure-tiny", "ctak-cc"), [ 28608; 3034; 1299; 6065; 1300; 0; 15975; 2; 2; 11; 2731 ]);
    (("closure-tiny", "ctak-1cc"), [ 28608; 3034; 1299; 6065; 0; 1300; 0; 1291; 2; 11; 2602 ]);
    (("closure-tiny", "threads"), [ 3049; 342; 291; 860; 0; 19; 0; 17; 3; 21; 58 ]);
    (("heap", "fib"), [ 6402; 753; 752; 1881; 0; 0; 0; 0; 0; 0; 0 ]);
    (("heap", "ctak-cc"), [ 28608; 3034; 1299; 6065; 1300; 0; 0; 0; 0; 0; 0 ]);
    (("heap", "ctak-1cc"), [ 28608; 3034; 1299; 6065; 0; 1300; 0; 0; 0; 0; 0 ]);
    (("heap", "threads"), [ 3049; 342; 291; 860; 0; 19; 0; 0; 0; 0; 0 ]);
    (("heap-noreg", "fib"), [ 9788; 753; 752; 1881; 0; 0; 0; 0; 0; 0; 0 ]);
    (("heap-noreg", "ctak-cc"), [ 35106; 3034; 1299; 6065; 1300; 0; 0; 0; 0; 0; 0 ]);
    (("heap-noreg", "ctak-1cc"), [ 35106; 3034; 1299; 6065; 0; 1300; 0; 0; 0; 0; 0 ]);
    (("heap-noreg", "threads"), [ 4378; 342; 291; 860; 0; 19; 0; 0; 0; 0; 0 ]);
  ]

let run_workload cname wname =
  let backend, peephole, regalloc = List.assoc cname configs in
  let src = List.assoc wname workloads in
  let stats = Stats.create () in
  let s =
    Scheme.create ~backend ~stats
      ~options:{ Compiler.default_options with peephole; regalloc } ()
  in
  Scheme.load_corpus s;
  Stats.reset stats;
  ignore (Scheme.eval ~fuel:Tutil.default_fuel s src);
  stats

let pinned_cases =
  List.map
    (fun ((cname, wname), expected) ->
      case (Printf.sprintf "%s: pinned counters [%s]" wname cname) (fun () ->
          let stats = run_workload cname wname in
          List.iter2
            (fun name exp ->
              Alcotest.(check int) name exp (Stats.get stats name))
            counter_names expected))
    pinned

(* The batched accounting must stay exact: consuming the whole fuel
   budget must leave exactly [fuel] instructions in the counter, no
   matter where inside a landing the budget ran out. *)
let fuel_exactness fuel =
  case (Printf.sprintf "instrs = fuel at exhaustion (fuel=%d)" fuel)
    (fun () ->
      let stats = Stats.create () in
      let s = Scheme.create ~stats () in
      Scheme.load_corpus s;
      Stats.reset stats;
      match Scheme.eval ~fuel s "(fib 20)" with
      | _ -> Alcotest.fail "expected fuel exhaustion"
      | exception Vm.Vm_fuel_exhausted ->
          Alcotest.(check int) "instrs" fuel stats.Stats.instrs)

(* A non-tail call to a closure must not allocate: the return address is
   interned per call site by [Bytecode.backpatch], the argument paths
   reuse scratch buffers.  Compare the minor-heap growth of a loop whose
   body performs one extra non-tail closure call per iteration against
   the same loop without it; the per-iteration delta must be well under
   one boxed return-address record (4 words). *)
let zero_alloc_call ~peephole =
  case
    (Printf.sprintf "non-tail call allocates nothing [peephole %s]"
       (if peephole then "on" else "off"))
    (fun () ->
      let iters = 200_000 in
      let s =
        Scheme.create ~options:{ Compiler.default_options with peephole } ()
      in
      ignore
        (Scheme.eval ~fuel:Tutil.default_fuel s
           "(define (id x) x)\n\
            (define (loop-a n) (if (eq? n 0) 0 (loop-a (- n 1))))\n\
            (define (loop-b n) (if (eq? n 0) 0 (loop-b (- n (id 1)))))");
      let minor_words src =
        (* settle, then measure *)
        ignore (Scheme.eval ~fuel:Tutil.default_fuel s src);
        let w0 = Gc.minor_words () in
        ignore (Scheme.eval ~fuel:Tutil.default_fuel s src);
        Gc.minor_words () -. w0
      in
      let base = minor_words (Printf.sprintf "(loop-a %d)" iters) in
      let with_call = minor_words (Printf.sprintf "(loop-b %d)" iters) in
      let per_iter = (with_call -. base) /. float_of_int iters in
      if per_iter >= 2.0 then
        Alcotest.failf
          "non-tail call allocates %.3f words/iteration (loop-a %.0f, \
           loop-b %.0f)"
          per_iter base with_call)

(* Minor words per iteration of the loop [src iters], measured at [n]
   and [2n] iterations and the difference divided by [n], so the compile
   of the driving form and the call set-up cancel out. *)
let words_per_iter ?(n = 100_000) s src =
  let words iters =
    let src = src iters in
    (* settle, then measure *)
    ignore (Scheme.eval ~fuel:Tutil.default_fuel s src);
    let w0 = Gc.minor_words () in
    ignore (Scheme.eval ~fuel:Tutil.default_fuel s src);
    Gc.minor_words () -. w0
  in
  (words (2 * n) -. words n) /. float_of_int n

(* Primitive results allocate nothing beyond the result value: a fixnum
   sum in the shared small-fixnum range allocates nothing, one outside
   it boxes one [Int] (2 words), a flonum sum one [Flo], a predicate
   returns a shared boolean, and an accessor an existing value.  The
   fixed-arity calls reach the primitive's direct entry, so no argument
   array is built either — on the fused sites and, under --no-peephole,
   on the generic pure call. *)
let prim_alloc (bname, backend, peephole) =
  let per_iter ?n s fn arg =
    words_per_iter ?n s (fun iters ->
        Printf.sprintf "(%s 0 %d %s)" fn iters arg)
  in
  let session () =
    let s =
      Scheme.create ~backend
        ~options:{ Compiler.default_options with peephole } ()
    in
    ignore
      (Scheme.eval ~fuel:Tutil.default_fuel s
         "(define (count i n x) (if (< i n) (count (+ i 1) n x) i))\n\
          (define (preds i n x)\n\
         \  (if (< i n)\n\
         \      (preds (if (pair? x) (if (null? x) i (if (eq? x i) i (+ i 1))) i)\n\
         \             n x)\n\
         \      i))\n\
          (define (access i n x)\n\
         \  (if (< i n)\n\
         \      (access (if (eq? (car (cdr (vector-ref x 0))) 2) (+ i 1) i) n x)\n\
         \      i))\n\
          (define (flo i n x) (if (< i n) (flo (+ i 1) n (+ x 1.5)) i))\n\
          (define (inner i n) (if (< i n) (inner (+ i 1) n) i))\n\
          (define (outer j k x)\n\
         \  (if (< j k) (begin (inner 0 1000) (outer (+ j 1) k x)) j))\n\
          (define (conses i n x) (if (< i n) (conses (+ i 1) n (cons i '())) i))\n\
          (define (boxes i n x) (set! x i) (if (< i n) (boxes (+ i 1) n x) i))\n\
          (define (clos1 i n x) (if (< i n) (clos1 (+ i 1) n (lambda () i)) i))\n\
          (define (clos2 i n x)\n\
         \  (if (< i n) (clos2 (+ i 1) n (lambda () (+ i n))) i))\n\
          (define (revs i n x) (if (< i n) (revs (if (pair? (reverse x)) (+ i 1) i) n x) i))\n\
          (define (revs0 i n x) (if (< i n) (revs0 (if (pair? (append x)) (+ i 1) i) n x) i))\n\
          (define (apps i n x)\n\
         \  (if (< i n) (apps (if (pair? (append x '(0))) (+ i 1) i) n x) i))\n\
          (define (apps0 i n x)\n\
         \  (if (< i n) (apps0 (if (pair? (list-tail x 0)) (+ i 1) i) n x) i))\n\
          (define (lists i n x) (if (< i n) (lists (if (list? x) (+ i 1) i) n x) i))");
    s
  in
  let name what =
    Printf.sprintf "%s [%s%s]" what bname (if peephole then "" else " no-peephole")
  in
  let flo_words = Obj.reachable_words (Obj.repr (Rt.Flo 1.5)) in
  let bounds =
    [
      (* Every counter of [outer] and [inner] stays inside the shared
         table, so the loop allocates nothing; measured at 100 and 200
         outer iterations of 1000 inner ones each. *)
      case (name "in-range fixnum loop allocates nothing") (fun () ->
          let w = per_iter ~n:100 (session ()) "outer" "0" /. 1000. in
          if w > 0.01 then
            Alcotest.failf
              "(< i n)/(+ i 1) loop below 1000 allocates %.3f words/iteration" w);
      (* [count] runs past the table, so this bounds the boxed result. *)
      case (name "fixnum loop allocates <= 2 words/iteration") (fun () ->
          let w = per_iter (session ()) "count" "(list 1)" in
          if w > 2.0 then
            Alcotest.failf "(< i n)/(+ i 1) loop allocates %.3f words/iteration" w);
      case (name "null?/pair?/eq? allocate nothing") (fun () ->
          let s = session () in
          let w = per_iter s "preds" "(list 1)" -. per_iter s "count" "(list 1)" in
          if Float.abs w > 0.01 then
            Alcotest.failf "null?/pair?/eq? allocate %.3f words/iteration" w);
      case (name "car/cdr/vector-ref/eq? allocate nothing") (fun () ->
          let s = session () in
          let w =
            per_iter s "access" "(vector (list 1 2))" -. per_iter s "count" "(list 1)"
          in
          if Float.abs w > 0.01 then
            Alcotest.failf "car/cdr/vector-ref/eq? allocate %.3f words/iteration" w);
      case (name "flonum sum allocates only its box") (fun () ->
          let s = session () in
          let w = per_iter s "flo" "0.5" -. per_iter s "count" "(list 1)" in
          if w > float_of_int flo_words +. 0.01 then
            Alcotest.failf "(+ x 1.5) allocates %.3f words/iteration (box: %d)" w
              flo_words);
    ]
  in
  (* One block per object: a pair is its header and two fields, a box
     its header and one, a closure its header, code and free-variable
     vector.  The list primitives allocate only the pairs of their
     result.  Each loop is measured net of a control loop of the same
     frame size, since a heap frame is allocated at its code's full
     extent: [(append x)] and [(list-tail x 0)] return [x] itself. *)
  let pins =
    List.map
      (fun (what, fn, control, arg, words) ->
        case (name (Printf.sprintf "%s allocates %d words" what words))
          (fun () ->
            let s = session () in
            let per_iter = per_iter ~n:10_000 s in
            let w = per_iter fn arg -. per_iter control arg in
            if Float.abs (w -. float_of_int words) > 0.01 then
              Alcotest.failf "%s allocates %.3f words/iteration, not %d" what w
                words))
      [
        ("cons", "conses", "count", "0", 3);
        ("a box", "boxes", "count", "0", 2);
        ("a closure over 1 free variable", "clos1", "count", "0", 3 + 2);
        ("a closure over 2 free variables", "clos2", "count", "0", 3 + 3);
        ("reverse of 1 element", "revs", "revs0", "(list 1)", 3);
        ("reverse of 5 elements", "revs", "revs0", "(list 1 2 3 4 5)", 3 * 5);
        ("append of 1 element", "apps", "apps0", "(list 1)", 3 * 1);
        ("append of 5 elements", "apps", "apps0", "(list 1 2 3 4 5)", 3 * 5);
        ("list? of 5 elements", "lists", "count", "(list 1 2 3 4 5)", 0);
        ("null? and pair?", "preds", "count", "(list 1 2 3 4 5)", 0);
      ]
  in
  (* A heap frame is allocated per call, so the loop bounds hold on the
     stack policies only. *)
  match backend with Scheme.Heap -> pins | _ -> bounds @ pins

let prim_alloc_cases =
  List.concat_map prim_alloc
    [
      ("stack", Scheme.Stack Control.default_config, true);
      ("closure", Scheme.Closure Control.default_config, true);
      ("heap", Scheme.Heap, true);
      ("stack", Scheme.Stack Control.default_config, false);
      ("closure", Scheme.Closure Control.default_config, false);
      ("heap", Scheme.Heap, false);
    ]

(* A continuation round trip on the segmented stack allocates a fixed
   handful of words: one stack record (8), the [Cont] value (4) and the
   receiver closure over [i] (5).  Capture draws its fresh segment from the cache
   and reinstatement parks the abandoned one there, both in place; the
   promotion flag of a lone one-shot record is the shared unwritten one;
   links and underflow results are unboxed.  Each loop is measured net
   of the same loop without the capture, so the fixnum boxes of
   [(+ 1 ...)] cancel.  The paper's E1 claim is the ordering: a
   one-shot round trip never costs more than a multi-shot one. *)
let roundtrip_words = 17.

let roundtrip_alloc (bname, backend) =
  case (Printf.sprintf "continuation round trips allocate <= %.0f words [%s]"
          roundtrip_words bname)
    (fun () ->
      let s = Scheme.create ~backend () in
      ignore
        (Scheme.eval ~fuel:Tutil.default_fuel s
           "(define (plain i n) (if (< i n) (plain (+ 1 i) n) i))\n\
            (define (throw1 i n)\n\
           \  (if (< i n) (throw1 (+ 1 (%call/1cc (lambda (k) (k i)))) n) i))\n\
            (define (return1 i n)\n\
           \  (if (< i n) (return1 (+ 1 (%call/1cc (lambda (k) i))) n) i))\n\
            (define (throwm i n)\n\
           \  (if (< i n) (throwm (+ 1 (%call/cc (lambda (k) (k i)))) n) i))");
      let per_iter fn =
        words_per_iter ~n:50_000 s (Printf.sprintf "(%s 0 %d)" fn)
      in
      let plain = per_iter "plain" in
      let throw1 = per_iter "throw1" -. plain in
      let return1 = per_iter "return1" -. plain in
      let throwm = per_iter "throwm" -. plain in
      let report () =
        Printf.sprintf
          "call/1cc throw %.2f, call/1cc return %.2f, call/cc throw %.2f \
           words/round trip"
          throw1 return1 throwm
      in
      if throw1 > roundtrip_words +. 0.01 || return1 > roundtrip_words +. 0.01
      then Alcotest.failf "over %.0f words: %s" roundtrip_words (report ());
      if throw1 > throwm +. 0.01 || return1 > throwm +. 0.01 then
        Alcotest.failf "call/1cc costs more than call/cc: %s" (report ()))

let roundtrip_alloc_cases =
  List.map roundtrip_alloc
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
    ]

(* The closure backend deliberately relaxes the fuel check to basic-block
   boundaries (closurevm.mli): exhaustion may be detected up to one block
   late, so [instrs] can overshoot [fuel] by a bounded amount but must
   never undershoot it, and the exception must be the unified one. *)
let closure_fuel_exhaustion fuel =
  case
    (Printf.sprintf "closure: fuel detected at block end (fuel=%d)" fuel)
    (fun () ->
      let stats = Stats.create () in
      let s =
        Scheme.create ~backend:(Scheme.Closure Control.default_config) ~stats ()
      in
      Scheme.load_corpus s;
      Stats.reset stats;
      match Scheme.eval ~fuel s "(fib 20)" with
      | _ -> Alcotest.fail "expected fuel exhaustion"
      | exception Vm.Vm_fuel_exhausted ->
          if stats.Stats.instrs < fuel then
            Alcotest.failf "instrs %d undershoots fuel %d" stats.Stats.instrs
              fuel)

(* The compile-once shared prelude: a session "loads" the prelude by
   copying the image's global-slot delta, so it dispatches *zero*
   instructions (and compiles nothing, and executes nothing) between
   machine creation and its first user form.  Pinned exactly — any
   regression here means per-session startup work crept back in. *)
let startup_instrs_zero (bname, backend) =
  case (Printf.sprintf "startup dispatches zero instructions [%s]" bname)
    (fun () ->
      let stats = Stats.create () in
      let s = Scheme.create ~backend ~stats () in
      Alcotest.(check int) "startup instrs" 0 stats.Stats.instrs;
      Alcotest.(check int) "startup calls" 0 stats.Stats.calls;
      (* ... and the image really did load: prelude bindings resolve. *)
      Alcotest.(check string) "prelude loaded" "(1 4 9)"
        (Scheme.eval_string ~fuel:Tutil.default_fuel s
           "(map (lambda (x) (* x x)) (list 1 2 3))"))

let startup_cases =
  List.map startup_instrs_zero
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
      ("heap", Scheme.Heap);
    ]
  @ [
      case "prelude image is built once per configuration" (fun () ->
          let before = Prelude_image.builds () in
          (* Same-key sessions across all three bytecode backends reuse
             one image; only a new configuration key may build. *)
          List.iter
            (fun backend -> ignore (Scheme.create ~backend ()))
            [
              Scheme.Stack Control.default_config;
              Scheme.Stack Control.default_config;
              Scheme.Closure Control.default_config;
              Scheme.Heap;
            ];
          let after = Prelude_image.builds () in
          if after > max before 1 then
            Alcotest.failf "image rebuilt per session: %d -> %d" before after);
      (* [regalloc] selects a stage of the peephole pass, so unfused
         sessions share one image whatever it says.  The key mixes in
         the Scheme winders and the optimizer so that no other test has
         built it first. *)
      case "unfused sessions share one image across regalloc" (fun () ->
          let create regalloc =
            ignore
              (Scheme.create ~scheme_winders:true
                 ~options:
                   {
                     Compiler.default_options with
                     optimize = true;
                     peephole = false;
                     regalloc;
                   }
                 ())
          in
          create true;
          let before = Prelude_image.builds () in
          create false;
          Alcotest.(check int) "images built" before (Prelude_image.builds ()));
    ]

let suite =
  pinned_cases @ startup_cases
  @ [
      fuel_exactness 10_000;
      fuel_exactness 10_001;
      fuel_exactness 1;
      closure_fuel_exhaustion 10_000;
      closure_fuel_exhaustion 1;
      zero_alloc_call ~peephole:true;
      zero_alloc_call ~peephole:false;
    ]
  @ prim_alloc_cases
  @ roundtrip_alloc_cases
