(* Differential GC-stress test for the segmented stack's frame stores.

   Hot-path slot stores skip the write barrier when the slot already
   holds the value ({!Rt.set_slot}), and so do the machine-state
   publishes ([Engine.set_code], the accumulator in [sync]) and the
   control round trip's resets.  Each program here runs twice on the
   stack and closure backends, in a fresh session each time: once under
   the default GC settings, once under a 4K-word minor heap and a
   [space_overhead] of 20, so minor collections promote the frames'
   values constantly and major cycles, marking included, keep running
   under the machine's stores.
   The values and every [Stats] counter must be equal.

   A store of a fixnum over a fixnum takes no barrier at all (a fixnum
   is an immediate), so one program keeps fixnums from both ends of
   the range in 3,000 frames, over several segments, across a
   [Gc.compact] at the bottom of the recursion, and checks each on the
   way back up. *)

let case = Tutil.case

let programs =
  [
    ( "ctak under %call/cc",
      "(begin (set! ctak-capture %call/cc) (ctak 12 8 4))" );
    ( "ctak under %call/1cc",
      "(begin (set! ctak-capture %call/1cc) (ctak 12 8 4))" );
    ( "preempted threads",
      "(let ((acc 0))\n\
      \  (run-threads\n\
      \    (list (lambda () (let ((v (fib 12))) (set! acc (+ acc v))))\n\
      \          (lambda () (let ((v (fib 13))) (set! acc (+ acc v)))))\n\
      \    4 %call/1cc)\n\
      \  acc)" );
    ("deep 9000", "(deep 9000)");
    ("boyer", "(boyer-run 7)");
    ( "large fixnums in frames across Gc.compact",
      "(define (hold n)\n\
      \  (if (= n 0)\n\
      \      (begin (%gc-compact) 0)\n\
      \      (let* ((big (+ 4611686018427380000 n))\n\
      \             (neg (- -4611686018427380000 n))\n\
      \             (r (hold (- n 1))))\n\
      \        (if (and (= big (+ 4611686018427380000 n))\n\
      \                 (= neg (- -4611686018427380000 n))\n\
      \                 (= (+ big neg) 0))\n\
      \            (+ r 1)\n\
      \            r))))\n\
       (hold 3000)" );
  ]

(* The value each program must give, where the program checks itself. *)
let expected = [ ("large fixnums in frames across Gc.compact", "3000") ]

let gc_compact =
  snd (Prims.pure "%gc-compact" (Rt.Exactly 0) (fun _ -> Gc.compact (); Rt.void))

let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
  ]

let run backend src =
  let stats = Stats.create () in
  let s = Scheme.create ~backend ~stats () in
  Scheme.load_corpus s;
  Globals.define (Scheme.globals s) "%gc-compact" (Rt.Prim gc_compact);
  Stats.reset stats;
  let v = Scheme.eval_string ~fuel:Tutil.default_fuel s src in
  (v, Stats.to_rows stats)

(* Run [f] under the stress settings, restoring the caller's afterwards. *)
let stressed f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 4096; space_overhead = 20 };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let suite =
  List.concat_map
    (fun (pname, src) ->
      List.map
        (fun (bname, backend) ->
          case (Printf.sprintf "%s under GC stress [%s]" pname bname)
            (fun () ->
              let v, rows = run backend src in
              let v', rows' = stressed (fun () -> run backend src) in
              Alcotest.(check string) "value" v v';
              Option.iter
                (fun want -> Alcotest.(check string) "expected" want v)
                (List.assoc_opt pname expected);
              Alcotest.(check (list (pair string int))) "counters" rows rows'))
        backends)
    programs
