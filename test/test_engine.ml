(* The unified execution core (lib/engine instantiated by the stack and
   heap frame policies) must keep sessions fully independent: each
   Scheme.t owns its machine, stats, globals, macro tables, output
   buffer and (stack backend) segment cache, so interleaving sessions —
   or running them on separate domains via Scheme.Pool — never lets one
   observe another.  These tests pin that property, plus the pieces the
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

let pool_src =
  "(let loop ((i 0) (acc 0))\n\
  \  (if (= i 60) acc\n\
  \      (loop (+ i 1) (+ acc (%call/1cc (lambda (k) (k i)))))))"

(* Pool shards are deterministic: every shard computes the same value
   with identical counters, whether spawned on domains or run
   sequentially on the calling domain. *)
let pool_domains_vs_sequential () =
  let par = Scheme.Pool.run ~domains:true ~jobs:3 pool_src in
  let seq = Scheme.Pool.run ~domains:false ~jobs:3 pool_src in
  Alcotest.(check int) "shards" 3 (List.length par);
  List.iter2
    (fun (p : Scheme.Pool.shard) (s : Scheme.Pool.shard) ->
      Alcotest.(check int) "index" s.Scheme.Pool.shard p.Scheme.Pool.shard;
      Alcotest.(check string) "value"
        (Values.write_string s.Scheme.Pool.value)
        (Values.write_string p.Scheme.Pool.value);
      Alcotest.(check string) "output" s.Scheme.Pool.output
        p.Scheme.Pool.output;
      List.iter2
        (fun (name, sv) (_, pv) -> Alcotest.(check int) name sv pv)
        (Stats.to_rows s.Scheme.Pool.stats)
        (Stats.to_rows p.Scheme.Pool.stats))
    par seq

(* Shard counters equal a lone session running the same source: sharding
   adds no hidden work and shares no hidden state. *)
let pool_matches_single_session () =
  let stats = Stats.create () in
  let t = Scheme.create ~stats () in
  Stats.reset stats;
  let v = Scheme.eval t pool_src in
  List.iter
    (fun (sh : Scheme.Pool.shard) ->
      Alcotest.(check string) "value" (Values.write_string v)
        (Values.write_string sh.Scheme.Pool.value);
      List.iter2
        (fun (name, single) (_, sharded) ->
          Alcotest.(check int) name single sharded)
        (Stats.to_rows stats)
        (Stats.to_rows sh.Scheme.Pool.stats))
    (Scheme.Pool.run ~domains:true ~jobs:2 pool_src)

let all_backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

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
    Alcotest.test_case "pool: domains = sequential" `Quick
      pool_domains_vs_sequential;
    Alcotest.test_case "pool: shard = single session" `Quick
      pool_matches_single_session;
  ]
