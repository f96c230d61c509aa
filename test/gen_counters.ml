(* Regenerates the pinned counter table of [Test_perf_counters]:

     dune exec test/gen_counters.exe

   and paste the output over the [pinned] list in test_perf_counters.ml.
   Keep the configs/workloads below in sync with that file.  Counter
   values are deterministic (instruction counts, frame counts, capture
   counts), so any diff against the pinned table is a real behaviour
   change that must be justified in review, not noise. *)

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

let configs =
  [
    ("stack", Scheme.Stack Control.default_config, true, true);
    ("stack-noreg", Scheme.Stack Control.default_config, true, false);
    ("stack-nofuse", Scheme.Stack Control.default_config, false, true);
    ("stack-tiny", Scheme.Stack tiny_config, true, true);
    ("closure", Scheme.Closure Control.default_config, true, true);
    ("closure-noreg", Scheme.Closure Control.default_config, true, false);
    ("closure-nofuse", Scheme.Closure Control.default_config, false, true);
    ("closure-tiny", Scheme.Closure tiny_config, true, true);
    ("heap", Scheme.Heap, true, true);
    ("heap-noreg", Scheme.Heap, true, false);
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

let () =
  List.iter
    (fun (cname, backend, peephole, regalloc) ->
      List.iter
        (fun (wname, src) ->
          let stats = Stats.create () in
          let s =
            Scheme.create ~backend ~stats
              ~options:{ Compiler.default_options with peephole; regalloc }
              ()
          in
          Scheme.load_corpus s;
          Stats.reset stats;
          ignore (Scheme.eval ~fuel:100_000_000 s src);
          let vals =
            List.map (fun n -> string_of_int (Stats.get stats n)) counter_names
          in
          Printf.printf "    ((\"%s\", \"%s\"), [ %s ]);\n" cname wname
            (String.concat "; " vals))
        workloads)
    configs
