let () =
  Alcotest.run "oneshot"
    [
      ("sexp", Test_sexp.suite);
      ("expander", Test_expander.suite);
      ("compiler", Test_compiler.suite);
      ("control", Test_control.suite);
      ("language", Test_lang.suite);
      ("continuations", Test_conts.suite);
      ("threads-engines", Test_threads.suite);
      ("heap-vm", Test_heap.suite);
      ("features", Test_features.suite);
      ("cml", Test_cml.suite);
      ("macros", Test_macros.suite);
      ("hygiene", Test_hygiene.suite);
      ("diag", Test_diag.suite);
      ("peephole", Test_peephole.suite);
      ("regalloc", Test_regalloc.suite);
      ("perf-counters", Test_perf_counters.suite);
      ("engine", Test_engine.suite);
      ("differential", Test_diff.suite);
      ("numeric", Test_numeric.suite);
      ("verify", Test_verify.suite);
      ("lint", Test_lint.suite);
      ("fuzz", Test_fuzz.suite);
      ("disasm", Test_disasm.suite);
      ("gc-stress", Test_gcstress.suite);
      ("representation", Test_repr.suite);
    ]
