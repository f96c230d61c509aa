(* Differential tests for the bytecode peephole pass: the same program
   must produce identical results with fusion on and off, on the stack VM
   (default and tiny-segment geometry) and the heap VM -- and the
   inline-cached primitive sites must deoptimize, not misbehave, when a
   fused primitive is redefined with [set!]. *)

let case = Tutil.case
let fuel = Tutil.default_fuel

let eval ?(backend = Scheme.Stack Control.default_config) ?(corpus = false)
    ~peephole src =
  let s =
    Scheme.create ~backend
      ~options:{ Compiler.default_options with peephole } ()
  in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel s src

(* Corpus workloads at test scale: arithmetic-heavy (maximum prim-call
   fusion), continuation-heavy (capture/invoke across fused frames), and
   overflow-heavy (fused code straddling segment boundaries). *)
let corpus_workloads =
  [
    ("tak", "(tak 10 5 2)");
    ("fib", "(fib 13)");
    ("ack", "(ack 2 4)");
    ("queens", "(queens-count 6)");
    ("boyer", "(boyer-run 8)");
    ("takl", "(takl 10 6 3)");
    ("div", "(div-bench 50 20)");
    ("deep", "(deep-loop 2 3000)");
    ("ctak/cc", "(set! ctak-capture %call/cc) (ctak 12 8 4)");
    ("ctak/1cc", "(set! ctak-capture %call/1cc) (ctak 12 8 4)");
    ( "threads",
      "(run-threads (list (lambda () (fib 9)) (lambda () (fib 10))) 16 \
       %call/1cc)" );
  ]

let differential_cases =
  List.concat_map
    (fun (name, src) ->
      [
        case (name ^ ": peephole on/off agree [stack]") (fun () ->
            Alcotest.(check string)
              src
              (eval ~corpus:true ~peephole:false src)
              (eval ~corpus:true ~peephole:true src));
        case (name ^ ": peephole on/off agree [stack/tiny]") (fun () ->
            let backend = Scheme.Stack Tutil.tiny_config in
            Alcotest.(check string)
              src
              (eval ~backend ~corpus:true ~peephole:false src)
              (eval ~backend ~corpus:true ~peephole:true src));
        case (name ^ ": peephole on/off agree [heap]") (fun () ->
            Alcotest.(check string)
              src
              (eval ~backend:Scheme.Heap ~corpus:true ~peephole:false src)
              (eval ~backend:Scheme.Heap ~corpus:true ~peephole:true src));
      ])
    corpus_workloads

(* Redefining a fused primitive must deoptimize the inline cache: the
   site takes the generic call path with the new binding. *)
let deopt_src =
  {|(define (f x y) (+ x y))
    (define r1 (f 1 2))
    (set! + *)
    (define r2 (f 3 4))
    (set! + -)
    (define r3 (f 10 4))
    (list r1 r2 r3)|}

let deopt_cases =
  [
    case "set! of fused primitive deoptimizes [stack]" (fun () ->
        Alcotest.(check string) "results" "(3 12 6)"
          (eval ~peephole:true deopt_src));
    case "set! of fused primitive deoptimizes [heap]" (fun () ->
        Alcotest.(check string) "results" "(3 12 6)"
          (eval ~backend:Scheme.Heap ~peephole:true deopt_src));
    case "deopt counter ticks on cache miss" (fun () ->
        let n =
          eval ~peephole:true
            {|(define (f x y) (+ x y))
              (f 1 2)
              (set! + *)
              (f 3 4)
              (%stat 'prim-deopts)|}
        in
        Alcotest.(check bool) "prim-deopts > 0" true (int_of_string n > 0));
    case "fast-path counter ticks on cache hit" (fun () ->
        let n =
          eval ~peephole:true
            "(define (f x y) (+ x y)) (f 1 2) (%stat 'prim-fast)"
        in
        Alcotest.(check bool) "prim-fast > 0" true (int_of_string n > 0));
    case "no fused sites when peephole is off" (fun () ->
        let n =
          eval ~peephole:false
            "(define (f x y) (+ x y)) (f 1 2) (%stat 'prim-fast)"
        in
        Alcotest.(check string) "prim-fast" "0" n);
    case "redefinition to a closure deoptimizes [stack]" (fun () ->
        (* The deopt path must handle a non-primitive binding too. *)
        Alcotest.(check string) "results" "(3 list)"
          (eval ~peephole:true
             {|(define (f x y) (+ x y))
               (define r1 (f 1 2))
               (set! + (lambda (a b) 'list))
               (list r1 (f 3 4))|}));
    case "deopt in tail position [stack]" (fun () ->
        Alcotest.(check string) "results" "12"
          (eval ~peephole:true
             {|(define (g x y) (+ x y))
               (g 1 2)
               (set! + *)
               (g 3 4)|}));
  ]

(* Accumulator liveness: push fusion must not fire when the value is
   still needed in the accumulator (e.g. a branch testing a [set!]'d
   value, or a [begin] whose last write flows into the test). *)
let liveness_cases =
  [
    case "branch reads acc after assignment" (fun () ->
        Alcotest.(check string) "value" "5"
          (eval ~peephole:true
             "(let ((x 0)) (if (begin (set! x 5) x) x 'no))"));
    case "let-bound constant feeding a branch" (fun () ->
        Alcotest.(check string) "value" "yes"
          (eval ~peephole:true "(let ((x #t)) (if x 'yes 'no))"));
    case "nested lets with shadowing agree" (fun () ->
        let src =
          "(let ((x 1)) (let ((y (+ x 1))) (let ((x (* y 2))) (- x y))))"
        in
        Alcotest.(check string)
          src
          (eval ~peephole:false src)
          (eval ~peephole:true src));
  ]

(* The pass must actually shrink the dispatched-instruction stream (the
   whole point of the PR): fib runs in >=20% fewer instructions. *)
let reduction_cases =
  [
    case "fused fib dispatches >=20% fewer instructions" (fun () ->
        let count peephole =
          int_of_string
            (eval ~corpus:true ~peephole "(fib 13) (%stat 'instrs)")
        in
        let off = count false and on = count true in
        if not (float_of_int on <= 0.8 *. float_of_int off) then
          Alcotest.failf "expected >=20%% drop, got %d -> %d" off on);
    case "disassembly shows fused opcodes" (fun () ->
        let s = Scheme.create () in
        let codes =
          Compiler.compile_string (Scheme.globals s)
            "(define (h n) (+ n 1))"
        in
        let text =
          String.concat "\n" (List.map Bytecode.disassemble_deep codes)
        in
        Alcotest.(check bool) "prim-call present" true
          (Tutil.contains ~sub:"prim-" text));
  ]

(* Every primitive call of a deeply nested [(+ 1 (+ 1 ... 0))] fuses:
   each callee push sits next to its call, so the fuser's fixed window
   finds all [n] sites, and the pass stays linear in program size.  The
   counters, not the clock, are pinned. *)
let nested_sum n =
  let b = Buffer.create (6 * n) in
  for _ = 1 to n do
    Buffer.add_string b "(+ 1 "
  done;
  Buffer.add_char b '0';
  Buffer.add_string b (String.make n ')');
  Buffer.contents b

let nesting_cases =
  List.concat_map
    (fun n ->
      let src = nested_sum n in
      List.map
        (fun (bname, backend) ->
          case (Printf.sprintf "nested (+ 1 ...) n=%d fuses every site [%s]" n
                  bname)
            (fun () ->
              let stats = Stats.create () in
              let s = Scheme.create ~backend ~stats () in
              Stats.reset stats;
              Alcotest.(check string) "value" (string_of_int n)
                (Scheme.eval_string ~fuel s src);
              Alcotest.(check (pair int int)) "prim-fast, prim-calls" (n, n)
                (stats.Stats.prim_fast, stats.Stats.prim_calls)))
        [
          ("stack", Scheme.Stack Control.default_config);
          ("closure", Scheme.Closure Control.default_config);
          ("heap", Scheme.Heap);
        ])
    [ 1_000; 32_000 ]

(* The peephole allocates its output and little else: one scan into
   scratch arrays shared by the code objects of one call, in-place
   rewrites, and operand forms built only where they fuse; its helpers
   are top-level functions, so a code object costs no closures, and the
   fused stream replaces the input's in the same code object.  Pinned as
   minor-heap words per input instruction over the unfused prelude and
   corpus code ([Gc.minor_words] counts only minor-heap allocation:
   arrays too large for the minor heap go straight to the major heap and
   are not counted).
   No wall clock is pinned. *)
let allocation_cases =
  [
    case "peephole allocates <= 3.82 minor words per input instruction"
      (fun () ->
        let globals = Scheme.globals (Scheme.create ()) in
        let menv = Macro.create_menv () in
        let codes =
          List.concat_map
            (Compiler.compile_string
               ~options:{ Compiler.default_options with peephole = false }
               ~menv globals)
            [ Prelude.source; Programs.all_defs; Threads.scheduler; Cml.source ]
        in
        let input =
          List.fold_left
            (fun n (c : Rt.code) -> n + Array.length c.Rt.instrs)
            0
            (List.fold_left Bytecode.collect_codes [] codes)
        in
        let w0 = Gc.minor_words () in
        ignore (Optimize.peephole_program globals codes);
        let per_instr = (Gc.minor_words () -. w0) /. float_of_int input in
        if per_instr > 3.82 then
          Alcotest.failf "%.1f minor words per input instruction (%d input)"
            per_instr input);
  ]

(* The compiler's allocation is the code it emits plus one record per
   binding: variables resolve through their bindings, not through
   per-lambda hash tables, and the code objects of one call share one
   growable buffer; the immutable instructions it emits most are shared,
   and neither the analysis nor the code generator allocates a closure
   per node.  Pinned as minor-heap words per emitted instruction
   (nested code objects included) over the expanded prelude and corpus
   sources, beside the peephole's pin above. *)
let compiler_allocation_case =
  case "compiler allocates <= 8.05 minor words per emitted instruction"
    (fun () ->
      let globals = Scheme.globals (Scheme.create ()) in
      let menv = Macro.create_menv () in
      let tops =
        List.concat_map
          (Expander.expand_string ~menv)
          [ Prelude.source; Programs.all_defs; Threads.scheduler; Cml.source ]
      in
      let w0 = Gc.minor_words () in
      let codes = Compiler.compile_program globals tops in
      let words = Gc.minor_words () -. w0 in
      let emitted =
        List.fold_left
          (fun n (c : Rt.code) -> n + Array.length c.Rt.instrs)
          0
          (List.fold_left Bytecode.collect_codes [] codes)
      in
      let per_instr = words /. float_of_int emitted in
      if per_instr > 8.05 then
        Alcotest.failf "%.2f minor words per emitted instruction (%d emitted)"
          per_instr emitted)

(* The reader takes each token with one scan and one [String.sub], and
   classifies it without a failing parse; a position is an immediate,
   and a list is consed front to back from the reader's element stack,
   so its allocation is the datums themselves.  Pinned as minor-heap words per source byte over
   the prelude and corpus sources, beside the peephole's pin above. *)
let reader_allocation_case =
  case "reader allocates <= 1.08 minor words per source byte" (fun () ->
      let sources =
        [ Prelude.source; Programs.all_defs; Threads.scheduler; Cml.source ]
      in
      let bytes =
        List.fold_left (fun n s -> n + String.length s) 0 sources
      in
      let w0 = Gc.minor_words () in
      List.iter (fun s -> ignore (Sexp.read_all s)) sources;
      let per_byte = (Gc.minor_words () -. w0) /. float_of_int bytes in
      if per_byte > 1.08 then
        Alcotest.failf "%.2f minor words per source byte (%d bytes)" per_byte
          bytes)

(* One program in the shape of the compile benchmark's jobs, read,
   expanded, compiled and fused by [Compiler.compile_string]: every
   front-end pass at once, pinned in minor-heap words.  The program is
   compiled once first, so that the process-wide global slots it names
   are already interned. *)
let compile_job_allocation_case =
  case "compiling a compile-shape program allocates <= 13,040 minor words"
    (fun () ->
      let globals = Scheme.globals (Scheme.create ()) in
      let compile () =
        let menv = Macro.create_menv () in
        let w0 = Gc.minor_words () in
        ignore
          (Compiler.compile_string ~menv globals
             Test_compiler.compile_shape_program);
        Gc.minor_words () -. w0
      in
      ignore (compile ());
      let words = compile () in
      if words > 13_040. then
        Alcotest.failf "%.0f minor words" words)

(* Runtime [(eval datum)] compiles through the machine's own options,
   like every other form: a loop defined via [eval] runs its fused
   primitive sites by default (and under the verifier, which also
   checks the code object that sequences the two-form [begin]), and
   none under [peephole = false]. *)
let eval_options_cases =
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (oname, options, fused) ->
          case (Printf.sprintf "eval follows options [%s %s]" bname oname)
            (fun () ->
              let stats = Stats.create () in
              let s = Scheme.create ~backend ~stats ~options () in
              ignore
                (Scheme.eval ~fuel s
                   "(eval '(begin\n\
                   \          (define (lp n) (if (= n 0) 'done (lp (- n 1))))\n\
                   \          'defined))");
              Stats.reset stats;
              Alcotest.(check string) "value" "done"
                (Scheme.eval_string ~fuel s "(lp 50)");
              let prim_fast = Stats.get stats "prim-fast" in
              if fused && prim_fast = 0 then
                Alcotest.fail "eval-defined loop ran unfused";
              if (not fused) && prim_fast <> 0 then
                Alcotest.failf "unfused session recorded %d fused calls"
                  prim_fast))
        [
          ("default", Compiler.default_options, true);
          ("verify", { Compiler.default_options with verify = true }, true);
          ( "no-peephole",
            { Compiler.default_options with peephole = false },
            false );
        ])
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
      ("heap", Scheme.Heap);
    ]

let suite =
  differential_cases @ deopt_cases @ liveness_cases @ reduction_cases
  @ nesting_cases @ allocation_cases
  @ [ compiler_allocation_case; reader_allocation_case;
      compile_job_allocation_case ]
  @ eval_options_cases
