(* Tests for the register-lowering (regalloc) stage of the peephole
   pass: operand-addressed primitive calls ([Prim_call1_op] ...
   [Prim_tail2_op]) and fused returns ([Return_op]).

   Three angles:
   - the disassembler renders every opcode of the instruction set,
     including every operand shape of the new forms (table-driven);
   - differential: the same program produces identical results with
     the lowering on and off, across the stack VM (default and tiny
     segments), the heap VM and the closure backend — including
     programs that [set!] a fused primitive mid-run, which exercises
     the operand-spill deopt paths;
   - spill discipline at the capture boundary: a capture-heavy workload
     must copy exactly the same words with the lowering on and off
     (operand values are spilled into the frame's argument slots before
     any slow path, so captured segment contents are unchanged), while
     dispatching strictly fewer instructions. *)

let case = Tutil.case
let fuel = Tutil.default_fuel

(* ------------------------------------------------------------------ *)
(* Disassembler coverage                                               *)
(* ------------------------------------------------------------------ *)

let dummy_slot = Globals.slot "x"

let dummy_site =
  {
    Rt.ps_disp = 3;
    ps_nargs = 2;
    ps_slot = dummy_slot;
    ps_guard = Rt.void;
    ps_prim = snd (Prims.pure "+" (Rt.At_least 0) (fun _ -> Rt.void));
    ps_fn = (fun _ -> Rt.void);
    ps_fn1 = (fun _ -> Rt.void);
    ps_fn2 = (fun _ _ -> Rt.void);
    ps_ret = Rt.void;
  }

let dummy_code =
  Bytecode.make_code ~name:"body" ~arity:(Rt.Exactly 0) ~frame_words:2
    [| Rt.Halt |]

(* One row per [Rt.instr] constructor; the operand forms additionally
   cover all three [Rt.operand] shapes across their rows.  Keep in sync
   with [_exhaustive] below, whose wildcard-free match turns a new
   constructor into a compile error here rather than a silent coverage
   gap. *)
let disasm_table =
  [
    (Rt.Const (Values.of_int 42), "const 42");
    (Rt.Local_ref 3, "local-ref 3");
    (Rt.Local_set 4, "local-set 4");
    (Rt.Box_init 1, "box-init 1");
    (Rt.Box_ref 2, "box-ref 2");
    (Rt.Box_set 3, "box-set 3");
    (Rt.Free_ref 0, "free-ref 0");
    (Rt.Free_box_ref 1, "free-box-ref 1");
    (Rt.Free_box_set 2, "free-box-set 2");
    (Rt.Global_ref dummy_slot, "global-ref x");
    (Rt.Global_set dummy_slot, "global-set x");
    (Rt.Global_define dummy_slot, "global-define x");
    ( Rt.Make_closure (dummy_code, [| Rt.Cap_local 1; Rt.Cap_free 2 |]),
      "make-closure body [l1 f2]" );
    (Rt.Branch 7, "branch 7");
    (Rt.Branch_false 9, "branch-false 9");
    ( Rt.Call { cs_disp = 3; cs_nargs = 2; cs_ret = Rt.void },
      "call disp=3 nargs=2" );
    (Rt.Tail_call { disp = 3; nargs = 2 }, "tail-call disp=3 nargs=2");
    (Rt.Return, "return");
    (Rt.Enter, "enter");
    (Rt.Halt, "halt");
    (Rt.Const_push (Values.of_int 1, 5), "const-push 1 5");
    (Rt.Local_push (2, 5), "local-push 2 5");
    (Rt.Free_push (1, 6), "free-push 1 6");
    (Rt.Global_push (dummy_slot, 4), "global-push x 4");
    (Rt.Prim_call dummy_site, "prim-call + disp=3 nargs=2");
    (Rt.Prim_call1 dummy_site, "prim-call1 + disp=3");
    (Rt.Prim_call2 dummy_site, "prim-call2 + disp=3");
    (Rt.Prim_tail_call dummy_site, "prim-tail-call + disp=3 nargs=2");
    (Rt.Local_branch_false (2, 9), "local-branch-false 2 9");
    (Rt.Prim_branch1 (dummy_site, 9), "prim-branch1 + disp=3 9");
    (Rt.Prim_branch2 (dummy_site, 9), "prim-branch2 + disp=3 9");
    (Rt.Prim_call1_op (dummy_site, Rt.Op_acc), "prim-call1-op + acc disp=3");
    ( Rt.Prim_call2_op (dummy_site, Rt.Op_local 2, Rt.Op_const (Values.of_int 1)),
      "prim-call2-op + l2 1 disp=3" );
    ( Rt.Prim_branch1_op (dummy_site, Rt.Op_const (Values.of_int 0), 9),
      "prim-branch1-op + 0 disp=3 9" );
    ( Rt.Prim_branch2_op (dummy_site, Rt.Op_acc, Rt.Op_local 4, 9),
      "prim-branch2-op + acc l4 disp=3 9" );
    (Rt.Prim_tail1_op (dummy_site, Rt.Op_local 2), "prim-tail1-op + l2 disp=3");
    ( Rt.Prim_tail2_op (dummy_site, Rt.Op_const (Values.of_int 1), Rt.Op_acc),
      "prim-tail2-op + 1 acc disp=3" );
    (Rt.Return_op Rt.Op_acc, "return-op acc");
  ]

(* Wildcard-free: adding an opcode without a [disasm_table] row fails to
   compile (non-exhaustive match is an error in the dev profile). *)
let _exhaustive : Rt.instr -> unit = function
  | Rt.Const _ | Rt.Local_ref _ | Rt.Local_set _ | Rt.Box_init _
  | Rt.Box_ref _ | Rt.Box_set _ | Rt.Free_ref _ | Rt.Free_box_ref _
  | Rt.Free_box_set _ | Rt.Global_ref _ | Rt.Global_set _
  | Rt.Global_define _ | Rt.Make_closure _ | Rt.Branch _
  | Rt.Branch_false _ | Rt.Call _ | Rt.Tail_call _ | Rt.Return | Rt.Enter
  | Rt.Halt | Rt.Const_push _ | Rt.Local_push _ | Rt.Free_push _
  | Rt.Global_push _ | Rt.Prim_call _ | Rt.Prim_call1 _ | Rt.Prim_call2 _
  | Rt.Prim_tail_call _ | Rt.Local_branch_false _ | Rt.Prim_branch1 _
  | Rt.Prim_branch2 _ | Rt.Prim_call1_op _ | Rt.Prim_call2_op _
  | Rt.Prim_branch1_op _ | Rt.Prim_branch2_op _ | Rt.Prim_tail1_op _
  | Rt.Prim_tail2_op _ | Rt.Return_op _ ->
      ()

let disasm_cases =
  [
    case "disassembler renders every opcode" (fun () ->
        List.iter
          (fun (instr, expected) ->
            Alcotest.(check string)
              expected expected
              (Bytecode.instr_to_string instr))
          disasm_table);
    case "lowered streams disassemble with operand forms" (fun () ->
        let s = Scheme.create () in
        let text =
          String.concat "\n"
            (List.map Bytecode.disassemble_deep
               (Compiler.compile_string (Scheme.globals s)
                  "(define (h n) (+ n 1))\n\
                   (define (g n) (if (< n 2) 1 (g (- n 1))))\n\
                   (define (k) 42)"))
        in
        List.iter
          (fun sub ->
            Alcotest.(check bool) sub true (Tutil.contains ~sub text))
          [ "prim-tail2-op"; "prim-branch2-op"; "prim-call2-op"; "return-op" ];
        (* the staging and the plain call each form replaced are gone *)
        List.iter
          (fun sub ->
            Alcotest.(check bool) ("no " ^ sub) false (Tutil.contains ~sub text))
          [ "prim-tail-call"; "prim-branch2 "; "prim-call2 "; "const-push" ]);
    case "--no-regalloc emits no operand forms" (fun () ->
        let s = Scheme.create () in
        let text =
          String.concat "\n"
            (List.map Bytecode.disassemble_deep
               (Compiler.compile_string
                  ~options:{ Compiler.default_options with regalloc = false }
                  (Scheme.globals s) "(define (h n) (+ n 1)) (define (k) 42)"))
        in
        Alcotest.(check bool) "no -op opcodes" false
          (Tutil.contains ~sub:"-op " text || Tutil.contains ~sub:"return-op" text));
  ]

(* ------------------------------------------------------------------ *)
(* Code size: fused code keeps nothing of what a fold replaced         *)
(* ------------------------------------------------------------------ *)

(* Instructions of each corpus compiled with the default options against
   a fresh table holding only the primitives.  Every operand form used to
   keep the staging and the call it replaced after it; with those gone,
   the only instructions left after a fused form are branch fusion's
   [Branch_false] and a branch-targeted [Return] after a [Return_op]. *)
let code_size_cases =
  let size src =
    let g = Globals.create () in
    Prims.install g;
    List.fold_left Bytecode.collect_codes [] (Compiler.compile_string g src)
    |> List.fold_left (fun n (c : Rt.code) -> n + Array.length c.Rt.instrs) 0
  in
  List.map
    (fun (name, src, expected) ->
      case (Printf.sprintf "fused code size: %s" name) (fun () ->
          Alcotest.(check int) "instructions" expected (size src)))
    [
      ("prelude", Prelude.source, 855);
      ("corpus", Programs.all_defs, 1087);
      ("threads", Threads.scheduler, 427);
      ("cml", Cml.source, 492);
    ]

(* A [Return] that a branch targets is not folded away: the arm that
   falls into it ends in a [Return_op], and the arm that branches to it
   returns through it. *)
let kept_return_cases =
  let def = "(define (pick x) (if x 1 2))" in
  case "a branch-targeted return stays after its return-op" (fun () ->
      let s = Scheme.create () in
      let text =
        String.concat "\n"
          (List.map Bytecode.disassemble_deep
             (Compiler.compile_string (Scheme.globals s) def))
      in
      Alcotest.(check bool) "listing" true
        (Tutil.contains ~sub:"branch 6\n     5  return-op 2\n     6  return\n"
           text))
  :: List.map
       (fun (bname, backend) ->
         case (Printf.sprintf "a branch-targeted return returns [%s]" bname)
           (fun () ->
             let s = Scheme.create ~backend () in
             ignore (Scheme.eval ~fuel s def);
             Alcotest.(check string) "value" "(1 2)"
               (Scheme.eval_string ~fuel s "(list (pick #t) (pick #f))")))
       [
         ("stack", Scheme.Stack Control.default_config);
         ("closure", Scheme.Closure Control.default_config);
         ("heap", Scheme.Heap);
         ("oracle", Scheme.Oracle);
       ]

(* ------------------------------------------------------------------ *)
(* Differential: regalloc on/off across backends                       *)
(* ------------------------------------------------------------------ *)

let eval ?(backend = Scheme.Stack Control.default_config) ?(corpus = false)
    ~regalloc src =
  let s =
    Scheme.create ~backend
      ~options:{ Compiler.default_options with regalloc } ()
  in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel s src

let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("stack/tiny", Scheme.Stack Tutil.tiny_config);
    ("heap", Scheme.Heap);
    ("closure", Scheme.Closure Control.default_config);
  ]

let corpus_workloads =
  [
    ("tak", "(tak 10 5 2)");
    ("fib", "(fib 13)");
    ("queens", "(queens-count 6)");
    ("boyer", "(boyer-run 8)");
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
      List.map
        (fun (bname, backend) ->
          case
            (Printf.sprintf "%s: regalloc on/off agree [%s]" name bname)
            (fun () ->
              Alcotest.(check string)
                src
                (eval ~backend ~corpus:true ~regalloc:false src)
                (eval ~backend ~corpus:true ~regalloc:true src)))
        backends)
    corpus_workloads

(* ------------------------------------------------------------------ *)
(* Deopt paths of the operand forms                                    *)
(* ------------------------------------------------------------------ *)

(* [set!] of a fused primitive mid-run forces the operand forms through
   their guard-failure paths, which must spill the operand values into
   the frame's argument slots before the generic call.  Each program
   targets a different form: tail ([Prim_tail2_op], the prim in tail
   position), non-tail with an accumulator operand ([Prim_call2_op]
   fed by an inner call via [Op_acc]), and branch ([Prim_branch2_op],
   the prim feeding an [if]). *)
let deopt_programs =
  [
    ( "tail",
      {|(define (f x y) (+ x y))
        (define r1 (f 1 2))
        (set! + *)
        (define r2 (f 3 4))
        (set! + -)
        (define r3 (f 10 4))
        (list r1 r2 r3)|},
      "(3 12 6)" );
    ( "acc operand",
      {|(define (f x) (+ (* x x) 1))
        (define r1 (f 3))
        (set! + -)
        (define r2 (f 3))
        (list r1 r2)|},
      "(10 8)" );
    ( "branch",
      {|(define (f x) (if (< x 5) 'small 'big))
        (define r1 (f 1))
        (set! < >)
        (define r2 (f 1))
        (list r1 r2)|},
      "(small big)" );
  ]

let deopt_cases =
  List.concat_map
    (fun (name, src, expected) ->
      List.map
        (fun (bname, backend) ->
          case
            (Printf.sprintf "deopt spills operands: %s [%s]" name bname)
            (fun () ->
              Alcotest.(check string)
                expected expected
                (eval ~backend ~regalloc:true src)))
        backends)
    deopt_programs

(* ------------------------------------------------------------------ *)
(* Spill discipline at the capture boundary                            *)
(* ------------------------------------------------------------------ *)

(* ctak captures a continuation at every call, so every fused site's
   frame is captured mid-flight; if a handler reached the capture path
   without spilling, the copied words would differ between the two
   encodings.  [instrs] must drop; every capture-side counter must not
   move at all. *)
let capture_identity bname backend op =
  case
    (Printf.sprintf "capture counters identical under regalloc [%s %s]" bname
       op)
    (fun () ->
      let measure regalloc =
        let stats = Stats.create () in
        let s =
          Scheme.create ~backend ~stats
            ~options:{ Compiler.default_options with regalloc } ()
        in
        Scheme.load_corpus s;
        Stats.reset stats;
        ignore
          (Scheme.eval ~fuel s
             (Printf.sprintf "(set! ctak-capture %s) (ctak 12 8 4)" op));
        stats
      in
      let off = measure false and on = measure true in
      let same name get =
        Alcotest.(check int) name (get off) (get on)
      in
      same "words-copied" (fun st -> st.Stats.words_copied);
      same "seg-alloc-words" (fun st -> st.Stats.seg_alloc_words);
      same "captures-multi" (fun st -> st.Stats.captures_multi);
      same "captures-oneshot" (fun st -> st.Stats.captures_oneshot);
      same "frames" (fun st -> st.Stats.frames);
      if on.Stats.instrs >= off.Stats.instrs then
        Alcotest.failf "instrs did not drop: %d -> %d" off.Stats.instrs
          on.Stats.instrs)

let capture_cases =
  List.concat_map
    (fun (bname, backend) ->
      [
        capture_identity bname backend "%call/cc";
        capture_identity bname backend "%call/1cc";
      ])
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
    ]

(* ------------------------------------------------------------------ *)
(* Error exits of the unflushed primitive fast paths                   *)
(* ------------------------------------------------------------------ *)

(* The fixed-arity primitive forms and the generic pure call call the
   primitive with the landing's batched state unflushed; a primitive
   that raises flushes on its way out.  Each program faults in one fused
   shape (call, branch, tail at one and two arguments), compiled as an
   operand form by default, as a plain form under --no-regalloc and as a
   generic call under --no-peephole.  Under a returning handler the
   fault resumes at the instruction after the faulting one (after a tail
   form, the [Return] that hands the handler's value to the caller);
   under [try] it escapes.  The value and the counters must agree across
   stack, closure and heap. *)
let fault_programs =
  (* shape, faulting prim, definition, call, value under the returning
     handler (which answers 42) *)
  [
    ("call1", "car", "(define (f x) (list (car x)))", "(f 5)", "(42)");
    ("branch1", "car", "(define (f x) (if (car x) 'yes 'no))", "(f 5)", "yes");
    ("tail1", "car", "(define (f x) (car x))", "(+ 1 (f 5))", "43");
    ("call2", "+", "(define (f x) (list (+ x 1)))", "(f 'a)", "(42)");
    ( "branch2",
      "vector-ref",
      "(define (f v) (if (vector-ref v 99) 'yes 'no))",
      "(f (vector 1 2))",
      "yes" );
    ( "tail2",
      "vector-ref",
      "(define (f v) (vector-ref v 99))",
      "(f (vector 1 2))",
      "42" );
  ]

(* pipeline name, peephole, regalloc, the opcode a shape compiles to
   (None: no fused primitive at all) *)
let fault_pipelines =
  let op_form = function
    | "tail1" -> "prim-tail1-op"
    | "tail2" -> "prim-tail2-op"
    | shape -> "prim-" ^ shape ^ "-op"
  and plain = function
    | "tail1" | "tail2" -> "prim-tail-call"
    | shape -> "prim-" ^ shape
  in
  [
    ("default", true, true, fun shape -> Some (op_form shape));
    ("no-regalloc", true, false, fun shape -> Some (plain shape));
    ("no-peephole", false, true, fun _ -> None);
  ]

let fault_backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
  ]

let fault_counters = [ "instrs"; "prim-calls"; "prim-fast"; "prim-deopts" ]

let run_fault backend ~peephole ~regalloc def call =
  let stats = Stats.create () in
  let s =
    Scheme.create ~backend ~stats
      ~options:{ Compiler.default_options with peephole; regalloc } ()
  in
  ignore (Scheme.eval ~fuel s def);
  Stats.reset stats;
  let v = Scheme.eval_string ~fuel s call in
  (v, List.map (Stats.get stats) fault_counters)

let fault_cases =
  List.concat_map
    (fun (shape, prim, def, call, returned) ->
      List.map
        (fun (pname, peephole, regalloc, opcode) ->
          case
            (Printf.sprintf "faulting %s: backends agree [%s %s]" prim shape
               pname)
            (fun () ->
              let options =
                { Compiler.default_options with peephole; regalloc }
              in
              let s = Scheme.create ~options () in
              let text =
                String.concat "\n"
                  (List.map Bytecode.disassemble_deep
                     (Compiler.compile_string ~options (Scheme.globals s) def))
              in
              (match opcode shape with
              | Some op ->
                  Alcotest.(check bool)
                    (op ^ " " ^ prim) true
                    (Tutil.contains ~sub:(op ^ " " ^ prim ^ " ") text)
              | None ->
                  Alcotest.(check bool) "no fused prim" false
                    (Tutil.contains ~sub:"prim-" text));
              List.iter
                (fun (handler, call, check_value) ->
                  let runs =
                    List.map
                      (fun (bname, backend) ->
                        (bname, run_fault backend ~peephole ~regalloc def call))
                      fault_backends
                  in
                  let _, (v0, c0) = List.hd runs in
                  check_value v0;
                  List.iter
                    (fun (bname, (v, c)) ->
                      let label what = String.concat " " [ handler; what; bname ] in
                      Alcotest.(check string) (label "value") v0 v;
                      List.iter2
                        (fun name (x, y) ->
                          Alcotest.(check int) (label name) x y)
                        fault_counters (List.combine c0 c))
                    runs)
                [
                  ( "returning",
                    "(set! %error-handlers (list (lambda (m i) 42))) " ^ call,
                    Alcotest.(check string) "returned" returned );
                  ( "try",
                    Printf.sprintf "(try (lambda () %s) (lambda (m) m))" call,
                    fun v ->
                      Alcotest.(check bool) ("message names " ^ prim) true
                        (Tutil.contains ~sub:prim v) );
                ]))
        fault_pipelines)
    fault_programs

(* Fuel that runs out anywhere near a primitive call with an unflushed
   batch — in particular on the instruction right after it — stops after
   exactly [fuel] instructions on the engine backends, and no earlier
   on the closure backend, whose fuel check sits at block ends (so the
   last block of the run may finish instead).  [car] is passed in as
   [f], so its call has a local operator and stays a generic pure call
   next to the fused sites. *)
let fuel_after_prim_cases =
  let def = "(define (g f x) (+ 1 (f (cdr x))))"
  and call = "(g car (list 1 2))" in
  let exhaust backend fuel =
    let stats = Stats.create () in
    let s = Scheme.create ~backend ~stats () in
    ignore (Scheme.eval ~fuel:Tutil.default_fuel s def);
    Stats.reset stats;
    match Scheme.eval ~fuel s call with
    | _ -> None
    | exception Vm.Vm_fuel_exhausted -> Some stats.Stats.instrs
  in
  List.map
    (fun (bname, backend) ->
      case (Printf.sprintf "fuel exhausted after a fast prim [%s]" bname)
        (fun () ->
          let stats = Stats.create () in
          let s = Scheme.create ~backend ~stats () in
          ignore (Scheme.eval ~fuel s def);
          Stats.reset stats;
          Alcotest.(check string) "value" "3" (Scheme.eval_string ~fuel s call);
          (* [list], [cdr] and [+] are fused sites ([+] reads its
             first argument in place); [car] takes the generic pure
             call *)
          Alcotest.(check (pair int int)) "prim-fast, prim-calls" (3, 4)
            (stats.Stats.prim_fast, stats.Stats.prim_calls);
          let total = stats.Stats.instrs in
          for fuel = 1 to total - 1 do
            match (bname, exhaust backend fuel) with
            | "closure", None -> ()
            | "closure", Some n ->
                if n < fuel then Alcotest.failf "fuel %d: instrs %d" fuel n
            | _, None ->
                Alcotest.failf "fuel %d of %d did not run out" fuel total
            | _, Some n ->
                Alcotest.(check int) (Printf.sprintf "fuel %d" fuel) fuel n
          done))
    fault_backends

let suite =
  disasm_cases @ code_size_cases @ kept_return_cases @ differential_cases @ deopt_cases @ capture_cases @ fault_cases
  @ fuel_after_prim_cases
