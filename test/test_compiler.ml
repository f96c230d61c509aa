(* Compiler unit tests: code-object shape, closure conversion, boxing
   decisions, direct-lambda inlining, and tail-call emission. *)

let case = Tutil.case

let compile_one src =
  let globals = Globals.create () in
  match Compiler.compile_string globals src with
  | [ code ] -> code
  | codes -> Alcotest.failf "expected one form, got %d" (List.length codes)

let instrs code = Array.to_list code.Rt.instrs

let count_instr pred code =
  let n = ref 0 in
  let rec walk (c : Rt.code) =
    Array.iter
      (fun i ->
        if pred i then incr n;
        match i with Rt.Make_closure (c', _) -> walk c' | _ -> ())
      c.Rt.instrs
  in
  walk code;
  !n

let has_instr pred code = count_instr pred code > 0

let suite =
  [
    case "toplevel code enters and returns" (fun () ->
        let code = compile_one "42" in
        (match instrs code with
        | Rt.Enter :: _ -> ()
        | _ -> Alcotest.fail "first instruction must be Enter");
        (* the constant and its [Return] fold into one [Return_op] *)
        match List.rev (instrs code) with
        | Rt.Return_op (Rt.Op_const v) :: _ when v == Values.of_int 42 -> ()
        | _ -> Alcotest.fail "last instruction must be return-op 42");
    case "direct lambda application allocates no closure" (fun () ->
        let code = compile_one "(let ((x 1) (y 2)) (+ x y))" in
        Alcotest.(check int) "closures" 0
          (count_instr (function Rt.Make_closure _ -> true | _ -> false) code));
    case "escaping lambda allocates a closure" (fun () ->
        let code = compile_one "(lambda (x) x)" in
        Alcotest.(check int) "closures" 1
          (count_instr (function Rt.Make_closure _ -> true | _ -> false) code));
    case "tail position compiles to tail call" (fun () ->
        let code = compile_one "(define (f x) (f x))" in
        Alcotest.(check bool) "has tail call" true
          (has_instr (function Rt.Tail_call _ -> true | _ -> false) code);
        Alcotest.(check int) "no non-tail call" 0
          (count_instr (function Rt.Call _ -> true | _ -> false) code));
    case "non-tail call is not a tail call" (fun () ->
        let code = compile_one "(define (f x) (+ 1 (f x)))" in
        Alcotest.(check bool) "has call" true
          (has_instr (function Rt.Call _ -> true | _ -> false) code));
    case "unassigned variables are not boxed" (fun () ->
        let code = compile_one "(let ((x 1)) ((lambda () x)))" in
        Alcotest.(check int) "boxes" 0
          (count_instr (function Rt.Box_init _ -> true | _ -> false) code));
    case "assigned variables are boxed" (fun () ->
        let code = compile_one "(let ((x 1)) (set! x 2) x)" in
        Alcotest.(check bool) "boxed" true
          (has_instr (function Rt.Box_init _ -> true | _ -> false) code));
    case "assigned captured variable read through box" (fun () ->
        let code =
          compile_one "(let ((x 1)) (lambda () (set! x (+ x 1)) x))"
        in
        Alcotest.(check bool) "free box ref" true
          (has_instr (function Rt.Free_box_ref _ -> true | _ -> false) code));
    case "free variables resolved through closure" (fun () ->
        let code = compile_one "(lambda (x) (lambda () x))" in
        Alcotest.(check bool) "free ref" true
          (has_instr (function Rt.Free_ref _ -> true | _ -> false) code));
    case "frame_words covers arguments and temps" (fun () ->
        let code = compile_one "(+ 1 2 3 4 5 6 7 8)" in
        (* fn slot + 8 args + ret + slack *)
        Alcotest.(check bool) "frame wide enough"
          true
          (code.Rt.frame_words >= 11));
    case "variadic lambda arity" (fun () ->
        let code = compile_one "(lambda (a b . r) r)" in
        match instrs code with
        | [ Rt.Enter; Rt.Make_closure (c, _); Rt.Return ] ->
            Alcotest.(check string)
              "arity" "2+"
              (Bytecode.arity_to_string c.Rt.arity)
        | _ -> Alcotest.fail "unexpected toplevel shape");
    case "disassembler names globals" (fun () ->
        let code = compile_one "(car '(1))" in
        let text = Bytecode.disassemble code in
        Alcotest.(check bool) "mentions car" true
          (Tutil.contains ~sub:"car" text));
    case "disassemble_deep includes nested code" (fun () ->
        let code = compile_one "(lambda (x) (lambda (y) (+ x y)))" in
        let text = Bytecode.disassemble_deep code in
        (* The inner lambda reads its free [x]; after peephole fusion the
           read appears as free-push rather than free-ref. *)
        Alcotest.(check bool) "two lambdas" true
          (Tutil.contains ~sub:"free-ref" text
          || Tutil.contains ~sub:"free-push" text));
    case "branch targets in range" (fun () ->
        let code = compile_one "(if (if 1 2 3) (if 4 5 6) (if 7 8 9))" in
        Array.iter
          (function
            | Rt.Branch pc | Rt.Branch_false pc ->
                if pc < 0 || pc > Array.length code.Rt.instrs then
                  Alcotest.failf "branch target %d out of range" pc
            | _ -> ())
          code.Rt.instrs);
    case "compile error on unbound is deferred to runtime" (fun () ->
        (* Unbound globals are a runtime error, not a compile error. *)
        let _ = compile_one "(this-is-unbound)" in
        ());
    (* Deep let nesting reuses slots: frame stays small. *)
    case "sequential lets release slots" (fun () ->
        let seq =
          String.concat " "
            (List.init 30 (fun i ->
                 Printf.sprintf "(let ((x%d %d)) x%d)" i i i))
        in
        (* wrapped in a lambda body: top-level (begin ...) splices *)
        let code = compile_one (Printf.sprintf "((lambda () %s))" seq) in
        Alcotest.(check bool) "frame stays small" true
          (code.Rt.frame_words < 16));
  ]

(* Optimizer unit tests. *)
let opt_one src =
  match Expander.expand_string src with
  | [ Ast.Expr (e, _) ] -> Optimize.expr e
  | _ -> Alcotest.fail "expected one expression"

let opt_suite =
  [
    case "folds constant arithmetic" (fun () ->
        match opt_one "(+ 1 2 (* 3 4))" with
        | Ast.Quote v when v == Values.of_int 15 -> ()
        | e -> Alcotest.failf "not folded: %s" (Ast.to_string e));
    case "folds comparisons and prunes branches" (fun () ->
        match opt_one "(if (< 1 2) 'yes (car 5))" with
        | Ast.Quote (Rt.Sym "yes") -> ()
        | e -> Alcotest.failf "not pruned: %s" (Ast.to_string e));
    case "does not fold through shadowing" (fun () ->
        match opt_one "((lambda (+) (+ 1 2)) 99)" with
        | Ast.App _ -> ()
        | e -> Alcotest.failf "unexpectedly folded: %s" (Ast.to_string e));
    case "does not fold division by zero" (fun () ->
        match opt_one "(quotient 1 0)" with
        | Ast.App _ -> ()
        | e -> Alcotest.failf "folded a crash: %s" (Ast.to_string e));
    case "drops effect-free begin positions" (fun () ->
        (* wrapped in if: top-level begin splices *)
        match opt_one "(if #t (begin 1 2 3) 99)" with
        | Ast.Quote v when v == Values.of_int 3 -> ()
        | e -> Alcotest.failf "begin kept: %s" (Ast.to_string e));
    case "keeps effectful begin positions" (fun () ->
        match opt_one "(if #t (begin (display 1) 2) 99)" with
        | Ast.Begin [ _; _ ] -> ()
        | e -> Alcotest.failf "dropped an effect: %s" (Ast.to_string e));
    case "folds car of quoted structure" (fun () ->
        match opt_one "(car '(a b))" with
        | Ast.Quote (Rt.Sym "a") -> ()
        | e -> Alcotest.failf "not folded: %s" (Ast.to_string e));
    case "does not fold eq? of mutable structure" (fun () ->
        match opt_one {|(eq? "a" "a")|} with
        | Ast.App _ -> ()
        | e -> Alcotest.failf "unsound fold: %s" (Ast.to_string e));
    case "optimized program runs the same" (fun () ->
        Alcotest.(check string)
          "equal" "120"
          (let s =
             Scheme.create ~backend:(Scheme.Stack Control.default_config)
               ~options:{ Compiler.default_options with optimize = true }
               ()
           in
           Scheme.eval_string s
             "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1))))) (fact 5)"));
  ]

let suite = suite @ opt_suite

(* ------------------------------------------------------------------ *)
(* Bytecode identity pin                                               *)
(* ------------------------------------------------------------------ *)

(* A program in the shape of the compile benchmark's jobs: the
   [my-sum]/[my-let*]/[swap!]/[pairs-sum] macros, a 12-wide [let] and a
   depth-6 arithmetic tree.  The tree's shape follows its node numbers,
   so the text is fixed. *)
let compile_shape_program =
  let rec arith k depth =
    if depth = 0 then
      match k mod 3 with 0 -> "a" | 1 -> "b" | _ -> string_of_int (k mod 10)
    else
      let l = arith ((2 * k) + 1) (depth - 1) in
      match k mod 3 with
      | 0 -> Printf.sprintf "(+ %s %s)" l (arith ((2 * k) + 2) (depth - 1))
      | 1 -> Printf.sprintf "(- %s %s)" l (arith ((2 * k) + 2) (depth - 1))
      | _ -> Printf.sprintf "(* %d %s)" (1 + (k mod 4)) l
  in
  let vars = List.init 12 (Printf.sprintf "v%d") in
  String.concat "\n"
    [
      "(define-syntax my-sum";
      "  (syntax-rules () ((_) 0) ((_ x y ...) (+ x (my-sum y ...)))))";
      "(define-syntax my-let*";
      "  (syntax-rules ()";
      "    ((_ () body ...) (let () body ...))";
      "    ((_ ((n v) rest ...) body ...) (let ((n v)) (my-let* (rest ...) body ...)))))";
      "(define-syntax swap!";
      "  (syntax-rules () ((_ x y) (let ((tmp x)) (set! x y) (set! y tmp)))))";
      "(define-syntax pairs-sum";
      "  (syntax-rules () ((_ (p q) ...) (my-sum (- p q) ...))))";
      Printf.sprintf "(define (f a b) %s)" (arith 0 6);
      Printf.sprintf
        "(define (w x)\n  (let (%s)\n    (swap! v0 v1)\n    (my-let* ((s (my-sum %s)) (t (pairs-sum (v0 v1) (v2 v3)))) (+ s t))))"
        (String.concat " "
           (List.mapi (fun j v -> Printf.sprintf "(%s (f x %d))" v j) vars))
        (String.concat " " vars);
      "(my-sum (f 1 2) (w 3) (w 4))";
    ]

let identity_sources =
  [
    Prelude.source; Programs.all_defs; Threads.scheduler;
    Cml.source; compile_shape_program;
  ]

let compile_identity ~peephole ~regalloc =
  let globals = Scheme.globals (Scheme.create ()) in
  let menv = Macro.create_menv () in
  List.concat_map
    (Compiler.compile_string
       ~options:{ Compiler.default_options with peephole; regalloc }
       ~menv globals)
    identity_sources

let listing codes =
  String.concat "\n" (List.map Bytecode.disassemble_deep codes)

(* Every non-tail call site's interned return address names its own code
   object, the next pc and the site's displacement; the operand forms
   are call sites of their own. *)
let check_retaddrs codes =
  let check (c : Rt.code) pc disp = function
    | Rt.Retaddr { rcode; rpc; rdisp } ->
        if rcode != c || rpc <> pc + 1 || rdisp <> disp then
          Alcotest.failf "%s pc %d: stale return address" c.Rt.cname pc
    | _ -> Alcotest.failf "%s pc %d: return address not interned" c.Rt.cname pc
  in
  List.iter
    (fun (c : Rt.code) ->
      Array.iteri
        (fun pc -> function
          | Rt.Call s -> check c pc s.Rt.cs_disp s.Rt.cs_ret
          | Rt.Prim_call s | Rt.Prim_call1 s | Rt.Prim_call2 s
          | Rt.Prim_branch1 (s, _)
          | Rt.Prim_branch2 (s, _)
          | Rt.Prim_call1_op (s, _)
          | Rt.Prim_call2_op (s, _, _)
          | Rt.Prim_branch1_op (s, _, _)
          | Rt.Prim_branch2_op (s, _, _, _) ->
              check c pc s.Rt.ps_disp s.Rt.ps_ret
          | _ -> ())
        c.Rt.instrs)
    (List.fold_left Bytecode.collect_codes [] codes)

(* The compiler and the peephole must emit exactly the bytecode they
   emitted when these digests were recorded: a change to the back end
   that is meant to be a pure speed-up shows here first.  Compiling the
   sources a second time (after the first pass has advanced the
   expander's fresh-name and hygiene-mark counters) must print the same
   listing, so no printed name comes from a process-wide counter and
   the digests do not depend on test order. *)
let identity_digests =
  [
    ((true, true), "c47944bf5036d92175b48735e2ed5642");
    ((true, false), "29e5a6f1806ce4e28c09bc412958744d");
    ((false, true), "2d19350d45b15497578c853e1e38807c");
    ((false, false), "2d19350d45b15497578c853e1e38807c");
  ]

let identity_suite =
  List.map
    (fun ((peephole, regalloc), digest) ->
      case
        (Printf.sprintf "bytecode identity pin [peephole=%b regalloc=%b]"
           peephole regalloc) (fun () ->
          let codes = compile_identity ~peephole ~regalloc in
          let text = listing codes in
          Alcotest.(check string) "recompiled listing" text
            (listing (compile_identity ~peephole ~regalloc));
          Alcotest.(check bool) "no hygiene mark printed" false
            (String.contains text Macro.mark_char);
          check_retaddrs codes;
          Alcotest.(check string) "digest" digest
            (Digest.to_hex (Digest.string text))))
    identity_digests

let suite = suite @ identity_suite
