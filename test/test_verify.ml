(* Static bytecode verifier: corpus-wide acceptance (every code object
   from the shipped corpora, under all four optimizer-stage combinations
   and through every bytecode backend's session) and targeted rejection
   of hand-built malformed / contract-violating instruction streams.

   The malformed streams are constructed as raw [Rt.code] records,
   bypassing [Bytecode.make_code]: the whole point is to present the
   verifier with streams the constructors would never produce. *)

let case = Tutil.case

(* ------------------------------------------------------------------ *)
(* Acceptance: the full corpus, all stage combos, all backends.        *)
(* ------------------------------------------------------------------ *)

let globals_with_prims () =
  let g = Globals.create () in
  Prims.install g;
  g

let corpus_sources =
  [
    ("prelude", Prelude.source);
    ("prelude-scheme-winders", Prelude.source_scheme_winders);
    ("programs", Programs.all_defs);
    ("threads", Threads.scheduler);
    ("cml", Cml.source);
  ]

let stage_combos =
  [
    ("peephole+regalloc", true, true);
    ("peephole", true, false);
    ("unfused", false, true);
    ("baseline", false, false);
  ]

let accept_corpus_cases =
  List.map
    (fun (cl, peephole, regalloc) ->
      case ("corpus verifies: " ^ cl) (fun () ->
          let g = globals_with_prims () in
          List.iter
            (fun (sl, src) ->
              let codes =
                Compiler.compile_string ~peephole ~regalloc g src
              in
              match Verify.verify_program codes with
              | () -> ()
              | exception Verify.Error m ->
                  Alcotest.failf "%s/%s rejected: %s" sl cl m)
            corpus_sources))
    stage_combos

(* Sessions with [~verify:true] verify everything they compile --
   prelude, corpus, and the program -- on each backend. *)
let accept_session_cases =
  List.concat_map
    (fun (bl, backend) ->
      List.map
        (fun (cl, peephole, regalloc) ->
          case (Printf.sprintf "session verifies [%s, %s]" bl cl) (fun () ->
              let s =
                Scheme.create ~backend ~corpus:true ~peephole ~regalloc
                  ~verify:true ()
              in
              let v =
                Scheme.eval ~fuel:Tutil.default_fuel s
                  "(begin (fib 10) (tak 12 6 3))"
              in
              Alcotest.(check string) "runs" "4" (Values.write_string v)))
        stage_combos)
    [
      ("stack", Scheme.Stack Control.default_config);
      ("closure", Scheme.Closure Control.default_config);
      ("heap", Scheme.Heap);
    ]

(* The runtime-internal return-entered trampolines are shared by every
   machine; they must verify under the every-pc-is-an-entry regime. *)
let shared_code_cases =
  [
    case "halt code verifies" (fun () -> Verify.verify Engine.halt_code);
    case "dynamic-wind resume code verifies" (fun () ->
        Verify.verify Prims.dw_resume_code);
    case "winder resume code verifies" (fun () ->
        Verify.verify Prims.wind_resume_code);
  ]

(* ------------------------------------------------------------------ *)
(* Rejection: hand-built malformed streams.                            *)
(* ------------------------------------------------------------------ *)

(* Raw code record, no validation; [backpatch] interns correct return
   addresses so tests target exactly one violation at a time. *)
let raw ?(name = "bad") ?(arity = Rt.Exactly 0) ?(backpatch = true) ~fw instrs
    =
  let c =
    {
      Rt.instrs;
      cname = name;
      arity;
      frame_words = fw;
      timer_ret = Rt.Void;
      templ = Rt.No_template;
      cline = 0;
      ccol = 0;
    }
  in
  if backpatch then Bytecode.backpatch c;
  c

let prim_site =
  let g = globals_with_prims () in
  fun ?(name = "car") ?(disp = 2) ?(nargs = 1) () ->
    let slot = Globals.slot name in
    let cell = Globals.get g slot in
    let prim =
      match cell.Rt.gval with Rt.Prim p -> p | _ -> assert false
    in
    let fn, fn1, fn2 =
      match prim.Rt.pfn with
      | Rt.Pure p -> (p.fn, p.fn1, p.fn2)
      | _ -> assert false
    in
    {
      Rt.ps_disp = disp;
      ps_nargs = nargs;
      ps_slot = slot;
      ps_guard = cell.Rt.gval;
      ps_prim = prim;
      ps_fn = fn;
      ps_fn1 = fn1;
      ps_fn2 = fn2;
      ps_ret = Rt.Void;
    }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rejects label ~needle code =
  case label (fun () ->
      match Verify.verify code with
      | () -> Alcotest.failf "verifier accepted %s" label
      | exception Verify.Error m ->
          if not (contains m needle) then
            Alcotest.failf "diagnostic %S does not mention %S" m needle)

let reject_cases =
  [
    (* 1. control can fall off the end *)
    rejects "rejects: no final transfer" ~needle:"does not transfer control"
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Rt.Int 1) |]);
    (* 2. accumulator read while dead *)
    rejects "rejects: return with dead accumulator"
      ~needle:"accumulator is dead"
      (raw ~fw:3 [| Rt.Enter; Rt.Return |]);
    (* 3. read of a never-initialized frame slot *)
    rejects "rejects: uninitialized slot read" ~needle:"uninitialized"
      (raw ~fw:5 [| Rt.Enter; Rt.Local_ref 3; Rt.Return |]);
    (* 4. slot write outside the declared frame extent *)
    rejects "rejects: slot outside frame" ~needle:"outside frame"
      (raw ~fw:3
         [| Rt.Enter; Rt.Const (Rt.Int 1); Rt.Local_set 9; Rt.Return |]);
    (* 5. branch target out of range *)
    rejects "rejects: branch target out of range" ~needle:"out of range"
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Rt.Bool false); Rt.Branch 99 |]);
    (* 6. branch target re-entering the Enter prologue *)
    rejects "rejects: branch into Enter prologue" ~needle:"Enter prologue"
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Rt.Bool true); Rt.Branch 0 |]);
    (* 7. non-tail call site whose return address was never interned *)
    rejects "rejects: call without interned return address"
      ~needle:"not interned"
      (raw ~backpatch:false ~fw:8
         [|
           Rt.Enter;
           Rt.Const (Rt.Int 1);
           Rt.Local_set 3;
           Rt.Const (Rt.Int 2);
           Rt.Local_set 4;
           Rt.Call { Rt.cs_disp = 2; cs_nargs = 1; cs_ret = Rt.Void };
           Rt.Return;
         |]);
    (* 8. return address interned for the wrong resume pc (stale after a
       renumbering pass that forgot to re-backpatch) *)
    rejects "rejects: stale return address" ~needle:"resumes at pc"
      (let site = { Rt.cs_disp = 2; cs_nargs = 1; cs_ret = Rt.Void } in
       let c =
         raw ~fw:8
           [|
             Rt.Enter;
             Rt.Const (Rt.Int 1);
             Rt.Local_set 3;
             Rt.Const (Rt.Int 2);
             Rt.Local_set 4;
             Rt.Call site;
             Rt.Return;
           |]
       in
       site.Rt.cs_ret <-
         Rt.Retaddr { Rt.rcode = c; rpc = 3; rdisp = 2 };
       c);
    (* 9. branch-fused site whose landing pad is not the retained
       Branch_false *)
    rejects "rejects: unfaithful branch landing pad"
      ~needle:"not the retained"
      (let s = prim_site ~name:"null?" () in
       raw ~fw:6
         [|
           Rt.Enter;
           Rt.Const Rt.Nil;
           Rt.Local_set 3;
           Rt.Prim_branch1 (s, 6);
           Rt.Const (Rt.Int 1);
           Rt.Return;
           Rt.Const (Rt.Int 2);
           Rt.Return;
         |]);
    (* 10. operand form whose retained consumer is a different (if
       structurally equal) prim site record *)
    rejects "rejects: landing pad not sharing the prim site"
      ~needle:"does not share"
      (let s1 = prim_site () and s2 = prim_site () in
       raw ~fw:6
         [|
           Rt.Enter;
           Rt.Const Rt.Nil;
           Rt.Local_set 3;
           Rt.Prim_call1_op (s1, Rt.Op_local 3);
           Rt.Prim_call1 s2;
           Rt.Return;
         |]);
    (* 11. operand form whose retained push restages a different value *)
    rejects "rejects: landing pad restaging the wrong operand"
      ~needle:"does not restage"
      (let s = prim_site ~name:"+" ~nargs:2 () in
       raw ~fw:8
         [|
           Rt.Enter;
           Rt.Const_push (Rt.Int 1, 4);
           Rt.Prim_call2_op (s, Rt.Op_const (Rt.Int 1), Rt.Op_const (Rt.Int 2));
           Rt.Const_push (Rt.Int 99, 5);
           Rt.Prim_call2 s;
           Rt.Return;
         |]);
    (* 12. join-point inconsistency: a slot initialized on only one arm
       of a conditional is read after the join *)
    rejects "rejects: join-inconsistent slot initialization"
      ~needle:"uninitialized on some path"
      (raw ~fw:5
         [|
           Rt.Enter;
           Rt.Const (Rt.Bool true);
           Rt.Branch_false 5;
           Rt.Const (Rt.Int 1);
           Rt.Local_set 3;
           (* join: slot 3 is set only on the fall-through arm *)
           Rt.Local_ref 3;
           Rt.Return;
         |]);
    (* 13. Enter outside the prologue *)
    rejects "rejects: Enter in mid-stream" ~needle:"Enter outside"
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Rt.Int 1); Rt.Enter; Rt.Return |]);
    (* 14. prim site nargs disagreeing with the fixed-arity instruction *)
    rejects "rejects: prim site nargs mismatch" ~needle:"nargs"
      (let s = prim_site ~nargs:2 () in
       raw ~fw:6
         [|
           Rt.Enter;
           Rt.Const Rt.Nil;
           Rt.Local_set 3;
           Rt.Prim_call1 s;
           Rt.Return;
         |]);
    (* 15. in-place first operand: its argument slot was never stored *)
    rejects "rejects: in-place operand of an unstored argument slot"
      ~needle:"uninitialized"
      (let s = prim_site ~name:"+" ~nargs:2 () in
       raw ~fw:8
         [|
           Rt.Enter;
           Rt.Const (Rt.Int 2);
           Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
           Rt.Prim_call2 s;
           Rt.Return;
         |]);
    (* 16. in-place first operand: no staging is retained, so the
       consumer must follow the head directly *)
    rejects "rejects: in-place operand form with a pad between"
      ~needle:"not the retained Prim_call2 consumer"
      (let s = prim_site ~name:"+" ~nargs:2 () in
       raw ~fw:8
         [|
           Rt.Enter;
           Rt.Const (Rt.Int 1);
           Rt.Local_set 4;
           Rt.Const (Rt.Int 2);
           Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
           Rt.Local_set 5;
           Rt.Prim_call2 s;
           Rt.Return;
         |]);
    (* 17. closure capture index outside the enclosing frame *)
    rejects "rejects: capture index outside frame" ~needle:"captured"
      (let child =
         raw ~name:"child" ~arity:(Rt.Exactly 0) ~fw:3
           [| Rt.Enter; Rt.Const (Rt.Int 1); Rt.Return |]
       in
       raw ~fw:3
         [| Rt.Enter; Rt.Make_closure (child, [| Rt.Cap_local 7 |]); Rt.Return |]);
    (* 18. child code object of a closure is verified too *)
    rejects "rejects: malformed nested closure body" ~needle:"child"
      (let child =
         raw ~name:"child" ~arity:(Rt.Exactly 0) ~fw:3
           [| Rt.Enter; Rt.Return |]
       in
       raw ~fw:4
         [| Rt.Enter; Rt.Make_closure (child, [||]); Rt.Return |]);
  ]

(* ------------------------------------------------------------------ *)
(* Tightened Bytecode.validate (construction-time checks).             *)
(* ------------------------------------------------------------------ *)

let validate_rejects label ~needle ~fw instrs =
  case label (fun () ->
      match Bytecode.validate ~name:"v" ~frame_words:fw instrs with
      | () -> Alcotest.failf "validate accepted %s" label
      | exception Invalid_argument m ->
          if not (contains m needle) then
            Alcotest.failf "message %S does not mention %S" m needle)

let validate_cases =
  [
    validate_rejects "validate: empty stream" ~needle:"empty" ~fw:3 [||];
    validate_rejects "validate: falls off the end"
      ~needle:"fall off the end" ~fw:3 [| Rt.Const (Rt.Int 1) |];
    validate_rejects "validate: branch target out of range"
      ~needle:"out of range" ~fw:3 [| Rt.Branch 7; Rt.Return |];
    validate_rejects "validate: operand index past frame-words"
      ~needle:"operand index 9 out of frame (frame-words=4)" ~fw:4
      [| Rt.Return_op (Rt.Op_local 9); Rt.Return |];
    validate_rejects "validate: branch into a fused landing pad"
      ~needle:"lands inside a fused landing pad" ~fw:8
      (let s = prim_site ~name:"+" ~nargs:2 () in
       [|
         Rt.Branch 2;
         Rt.Prim_call2_op (s, Rt.Op_const (Rt.Int 1), Rt.Op_const (Rt.Int 2));
         Rt.Const_push (Rt.Int 2, 5);
         Rt.Prim_call2 s;
         Rt.Return;
       |]);
    case "validate: accepts a branch to the pad consumer" (fun () ->
        let s = prim_site ~name:"+" ~nargs:2 () in
        Bytecode.validate ~name:"v" ~frame_words:8
          [|
            Rt.Branch 3;
            Rt.Prim_call2_op
              (s, Rt.Op_const (Rt.Int 1), Rt.Op_const (Rt.Int 2));
            Rt.Const_push (Rt.Int 2, 5);
            Rt.Prim_call2 s;
            Rt.Return;
          |]);
  ]

(* A first operand read in place from its own argument slot needs no
   restaging pad: the head stands in for the second operand's staging
   and the consumer follows it, and a branch may target that consumer. *)
let in_place_cases =
  [
    case "accepts: in-place operand with the consumer at pc+1" (fun () ->
        let s = prim_site ~name:"+" ~nargs:2 () in
        Verify.verify
          (raw ~fw:8
             [|
               Rt.Enter;
               Rt.Const (Rt.Int 1);
               Rt.Local_set 4;
               Rt.Const (Rt.Int 2);
               Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
               Rt.Prim_call2 s;
               Rt.Return;
             |]));
    case "validate: accepts a branch to an in-place form's consumer"
      (fun () ->
        let s = prim_site ~name:"+" ~nargs:2 () in
        Bytecode.validate ~name:"v" ~frame_words:8
          [|
            Rt.Branch 2;
            Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
            Rt.Prim_call2 s;
            Rt.Return;
          |]);
  ]

let suite =
  accept_corpus_cases @ accept_session_cases @ shared_code_cases
  @ reject_cases @ validate_cases @ in_place_cases
