(* Static bytecode verifier: corpus-wide acceptance (every code object
   from the shipped corpora, under all four optimizer-stage combinations
   and through every bytecode backend's session) and targeted rejection
   of hand-built malformed / contract-violating instruction streams.

   The malformed streams are built as unfinished code objects
   ([Bytecode.code]), bypassing [Bytecode.make_code]'s validation: the
   whole point is to present the verifier with streams the constructors
   would never produce. *)

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
                Compiler.compile_string
                  ~options:{ Compiler.default_options with peephole; regalloc }
                  g src
              in
              match Verify.verify_program codes with
              | () -> ()
              | exception Verify.Error m ->
                  Alcotest.failf "%s/%s rejected: %s" sl cl m)
            corpus_sources))
    stage_combos

(* Sessions with [verify = true] verify everything they compile --
   prelude, corpus, and the program -- on each backend. *)
let accept_session_cases =
  List.concat_map
    (fun (bl, backend) ->
      List.map
        (fun (cl, peephole, regalloc) ->
          case (Printf.sprintf "session verifies [%s, %s]" bl cl) (fun () ->
              let s =
                Scheme.create ~backend ~corpus:true
                  ~options:
                    {
                      Compiler.default_options with
                      peephole;
                      regalloc;
                      verify = true;
                    }
                  ()
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

(* Unfinished code object, no validation; [backpatch] interns correct return
   addresses so tests target exactly one violation at a time. *)
let raw ?(name = "bad") ?(arity = Rt.Exactly 0) ?(backpatch = true) ~fw instrs
    =
  let c = Bytecode.code ~name ~arity ~frame_words:fw instrs in
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
      ps_ret = Rt.void;
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
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Values.of_int 1) |]);
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
         [| Rt.Enter; Rt.Const (Values.of_int 1); Rt.Local_set 9; Rt.Return |]);
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
           Rt.Const (Values.of_int 1);
           Rt.Local_set 3;
           Rt.Const (Values.of_int 2);
           Rt.Local_set 4;
           Rt.Call { Rt.cs_disp = 2; cs_nargs = 1; cs_ret = Rt.void };
           Rt.Return;
         |]);
    (* 8. return address interned for the wrong resume pc (stale after a
       renumbering pass that forgot to re-backpatch) *)
    rejects "rejects: stale return address" ~needle:"resumes at pc"
      (let site = { Rt.cs_disp = 2; cs_nargs = 1; cs_ret = Rt.void } in
       let c =
         raw ~fw:8
           [|
             Rt.Enter;
             Rt.Const (Values.of_int 1);
             Rt.Local_set 3;
             Rt.Const (Values.of_int 2);
             Rt.Local_set 4;
             Rt.Call site;
             Rt.Return;
           |]
       in
       site.Rt.cs_ret <-
         Rt.Retaddr { rcode = c; rpc = 3; rdisp = 2 };
       c);
    (* 9. branch-fused site whose landing pad is not the retained
       Branch_false *)
    rejects "rejects: unfaithful branch landing pad"
      ~needle:"not the retained"
      (let s = prim_site ~name:"null?" () in
       raw ~fw:6
         [|
           Rt.Enter;
           Rt.Const Rt.nil;
           Rt.Local_set 3;
           Rt.Prim_branch1 (s, 6);
           Rt.Const (Values.of_int 1);
           Rt.Return;
           Rt.Const (Values.of_int 2);
           Rt.Return;
         |]);
    (* 10. join-point inconsistency: a slot initialized on only one arm
       of a conditional is read after the join *)
    rejects "rejects: join-inconsistent slot initialization"
      ~needle:"uninitialized on some path"
      (raw ~fw:5
         [|
           Rt.Enter;
           Rt.Const (Rt.Bool true);
           Rt.Branch_false 5;
           Rt.Const (Values.of_int 1);
           Rt.Local_set 3;
           (* join: slot 3 is set only on the fall-through arm *)
           Rt.Local_ref 3;
           Rt.Return;
         |]);
    (* 11. Enter outside the prologue *)
    rejects "rejects: Enter in mid-stream" ~needle:"Enter outside"
      (raw ~fw:3 [| Rt.Enter; Rt.Const (Values.of_int 1); Rt.Enter; Rt.Return |]);
    (* 12. prim site nargs disagreeing with the fixed-arity instruction *)
    rejects "rejects: prim site nargs mismatch" ~needle:"nargs"
      (let s = prim_site ~nargs:2 () in
       raw ~fw:6
         [|
           Rt.Enter;
           Rt.Const Rt.nil;
           Rt.Local_set 3;
           Rt.Prim_call1 s;
           Rt.Return;
         |]);
    (* 13. in-place first operand: its argument slot was never stored *)
    rejects "rejects: in-place operand of an unstored argument slot"
      ~needle:"uninitialized"
      (let s = prim_site ~name:"+" ~nargs:2 () in
       raw ~fw:8
         [|
           Rt.Enter;
           Rt.Const (Values.of_int 2);
           Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
           Rt.Return;
         |]);
    (* 14. branch operand form whose next instruction is not the
       Branch_false a deopted call resumes at *)
    rejects "rejects: branch operand form without its Branch_false"
      ~needle:"not the retained Branch_false"
      (let s = prim_site ~name:"<" ~nargs:2 () in
       raw ~fw:8
         [|
           Rt.Enter;
           Rt.Const (Values.of_int 1);
           Rt.Prim_branch2_op (s, Rt.Op_acc, Rt.Op_const (Values.of_int 2), 5);
           Rt.Const (Values.of_int 1);
           Rt.Return;
           Rt.Const (Values.of_int 2);
           Rt.Return;
         |]);
    (* 15. closure capture index outside the enclosing frame *)
    rejects "rejects: capture index outside frame" ~needle:"captured"
      (let child =
         raw ~name:"child" ~arity:(Rt.Exactly 0) ~fw:3
           [| Rt.Enter; Rt.Const (Values.of_int 1); Rt.Return |]
       in
       raw ~fw:3
         [| Rt.Enter; Rt.Make_closure (child, [| Rt.Cap_local 7 |]); Rt.Return |]);
    (* 16. child code object of a closure is verified too *)
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
      ~needle:"fall off the end" ~fw:3 [| Rt.Const (Values.of_int 1) |];
    validate_rejects "validate: branch target out of range"
      ~needle:"out of range" ~fw:3 [| Rt.Branch 7; Rt.Return |];
    validate_rejects "validate: operand index past frame-words"
      ~needle:"operand index 9 out of frame (frame-words=4)" ~fw:4
      [| Rt.Return_op (Rt.Op_local 9); Rt.Return |];
  ]

(* A first operand read in place from its own argument slot, stored by
   earlier code: the form stands for the second operand's staging and
   the call, and the verifier reads the slot's initialization. *)
let in_place_cases =
  [
    case "accepts: in-place operand of a stored argument slot" (fun () ->
        let s = prim_site ~name:"+" ~nargs:2 () in
        Verify.verify
          (raw ~fw:8
             [|
               Rt.Enter;
               Rt.Const_push (Values.of_int 1, 4);
               Rt.Const (Values.of_int 2);
               Rt.Prim_call2_op (s, Rt.Op_local 4, Rt.Op_acc);
               Rt.Return;
             |]));
  ]

(* ------------------------------------------------------------------ *)
(* Joins: loops, shared children, allocation.                          *)
(* ------------------------------------------------------------------ *)

let accepts label code = case label (fun () -> Verify.verify code)

(* A loop's head is a join with a back edge into it.  The state that
   comes around the back edge must be ANDed into the head, and the head
   walked again when that drops a bit: a call in the body clears the
   slot the head reads. *)
let loop_cases =
  let head_reads_body_init ~before =
    raw ~fw:4
      (Array.of_list
         ([ Rt.Enter; Rt.Const (Values.of_int 0) ]
         @ (if before then [ Rt.Local_set 3 ] else [])
         @
         let h = if before then 3 else 2 in
         [
           Rt.Local_ref 3;
           Rt.Branch_false (h + 5);
           Rt.Const (Values.of_int 1);
           Rt.Local_set 3;
           Rt.Branch h;
           Rt.Return;
         ]))
  in
  let call_in_body ~restore =
    raw ~fw:4
      (Array.of_list
         ([
            Rt.Enter;
            Rt.Const (Values.of_int 0);
            Rt.Local_set 3;
            Rt.Local_ref 3;
            Rt.Branch_false (if restore then 8 else 7);
            Rt.Call { Rt.cs_disp = 2; cs_nargs = 0; cs_ret = Rt.void };
          ]
         @ (if restore then [ Rt.Local_set 3 ] else [])
         @ [ Rt.Branch 3; Rt.Return ]))
  in
  [
    rejects "rejects: loop head reads a slot only its body initializes"
      ~needle:"reads frame slot 3, uninitialized on some path"
      (head_reads_body_init ~before:false);
    accepts "accepts: the same loop with the slot initialized before entry"
      (head_reads_body_init ~before:true);
    rejects "rejects: a call in a loop body clears the slot the head reads"
      ~needle:"reads frame slot 3, uninitialized on some path"
      (call_in_body ~restore:false);
    accepts "accepts: the same loop with the slot stored again after the call"
      (call_in_body ~restore:true);
  ]

(* Thirty levels of codes, each closing over the one below twice, all
   with one name and source position: 2^30 paths, 31 code objects. *)
let dag_cases =
  let rec level k =
    if k = 0 then raw ~name:"lambda" ~fw:2 [| Rt.Enter; Rt.Const (Values.of_int 0); Rt.Return |]
    else
      let child = level (k - 1) in
      raw ~name:"lambda" ~fw:2
        [|
          Rt.Enter;
          Rt.Make_closure (child, [||]);
          Rt.Make_closure (child, [||]);
          Rt.Return;
        |]
  in
  let top = level 30 in
  [
    case "a 30-level code DAG closing over each child twice verifies"
      (fun () -> Verify.verify top);
    case "collect_codes visits each of the DAG's 31 codes once" (fun () ->
        Alcotest.(check int) "codes" 31
          (List.length (Bytecode.collect_codes [] top)));
  ]

(* Words allocated by [f] on both heaps.  [Gc.minor_words] alone misses
   arrays of over 256 words, which go straight to the major heap, as
   the per-pc states of a large frame would; a minor collection before
   each reading brings the major counters up to date. *)
let allocated f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  f ();
  words () -. w0

let compiled src =
  Compiler.compile_string
    ~options:{ Compiler.default_options with verify = false }
    (globals_with_prims ()) src

let shape_source kind n =
  let b = Buffer.create (16 * n) in
  (match kind with
  | `Nested ->
      Buffer.add_string b "(define (f x) ";
      for _ = 1 to n do
        Buffer.add_string b "(+ x "
      done;
      Buffer.add_string b ("0" ^ String.make n ')' ^ ")")
  | `Let ->
      Buffer.add_string b "(let (";
      for i = 0 to n - 1 do
        Printf.bprintf b "(v%d %d) " i (i mod 2)
      done;
      Printf.bprintf b ") (+ v0 v%d))" (n - 1)
  | `Lambdas ->
      Buffer.add_string b "(define (f) (list";
      for i = 0 to n - 1 do
        Printf.bprintf b " (lambda () %d)" i
      done;
      Buffer.add_string b "))");
  Buffer.contents b

(* The memory bound (DESIGN §16.1) is one pc table, a state of
   ceil((frame_words + 1) / 8) bytes per join and per forked run, and
   per code object its set entry and its place in its parent's child
   list.  The pc table is kept across the codes of one call and grown
   geometrically: at most 2 words per pc.  These shapes are straight
   lines, so their only states are the entry states, plus 2 words of
   header each; a set entry and a child-list place take at most 32
   words.  A verifier with a state at every pc allocates frame_words
   bits per pc: 5,347 words per instruction for the nested shape at
   n = 1,000. *)
let allocation_cases =
  List.map
    (fun (label, kind, n) ->
      case
        (Printf.sprintf "verifying %s at n = %d allocates within the bound"
           label n) (fun () ->
          let codes = compiled (shape_source kind n) in
          let all = List.fold_left Bytecode.collect_codes [] codes in
          let bound =
            List.fold_left
              (fun b (c : Rt.code) ->
                b + (2 * Array.length c.Rt.instrs) + 32 + 2
                + ((c.Rt.frame_words + 8) / 64))
              0 all
          in
          let words = allocated (fun () -> Verify.verify_program codes) in
          if words > float_of_int bound then
            Alcotest.failf "%.0f words, bound %d (%d codes)" words bound
              (List.length all)))
    [
      ("nested arithmetic", `Nested, 16_000);
      ("a wide let", `Let, 20_000);
      ("inner lambdas", `Lambdas, 16_000);
    ]
  @ [
      case "verifying the prelude allocates under 10,000 words" (fun () ->
          let codes = compiled Prelude.source in
          let words = allocated (fun () -> Verify.verify_program codes) in
          if words >= 10_000. then Alcotest.failf "%.0f words" words);
    ]

let suite =
  accept_corpus_cases @ accept_session_cases @ shared_code_cases
  @ reject_cases @ validate_cases @ in_place_cases @ loop_cases @ dag_cases
  @ allocation_cases
