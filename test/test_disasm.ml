(* Coverage audit for the disassembler: every [Rt.instr] constructor
   must render distinctly through [Bytecode.instr_to_string], so verifier
   diagnostics and [disassemble_deep] listings can always print the
   offending instruction unambiguously. *)

let case = Tutil.case

let exemplars =
  (* one instruction per constructor, every constructor represented *)
  let g = Globals.create () in
  Prims.install g;
  let slot = Globals.slot "car" in
  let cell = Globals.get g slot in
  let prim = match cell.Rt.gval with Rt.Prim p -> p | _ -> assert false in
  let fn, fn1, fn2 =
    match prim.Rt.pfn with
    | Rt.Pure p -> (p.fn, p.fn1, p.fn2)
    | _ -> assert false
  in
  let site =
    {
      Rt.ps_disp = 2;
      ps_nargs = 1;
      ps_slot = slot;
      ps_guard = cell.Rt.gval;
      ps_prim = prim;
      ps_fn = fn;
      ps_fn1 = fn1;
      ps_fn2 = fn2;
      ps_ret = Rt.void;
    }
  in
  let child =
    Bytecode.make_code ~name:"child" ~arity:(Rt.Exactly 0) ~frame_words:3
      [| Rt.Enter; Rt.Const (Values.of_int 1); Rt.Return |]
  in
  [
    Rt.Const (Values.of_int 7);
    Rt.Local_ref 3;
    Rt.Local_set 3;
    Rt.Box_init 3;
    Rt.Box_ref 3;
    Rt.Box_set 3;
    Rt.Free_ref 1;
    Rt.Free_box_ref 1;
    Rt.Free_box_set 1;
    Rt.Global_ref slot;
    Rt.Global_set slot;
    Rt.Global_define slot;
    Rt.Make_closure (child, [| Rt.Cap_local 2; Rt.Cap_free 0 |]);
    Rt.Branch 4;
    Rt.Branch_false 4;
    Rt.Call { Rt.cs_disp = 2; cs_nargs = 1; cs_ret = Rt.void };
    Rt.Tail_call { disp = 2; nargs = 1 };
    Rt.Return;
    Rt.Enter;
    Rt.Halt;
    Rt.Const_push (Values.of_int 7, 3);
    Rt.Local_push (2, 3);
    Rt.Free_push (1, 3);
    Rt.Global_push (slot, 3);
    Rt.Prim_call site;
    Rt.Prim_call1 site;
    Rt.Prim_call2 site;
    Rt.Prim_tail_call site;
    Rt.Local_branch_false (3, 4);
    Rt.Prim_branch1 (site, 4);
    Rt.Prim_branch2 (site, 4);
    Rt.Prim_call1_op (site, Rt.Op_local 3);
    Rt.Prim_call2_op (site, Rt.Op_local 3, Rt.Op_acc);
    Rt.Prim_branch1_op (site, Rt.Op_local 3, 4);
    Rt.Prim_branch2_op (site, Rt.Op_local 3, Rt.Op_acc, 4);
    Rt.Prim_tail1_op (site, Rt.Op_local 3);
    Rt.Prim_tail2_op (site, Rt.Op_local 3, Rt.Op_acc);
    Rt.Return_op (Rt.Op_const (Values.of_int 7));
  ]

(* Keep in sync with the [Rt.instr] declaration: a new constructor must
   be added to [exemplars] above (the count check fails otherwise, by
   construction of this list covering all current arms). *)
let constructor_count = 38

let suite =
  [
    case "one exemplar per instr constructor" (fun () ->
        Alcotest.(check int) "exemplar count" constructor_count
          (List.length exemplars));
    case "every constructor renders non-empty" (fun () ->
        List.iter
          (fun i ->
            if String.length (Bytecode.instr_to_string i) = 0 then
              Alcotest.fail "empty rendering")
          exemplars);
    case "every constructor renders distinctly" (fun () ->
        let rendered = List.map Bytecode.instr_to_string exemplars in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun s ->
            if Hashtbl.mem tbl s then
              Alcotest.failf "duplicate rendering: %s" s;
            Hashtbl.add tbl s ())
          rendered);
    case "operand forms distinguish their operands" (fun () ->
        let renders =
          List.map Bytecode.operand_to_string
            [ Rt.Op_acc; Rt.Op_local 0; Rt.Op_local 1; Rt.Op_const (Values.of_int 0) ]
        in
        Alcotest.(check int) "distinct operand renders" 4
          (List.length (List.sort_uniq compare renders)));
    case "disassemble_deep lists nested closures" (fun () ->
        let g = Globals.create () in
        Prims.install g;
        let codes =
          Compiler.compile_string g "(define (f x) (lambda (y) (+ x y)))"
        in
        let listing =
          String.concat "\n" (List.map Bytecode.disassemble_deep codes)
        in
        if not (String.length listing > 0) then
          Alcotest.fail "empty deep listing")
  ]
