open Rt

(* ------------------------------------------------------------------ *)
(* Validation: the dispatch loop fetches instructions with              *)
(* [Array.unsafe_get], so every code object must be closed under pc     *)
(* arithmetic: non-empty, all branch targets in range, and a final      *)
(* instruction that unconditionally transfers control (falling off the  *)
(* end is impossible).  Checked once, by [finish], never at runtime.    *)
(* ------------------------------------------------------------------ *)

let transfers_control = function
  | Return | Halt | Branch _ | Tail_call _ | Prim_tail_call _ -> true
  (* The register-addressed tail/return forms transfer unconditionally
     too (their deopt paths tail-call through the frame policy). *)
  | Return_op _ | Prim_tail1_op _ | Prim_tail2_op _ -> true
  | _ -> false

let check_ends ~name instrs =
  let n = Array.length instrs in
  if n = 0 then invalid_arg (name ^ ": empty instruction stream");
  if not (transfers_control instrs.(n - 1)) then
    invalid_arg (name ^ ": code can fall off the end of the instruction stream")

let check_operand ~name ~frame_words = function
  | Op_local i when i < 0 || i >= frame_words ->
      invalid_arg
        (Printf.sprintf "%s: operand index %d out of frame (frame-words=%d)" name
           i frame_words)
  | Op_local _ | Op_acc | Op_const _ -> ()

(* The per-instruction checks of [validate]. *)
let check_instr ~name ~frame_words instrs instr =
  (match instr with
  | Branch t | Branch_false t
  | Local_branch_false (_, t)
  | Prim_branch1 (_, t)
  | Prim_branch2 (_, t)
  | Prim_branch1_op (_, _, t)
  | Prim_branch2_op (_, _, _, t) ->
      if t < 0 || t >= Array.length instrs then
        invalid_arg (Printf.sprintf "%s: branch target %d out of range" name t)
  | _ -> ());
  match instr with
  | Prim_call1_op (_, a)
  | Prim_branch1_op (_, a, _)
  | Prim_tail1_op (_, a)
  | Return_op a ->
      check_operand ~name ~frame_words a
  | Prim_call2_op (_, a, b)
  | Prim_branch2_op (_, a, b, _)
  | Prim_tail2_op (_, a, b) ->
      check_operand ~name ~frame_words a;
      check_operand ~name ~frame_words b
  | _ -> ()

let validate ~name ~frame_words instrs =
  check_ends ~name instrs;
  Array.iter (check_instr ~name ~frame_words instrs) instrs

(* Intern one [Retaddr] per return point into the instruction stream.
   [rcode]/[rpc]/[rdisp] are all per-site constants, so non-tail calls
   (and the deopt path of fused primitive calls) push this value instead
   of allocating a fresh record per call. *)
let patch_site code pc = function
  | Call site ->
      site.cs_ret <- Retaddr { rcode = code; rpc = pc + 1; rdisp = site.cs_disp }
  | Prim_call site | Prim_call1 site | Prim_call2 site
  | Prim_branch1 (site, _)
  | Prim_branch2 (site, _)
  | Prim_call1_op (site, _)
  | Prim_call2_op (site, _, _)
  | Prim_branch1_op (site, _, _)
  | Prim_branch2_op (site, _, _, _) ->
      (* For the branch-fused forms, [pc + 1] is the retained
         [Branch_false]: a deopted call returns into it and the branch
         re-executes on the returned value. *)
      site.ps_ret <- Retaddr { rcode = code; rpc = pc + 1; rdisp = site.ps_disp }
  | _ -> ()

let backpatch code = Array.iteri (patch_site code) code.instrs

(* Validation and backpatching in one pass: the last step of every
   pipeline that produces code a VM can run. *)
let finish code =
  let { instrs; cname = name; frame_words; _ } = code in
  check_ends ~name instrs;
  for pc = 0 to Array.length instrs - 1 do
    let instr = instrs.(pc) in
    check_instr ~name ~frame_words instrs instr;
    patch_site code pc instr
  done

let next_cid = Atomic.make 0

let code ~name ~arity ~frame_words instrs =
  { instrs; cname = name; arity; frame_words; timer_ret = void;
    templ = No_template; cid = Atomic.fetch_and_add next_cid 1 }

let make_code ~name ~arity ~frame_words instrs =
  let c = code ~name ~arity ~frame_words instrs in
  finish c;
  c

let arity_matches arity n =
  match arity with Exactly k -> n = k | At_least k -> n >= k

let arity_to_string = function
  | Exactly n -> string_of_int n
  | At_least n -> Printf.sprintf "%d+" n

let operand_to_string = function
  | Op_acc -> "acc"
  | Op_local i -> Printf.sprintf "l%d" i
  | Op_const v -> Values.write_string v

let instr_to_string = function
  | Const v -> "const " ^ Values.write_string v
  | Local_ref i -> Printf.sprintf "local-ref %d" i
  | Local_set i -> Printf.sprintf "local-set %d" i
  | Box_init i -> Printf.sprintf "box-init %d" i
  | Box_ref i -> Printf.sprintf "box-ref %d" i
  | Box_set i -> Printf.sprintf "box-set %d" i
  | Free_ref i -> Printf.sprintf "free-ref %d" i
  | Free_box_ref i -> Printf.sprintf "free-box-ref %d" i
  | Free_box_set i -> Printf.sprintf "free-box-set %d" i
  | Global_ref s -> "global-ref " ^ Globals.slot_name s
  | Global_set s -> "global-set " ^ Globals.slot_name s
  | Global_define s -> "global-define " ^ Globals.slot_name s
  | Make_closure (c, caps) ->
      let cap_to_string = function
        | Cap_local i -> Printf.sprintf "l%d" i
        | Cap_free i -> Printf.sprintf "f%d" i
      in
      Printf.sprintf "make-closure %s [%s]" c.cname
        (String.concat " " (Array.to_list (Array.map cap_to_string caps)))
  | Branch pc -> Printf.sprintf "branch %d" pc
  | Branch_false pc -> Printf.sprintf "branch-false %d" pc
  | Call { cs_disp; cs_nargs; _ } ->
      Printf.sprintf "call disp=%d nargs=%d" cs_disp cs_nargs
  | Tail_call { disp; nargs } ->
      Printf.sprintf "tail-call disp=%d nargs=%d" disp nargs
  | Return -> "return"
  | Enter -> "enter"
  | Halt -> "halt"
  | Const_push (v, i) ->
      Printf.sprintf "const-push %s %d" (Values.write_string v) i
  | Local_push (i, j) -> Printf.sprintf "local-push %d %d" i j
  | Free_push (i, j) -> Printf.sprintf "free-push %d %d" i j
  | Global_push (s, i) ->
      Printf.sprintf "global-push %s %d" (Globals.slot_name s) i
  | Prim_call s ->
      Printf.sprintf "prim-call %s disp=%d nargs=%d" s.ps_prim.pname s.ps_disp
        s.ps_nargs
  | Prim_call1 s ->
      Printf.sprintf "prim-call1 %s disp=%d" s.ps_prim.pname s.ps_disp
  | Prim_call2 s ->
      Printf.sprintf "prim-call2 %s disp=%d" s.ps_prim.pname s.ps_disp
  | Prim_tail_call s ->
      Printf.sprintf "prim-tail-call %s disp=%d nargs=%d" s.ps_prim.pname
        s.ps_disp s.ps_nargs
  | Local_branch_false (i, t) ->
      Printf.sprintf "local-branch-false %d %d" i t
  | Prim_branch1 (s, t) ->
      Printf.sprintf "prim-branch1 %s disp=%d %d" s.ps_prim.pname s.ps_disp t
  | Prim_branch2 (s, t) ->
      Printf.sprintf "prim-branch2 %s disp=%d %d" s.ps_prim.pname s.ps_disp t
  | Prim_call1_op (s, a) ->
      Printf.sprintf "prim-call1-op %s %s disp=%d" s.ps_prim.pname
        (operand_to_string a) s.ps_disp
  | Prim_call2_op (s, a, b) ->
      Printf.sprintf "prim-call2-op %s %s %s disp=%d" s.ps_prim.pname
        (operand_to_string a) (operand_to_string b) s.ps_disp
  | Prim_branch1_op (s, a, t) ->
      Printf.sprintf "prim-branch1-op %s %s disp=%d %d" s.ps_prim.pname
        (operand_to_string a) s.ps_disp t
  | Prim_branch2_op (s, a, b, t) ->
      Printf.sprintf "prim-branch2-op %s %s %s disp=%d %d" s.ps_prim.pname
        (operand_to_string a) (operand_to_string b) s.ps_disp t
  | Prim_tail1_op (s, a) ->
      Printf.sprintf "prim-tail1-op %s %s disp=%d" s.ps_prim.pname
        (operand_to_string a) s.ps_disp
  | Prim_tail2_op (s, a, b) ->
      Printf.sprintf "prim-tail2-op %s %s %s disp=%d" s.ps_prim.pname
        (operand_to_string a) (operand_to_string b) s.ps_disp
  | Return_op a -> Printf.sprintf "return-op %s" (operand_to_string a)

let disassemble code =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: arity=%s frame-words=%d\n" code.cname
       (arity_to_string code.arity)
       code.frame_words);
  Array.iteri
    (fun pc instr ->
      Buffer.add_string buf (Printf.sprintf "  %4d  %s\n" pc (instr_to_string instr)))
    code.instrs;
  Buffer.contents buf

(* Hashed on [cid], so one form's thousands of inner lambdas, which
   share a name and a source position, land in distinct buckets; keys
   compare by physical identity, so a record copied together with its
   [cid] is still a member of its own. *)
module Code_set = struct
  module H = Hashtbl.Make (struct
    type t = code

    let equal = ( == )
    let hash c = c.cid
  end)

  type t = unit H.t

  let create () : t = H.create 8
  let add t c = (not (H.mem t c)) && (H.add t c (); true)
end

let collect_codes acc code =
  let seen = Code_set.create () in
  List.iter (fun c -> ignore (Code_set.add seen c)) acc;
  let rec collect acc code =
    if not (Code_set.add seen code) then acc
    else
      Array.fold_left
        (fun acc instr ->
          match instr with Make_closure (c, _) -> collect acc c | _ -> acc)
        (code :: acc) code.instrs
  in
  collect acc code

let disassemble_deep code =
  let codes = List.rev (collect_codes [] code) in
  String.concat "\n" (List.map disassemble codes)
