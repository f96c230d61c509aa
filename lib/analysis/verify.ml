open Rt

(* Static bytecode verifier: a forward abstract interpreter over
   [Rt.instr] arrays plus a structural contract checker for the
   optimizer's fused superinstructions.

   The abstract domain per pc is (accumulator defined?, must-initialized
   frame-slot bitmap).  Both components only shrink at join points
   (pointwise AND), so the worklist fixpoint terminates in at most
   [frame_words + 1] visits per pc.  On top of the dataflow, a single
   structural scan over every pc — reachable or not — checks the
   invariants the machines' [Array.unsafe_get] dispatch and the fused
   deopt paths rely on:

   - slot and free-variable indices in range ([frame_words] / the
     closure's capture count);
   - branch targets in range, and never the [Enter] prologue;
   - every fused form's retained landing pad is a faithful de-fusion of
     the fused site (same prim site by physical identity, staged pushes
     matching the folded operands slot for slot);
   - every non-tail call site carries an interned [Retaddr] naming this
     code object, the following pc, and the site's displacement;
   - the final instruction transfers control.

   Codes whose first instruction is not [Enter] are the runtime-internal
   trampolines entered through interned return addresses at several pcs
   with a live frame ([Engine.halt_code], the dynamic-wind resume
   codes): they are verified with every pc seeded as an entry, the
   accumulator defined, and every slot initialized. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Operand payloads may hold any quoted constant, so compare with the
   runtime's [eqv] (value comparison on immediates, physical identity on
   heap values — never a structural walk that could hit a functional
   value inside a [Prim]). *)
let const_eq = Values.eqv

type state = { acc : bool; init : bool array }

let state_copy st = { st with init = Array.copy st.init }

(* Pointwise AND; returns [None] when [stored] already subsumes [inc]. *)
let join stored inc =
  let changed = ref false in
  let acc = stored.acc && inc.acc in
  if acc <> stored.acc then changed := true;
  let init =
    Array.mapi
      (fun i b ->
        let b' = b && inc.init.(i) in
        if b' <> b then changed := true;
        b')
      stored.init
  in
  if !changed then Some { acc; init } else None

let verify_one ~nfrees (code : code) : (code * int) list =
  let instrs = code.instrs in
  let n = Array.length instrs in
  let fw = code.frame_words in
  let at pc = Bytecode.instr_to_string instrs.(pc) in
  let err pc fmt =
    Printf.ksprintf
      (fun s -> errf "%s: pc %d (%s): %s" code.cname pc (at pc) s)
      fmt
  in
  if n = 0 then errf "%s: empty instruction stream" code.cname;
  if not (Bytecode.transfers_control instrs.(n - 1)) then
    errf "%s: last instruction (%s) does not transfer control" code.cname
      (at (n - 1));
  let entered_by_enter = instrs.(0) = Enter in
  let children = ref [] in

  (* ---------------- structural scan: every pc ---------------- *)
  let slot pc what i =
    if i < 0 || i >= fw then
      err pc "%s slot %d outside frame (frame-words %d)" what i fw
  in
  let free pc i =
    if i < 0 || i >= nfrees then
      err pc "free-variable index %d outside closure (%d free)" i nfrees
  in
  let target pc t =
    if t < 0 || t >= n then err pc "branch target %d out of range (%d instrs)" t n;
    if t = 0 && entered_by_enter then
      err pc "branch target re-enters the Enter prologue"
  in
  let check_operand pc = function
    | Op_acc | Op_const _ -> ()
    | Op_local s -> slot pc "operand" s
  in
  let check_ret pc what disp ret =
    match ret with
    | Retaddr r ->
        if r.rcode != code then
          err pc "%s return address interned against foreign code %s" what
            r.rcode.cname;
        if r.rpc <> pc + 1 then
          err pc "%s return address resumes at pc %d, expected %d" what r.rpc
            (pc + 1);
        if r.rdisp <> disp then
          err pc "%s return address displacement %d, site displacement %d" what
            r.rdisp disp
    | v ->
        err pc "%s return address not interned (found %s)" what
          (Values.write_string v)
  in
  let check_site pc ?fixed (s : prim_site) =
    (match fixed with
    | Some k when s.ps_nargs <> k ->
        err pc "prim site carries nargs %d, instruction expects %d" s.ps_nargs k
    | _ -> ());
    if s.ps_disp < 0 then err pc "prim site displacement %d negative" s.ps_disp;
    if s.ps_disp + 2 + s.ps_nargs > fw then
      err pc "prim call area [%d..%d] exceeds frame-words %d" s.ps_disp
        (s.ps_disp + 1 + s.ps_nargs)
        fw
  in
  (* The staged push retained at [pad_pc] must restage exactly the value
     the fused head carries as an operand, into the expected arg slot. *)
  let check_staged pc pad_pc ~dst op =
    let ok =
      pad_pc < n
      &&
      match (instrs.(pad_pc), op) with
      | Const_push (v, d), Op_const v' -> d = dst && const_eq v v'
      | Local_push (s, d), Op_local s' -> d = dst && s = s'
      | Local_set d, Op_acc -> d = dst
      | _ -> false
    in
    if not ok then
      err pc
        "landing pad at pc %d (%s) does not restage operand %s into slot %d"
        pad_pc
        (if pad_pc < n then at pad_pc else "past end")
        (Bytecode.operand_to_string op)
        dst
  in
  (* A two-operand head's pad: the second operand's retained staging,
     unless the first operand is in place.  Returns the consumer's pc. *)
  let check_staged2 pc (s : prim_site) a b =
    let consumer = pc + Bytecode.consumer_offset2 s a in
    if consumer = pc + 2 then check_staged pc (pc + 1) ~dst:(s.ps_disp + 3) b;
    consumer
  in
  let check_pad pc pad_pc expect descr =
    let ok = pad_pc < n && expect instrs.(pad_pc) in
    if not ok then
      err pc "landing pad at pc %d (%s) is not the retained %s" pad_pc
        (if pad_pc < n then at pad_pc else "past end")
        descr
  in
  let same_site pc site = function
    | (Prim_call s | Prim_call1 s | Prim_call2 s | Prim_tail_call s
      | Prim_branch1 (s, _)
      | Prim_branch2 (s, _)) ->
        if s != site then
          err pc "landing pad consumer does not share the fused prim site";
        true
    | _ -> false
  in
  for pc = 0 to n - 1 do
    match instrs.(pc) with
    | Const _ | Global_ref _ | Global_set _ | Global_define _ | Return | Halt ->
        ()
    | Enter -> if pc <> 0 then err pc "Enter outside the procedure prologue"
    | Local_ref i | Local_set i | Box_init i | Box_ref i | Box_set i ->
        slot pc "frame" i
    | Free_ref i | Free_box_ref i | Free_box_set i -> free pc i
    | Make_closure (c, caps) ->
        Array.iter
          (function
            | Cap_local i -> slot pc "captured" i
            | Cap_free i -> free pc i)
          caps;
        if not (List.memq c (List.map fst !children)) then
          children := (c, Array.length caps) :: !children
    | Branch t -> target pc t
    | Branch_false t -> target pc t
    | Call { cs_disp; cs_nargs; cs_ret } ->
        if cs_disp < 0 then err pc "call displacement %d negative" cs_disp;
        if cs_disp + 2 + cs_nargs > fw then
          err pc "call area [%d..%d] exceeds frame-words %d" cs_disp
            (cs_disp + 1 + cs_nargs)
            fw;
        check_ret pc "call" cs_disp cs_ret
    | Tail_call { disp; nargs } ->
        if disp < 0 then err pc "tail-call displacement %d negative" disp;
        if disp + 2 + nargs > fw then
          err pc "tail-call area [%d..%d] exceeds frame-words %d" disp
            (disp + 1 + nargs) fw
    | Const_push (_, d) -> slot pc "push destination" d
    | Local_push (s, d) ->
        slot pc "push source" s;
        slot pc "push destination" d
    | Free_push (s, d) ->
        free pc s;
        slot pc "push destination" d
    | Global_push (_, d) -> slot pc "push destination" d
    | Prim_call s ->
        check_site pc s;
        check_ret pc "prim" s.ps_disp s.ps_ret
    | Prim_call1 s ->
        check_site pc ~fixed:1 s;
        check_ret pc "prim" s.ps_disp s.ps_ret
    | Prim_call2 s ->
        check_site pc ~fixed:2 s;
        check_ret pc "prim" s.ps_disp s.ps_ret
    | Prim_tail_call s -> check_site pc s
    | Local_branch_false (i, t) ->
        slot pc "frame" i;
        target pc t;
        check_pad pc (pc + 1)
          (function Branch_false t' -> t' = t | _ -> false)
          "Branch_false of the fused branch"
    | Prim_branch1 (s, t) ->
        check_site pc ~fixed:1 s;
        target pc t;
        check_ret pc "prim" s.ps_disp s.ps_ret;
        check_pad pc (pc + 1)
          (function Branch_false t' -> t' = t | _ -> false)
          "Branch_false of the fused branch"
    | Prim_branch2 (s, t) ->
        check_site pc ~fixed:2 s;
        target pc t;
        check_ret pc "prim" s.ps_disp s.ps_ret;
        check_pad pc (pc + 1)
          (function Branch_false t' -> t' = t | _ -> false)
          "Branch_false of the fused branch"
    | Prim_call1_op (s, a) ->
        check_site pc ~fixed:1 s;
        check_operand pc a;
        check_pad pc (pc + 1)
          (fun i -> (match i with Prim_call1 _ -> true | _ -> false)
                    && same_site pc s i)
          "Prim_call1 consumer"
    | Prim_call2_op (s, a, b) ->
        check_site pc ~fixed:2 s;
        check_operand pc a;
        check_operand pc b;
        check_pad pc (check_staged2 pc s a b)
          (fun i -> (match i with Prim_call2 _ -> true | _ -> false)
                    && same_site pc s i)
          "Prim_call2 consumer"
    | Prim_branch1_op (s, a, t) ->
        check_site pc ~fixed:1 s;
        check_operand pc a;
        target pc t;
        check_pad pc (pc + 1)
          (fun i ->
            (match i with Prim_branch1 (_, t') -> t' = t | _ -> false)
            && same_site pc s i)
          "Prim_branch1 consumer"
    | Prim_branch2_op (s, a, b, t) ->
        check_site pc ~fixed:2 s;
        check_operand pc a;
        check_operand pc b;
        target pc t;
        check_pad pc (check_staged2 pc s a b)
          (fun i ->
            (match i with Prim_branch2 (_, t') -> t' = t | _ -> false)
            && same_site pc s i)
          "Prim_branch2 consumer"
    | Prim_tail1_op (s, a) ->
        check_site pc ~fixed:1 s;
        check_operand pc a;
        check_pad pc (pc + 1)
          (fun i -> (match i with Prim_tail_call _ -> true | _ -> false)
                    && same_site pc s i)
          "Prim_tail_call consumer"
    | Prim_tail2_op (s, a, b) ->
        check_site pc ~fixed:2 s;
        check_operand pc a;
        check_operand pc b;
        check_pad pc (check_staged2 pc s a b)
          (fun i -> (match i with Prim_tail_call _ -> true | _ -> false)
                    && same_site pc s i)
          "Prim_tail_call consumer"
    | Return_op a ->
        check_operand pc a;
        check_pad pc (pc + 1)
          (function Return -> true | _ -> false)
          "Return of the fused epilogue"
  done;

  (* ---------------- dataflow: reachable pcs ---------------- *)
  let states : state option array = Array.make n None in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue pc st =
    match states.(pc) with
    | None ->
        states.(pc) <- Some (state_copy st);
        if not queued.(pc) then begin
          queued.(pc) <- true;
          Queue.add pc queue
        end
    | Some stored -> (
        match join stored st with
        | None -> ()
        | Some merged ->
            states.(pc) <- Some merged;
            if not queued.(pc) then begin
              queued.(pc) <- true;
              Queue.add pc queue
            end)
  in
  (if entered_by_enter then begin
     let nparams, extra =
       match code.arity with
       | Exactly k -> (k, 0)
       | At_least k -> (k, 1 (* rest list at slot 2 + k *))
     in
     let init = Array.make fw false in
     let upto = min fw (2 + nparams + extra) in
     for i = 0 to upto - 1 do
       init.(i) <- true
     done;
     if 2 + nparams + extra > fw then
       errf "%s: frame-words %d cannot hold %d parameter slots" code.cname fw
         (2 + nparams + extra);
     enqueue 0 { acc = false; init }
   end
   else
     (* Return-entered trampoline: every pc is an entry with a live
        frame and a returned value in the accumulator. *)
     for pc = 0 to n - 1 do
       enqueue pc { acc = true; init = Array.make fw true }
     done);
  let need_acc pc st =
    if not st.acc then err pc "accumulator is dead on some path reaching here"
  in
  let need_init pc st i =
    if not st.init.(i) then
      err pc "reads frame slot %d, uninitialized on some path reaching here" i
  in
  let need_args pc st disp nargs =
    for i = disp + 2 to disp + 1 + nargs do
      need_init pc st i
    done
  in
  let need_operand pc st = function
    | Op_acc -> need_acc pc st
    | Op_local s -> need_init pc st s
    | Op_const _ -> ()
  in
  let set_slot st i =
    if st.init.(i) then st
    else begin
      let st = state_copy st in
      st.init.(i) <- true;
      st
    end
  in
  (* After a non-tail call: the callee's frame clobbered every slot at or
     above the displacement, and the accumulator holds the result.  The
     inline fast path of a fused prim call clobbers nothing, but its
     deopt path does and both resume at the same pc, so the killed state
     is the sound join. *)
  let kill_from st d =
    { acc = true; init = Array.mapi (fun i b -> b && i < d) st.init }
  in
  while not (Queue.is_empty queue) do
    let pc = Queue.pop queue in
    queued.(pc) <- false;
    let st = match states.(pc) with Some s -> s | None -> assert false in
    let succs =
      match instrs.(pc) with
      | Const _ | Global_ref _ -> [ (pc + 1, { st with acc = true }) ]
      | Local_ref i ->
          need_init pc st i;
          [ (pc + 1, { st with acc = true }) ]
      | Box_ref i ->
          need_init pc st i;
          [ (pc + 1, { st with acc = true }) ]
      | Free_ref _ | Free_box_ref _ -> [ (pc + 1, { st with acc = true }) ]
      | Local_set i ->
          need_acc pc st;
          [ (pc + 1, set_slot st i) ]
      | Box_set i ->
          need_acc pc st;
          need_init pc st i;
          [ (pc + 1, st) ]
      | Box_init i ->
          need_init pc st i;
          [ (pc + 1, st) ]
      | Free_box_set _ | Global_set _ | Global_define _ ->
          need_acc pc st;
          [ (pc + 1, st) ]
      | Make_closure (_, caps) ->
          Array.iter
            (function Cap_local i -> need_init pc st i | Cap_free _ -> ())
            caps;
          [ (pc + 1, { st with acc = true }) ]
      | Branch t -> [ (t, st) ]
      | Branch_false t ->
          need_acc pc st;
          [ (t, st); (pc + 1, st) ]
      | Call { cs_disp; cs_nargs; _ } ->
          need_init pc st (cs_disp + 1);
          need_args pc st cs_disp cs_nargs;
          [ (pc + 1, kill_from st cs_disp) ]
      | Tail_call { disp; nargs } ->
          need_init pc st (disp + 1);
          need_args pc st disp nargs;
          []
      | Return | Halt ->
          need_acc pc st;
          []
      | Enter -> [ (pc + 1, st) ]
      | Const_push (_, d) -> [ (pc + 1, set_slot st d) ]
      | Local_push (s, d) ->
          need_init pc st s;
          [ (pc + 1, set_slot st d) ]
      | Free_push (_, d) | Global_push (_, d) -> [ (pc + 1, set_slot st d) ]
      | Prim_call s | Prim_call1 s | Prim_call2 s ->
          (* The fused callee load was dropped: slot [ps_disp + 1] is
             legitimately uninitialized here (the deopt handler restages
             the global itself), so only the argument slots are read. *)
          need_args pc st s.ps_disp s.ps_nargs;
          [ (pc + 1, kill_from st s.ps_disp) ]
      | Prim_tail_call s ->
          need_args pc st s.ps_disp s.ps_nargs;
          []
      | Local_branch_false (i, t) ->
          need_init pc st i;
          let st' = { st with acc = true } in
          [ (t, st'); (pc + 2, st') ]
      | Prim_branch1 (s, t) | Prim_branch2 (s, t) ->
          need_args pc st s.ps_disp s.ps_nargs;
          let st' = kill_from st s.ps_disp in
          (* t / pc+2: the fused fast path; pc+1: the retained
             Branch_false, reached when the deopted generic call returns
             through the interned [ps_ret]. *)
          [ (t, st'); (pc + 2, st'); (pc + 1, st') ]
      | Prim_call1_op (s, a) ->
          need_operand pc st a;
          [ (pc + 2, kill_from st s.ps_disp) ]
      | Prim_call2_op (s, a, b) ->
          need_operand pc st a;
          need_operand pc st b;
          [ (pc + Bytecode.consumer_offset2 s a + 1, kill_from st s.ps_disp) ]
      | Prim_branch1_op (s, a, t) ->
          need_operand pc st a;
          let st' = kill_from st s.ps_disp in
          (* pc+2: deopt resume at the retained Branch_false (the shared
             site's [ps_ret] was interned at the retained Prim_branch1,
             pc+1). *)
          [ (t, st'); (pc + 3, st'); (pc + 2, st') ]
      | Prim_branch2_op (s, a, b, t) ->
          need_operand pc st a;
          need_operand pc st b;
          let st' = kill_from st s.ps_disp in
          let next = pc + Bytecode.consumer_offset2 s a + 1 in
          [ (t, st'); (next + 1, st'); (next, st') ]
      | Prim_tail1_op (_, a) ->
          need_operand pc st a;
          []
      | Prim_tail2_op (_, a, b) ->
          need_operand pc st a;
          need_operand pc st b;
          []
      | Return_op a ->
          need_operand pc st a;
          []
    in
    List.iter
      (fun (t, st') ->
        if t >= n then err pc "falls through past the end of the stream";
        enqueue t st')
      succs
  done;
  List.rev !children

let rec verify_into visited ~nfrees code =
  if not (List.memq code !visited) then begin
    visited := code :: !visited;
    let children = verify_one ~nfrees code in
    List.iter (fun (c, nf) -> verify_into visited ~nfrees:nf c) children
  end

let verify ?(nfrees = 0) code = verify_into (ref []) ~nfrees code

let verify_program codes =
  let visited = ref [] in
  List.iter (verify_into visited ~nfrees:0) codes

