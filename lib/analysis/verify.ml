open Rt

(* Static bytecode verifier: a structural scan of every pc — indices,
   branch targets, interned return addresses and the optimizer's fusion
   contracts — and a forward dataflow over the reachable pcs (the
   properties are listed in verify.mli, the design in DESIGN §16).

   The dataflow state — is the accumulator defined, which frame slots
   are initialized on every path — is kept only at join points: the
   entry and every reachable pc with two or more reachable predecessors.
   One working state walks each straight run in place and is ANDed into
   the join that ends it; a join is walked again only when that drops a
   bit, so at most [frame_words + 2] times.  Codes not led by [Enter]
   are the runtime's return-entered trampolines ([Engine.halt_code], the
   dynamic-wind resume codes): every pc is an entry, with the
   accumulator defined and every slot initialized. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* The code object under verification, and scratch space that the codes
   of one [verify] or [verify_program] call reuse, grown on demand. *)
type cx = {
  mutable code : code;
  mutable instrs : instr array;
  mutable n : int;
  mutable fw : int;
  mutable nfrees : int;
  mutable enter : bool;                  (* entered through [Enter] *)
  mutable children : (code * int) list;  (* [Make_closure]s, last first *)
  mutable nb : int;                      (* bytes per state *)
  mutable w : Bytes.t;                   (* the working state *)
  mutable jix : int array;               (* pc -> its join's offset in js *)
  mutable js : Bytes.t;                  (* per join: flags, then state *)
  mutable lo : int;                      (* no queued join below this pc *)
  mutable jump : int;                    (* [succ]'s branch target *)
}

let at cx pc = Bytecode.instr_to_string cx.instrs.(pc)

let err cx pc fmt =
  Printf.ksprintf
    (fun s -> errf "%s: pc %d (%s): %s" cx.code.cname pc (at cx pc) s)
    fmt

let slot cx pc what i =
  if i < 0 || i >= cx.fw then
    err cx pc "%s slot %d outside frame (frame-words %d)" what i cx.fw

let free cx pc i =
  if i < 0 || i >= cx.nfrees then
    err cx pc "free-variable index %d outside closure (%d free)" i cx.nfrees

let target cx pc t =
  if t < 0 || t >= cx.n then
    err cx pc "branch target %d out of range (%d instrs)" t cx.n;
  if t = 0 && cx.enter then err cx pc "branch target re-enters the Enter prologue"

let check_operand cx pc = function
  | Op_acc | Op_const _ -> ()
  | Op_local s -> slot cx pc "operand" s

let check_ret cx pc what disp = function
  | Retaddr r ->
      if r.rcode != cx.code then
        err cx pc "%s return address interned against foreign code %s" what
          r.rcode.cname;
      if r.rpc <> pc + 1 then
        err cx pc "%s return address resumes at pc %d, expected %d" what r.rpc
          (pc + 1);
      if r.rdisp <> disp then
        err cx pc "%s return address displacement %d, site displacement %d"
          what r.rdisp disp
  | v ->
      err cx pc "%s return address not interned (found %s)" what
        (Values.write_string v)

(* [fixed] is the instruction's own argument count, or -1 for any. *)
let check_site cx pc fixed (s : prim_site) =
  if fixed >= 0 && s.ps_nargs <> fixed then
    err cx pc "prim site carries nargs %d, instruction expects %d" s.ps_nargs
      fixed;
  if s.ps_disp < 0 then err cx pc "prim site displacement %d negative" s.ps_disp;
  if s.ps_disp + 2 + s.ps_nargs > cx.fw then
    err cx pc "prim call area [%d..%d] exceeds frame-words %d" s.ps_disp
      (s.ps_disp + 1 + s.ps_nargs) cx.fw

(* A branch-fused form must be followed by the [Branch_false] it
   absorbed, with the same target: a deopted or failed call resumes
   there. *)
let branch_pad cx pc t =
  let p = pc + 1 in
  match if p < cx.n then cx.instrs.(p) else Halt with
  | Branch_false t' when t' = t -> ()
  | _ ->
      err cx pc "pc %d (%s) is not the retained Branch_false of the fused branch"
        p
        (if p < cx.n then at cx p else "past end")

(* A fused non-tail primitive call: its site and interned return
   address, and for a branch form ([t] >= 0) its target and retained
   [Branch_false]. *)
let prim_call cx pc nargs s t =
  check_site cx pc nargs s;
  check_ret cx pc "prim" s.ps_disp s.ps_ret;
  if t >= 0 then begin
    target cx pc t;
    branch_pad cx pc t
  end

let call_area cx pc what disp nargs =
  if disp < 0 then err cx pc "%s displacement %d negative" what disp;
  if disp + 2 + nargs > cx.fw then
    err cx pc "%s area [%d..%d] exceeds frame-words %d" what disp
      (disp + 1 + nargs) cx.fw

let scan cx pc =
  match cx.instrs.(pc) with
  | Const _ | Global_ref _ | Global_set _ | Global_define _ | Return | Halt -> ()
  | Enter -> if pc <> 0 then err cx pc "Enter outside the procedure prologue"
  | Local_ref i | Local_set i | Box_init i | Box_ref i | Box_set i ->
      slot cx pc "frame" i
  | Free_ref i | Free_box_ref i | Free_box_set i -> free cx pc i
  | Make_closure (c, caps) ->
      for k = 0 to Array.length caps - 1 do
        match caps.(k) with
        | Cap_local i -> slot cx pc "captured" i
        | Cap_free i -> free cx pc i
      done;
      (* A code closed over twice is listed twice; the visited set
         verifies it once, with the capture count of its first site. *)
      cx.children <- (c, Array.length caps) :: cx.children
  | Branch t | Branch_false t -> target cx pc t
  | Call { cs_disp; cs_nargs; cs_ret } ->
      call_area cx pc "call" cs_disp cs_nargs;
      check_ret cx pc "call" cs_disp cs_ret
  | Tail_call { disp; nargs } -> call_area cx pc "tail-call" disp nargs
  | Const_push (_, d) | Global_push (_, d) -> slot cx pc "push destination" d
  | Local_push (s, d) ->
      slot cx pc "push source" s;
      slot cx pc "push destination" d
  | Free_push (s, d) ->
      free cx pc s;
      slot cx pc "push destination" d
  | Prim_call s -> prim_call cx pc (-1) s (-1)
  | Prim_call1 s -> prim_call cx pc 1 s (-1)
  | Prim_call2 s -> prim_call cx pc 2 s (-1)
  | Prim_tail_call s -> check_site cx pc (-1) s
  | Local_branch_false (i, t) ->
      slot cx pc "frame" i;
      target cx pc t;
      branch_pad cx pc t
  | Prim_branch1 (s, t) -> prim_call cx pc 1 s t
  | Prim_branch2 (s, t) -> prim_call cx pc 2 s t
  | Prim_call1_op (s, a) ->
      check_operand cx pc a;
      prim_call cx pc 1 s (-1)
  | Prim_call2_op (s, a, b) ->
      check_operand cx pc a;
      check_operand cx pc b;
      prim_call cx pc 2 s (-1)
  | Prim_branch1_op (s, a, t) ->
      check_operand cx pc a;
      prim_call cx pc 1 s t
  | Prim_branch2_op (s, a, b, t) ->
      check_operand cx pc a;
      check_operand cx pc b;
      prim_call cx pc 2 s t
  | Prim_tail1_op (s, a) ->
      check_operand cx pc a;
      check_site cx pc 1 s
  | Prim_tail2_op (s, a, b) ->
      check_operand cx pc a;
      check_operand cx pc b;
      check_site cx pc 2 s
  | Return_op a -> check_operand cx pc a

(* The successors of [pc]: returns the fall-through one and leaves the
   branch target in [cx.jump] (or -1).  A deopted fused prim branch
   resumes at its retained [Branch_false], which repeats the branch on
   the state the fused form passes on (the call's result in the
   accumulator), so that edge adds nothing. *)
let succ cx pc =
  let jump t fall =
    cx.jump <- t;
    fall
  in
  match cx.instrs.(pc) with
  | Tail_call _ | Return | Halt | Prim_tail_call _ | Prim_tail1_op _
  | Prim_tail2_op _ | Return_op _ ->
      jump (-1) (-1)
  | Branch t -> jump t (-1)
  | Branch_false t -> jump t (pc + 1)
  | Local_branch_false (_, t)
  | Prim_branch1 (_, t)
  | Prim_branch2 (_, t)
  | Prim_branch1_op (_, _, t)
  | Prim_branch2_op (_, _, _, t) ->
      jump t (pc + 2)
  | _ -> jump (-1) (pc + 1)

(* Pass 1 counts predecessors over reachable pcs only, so that the
   [Branch_false] a branch form jumps over does not make its successor
   a join:
   [jix] holds 0, 1, or 2 for two or more.  [reach] expands a pc on its
   first arrival; a run of fall-throughs is a loop of tail calls. *)
let rec reach cx pc =
  let fall = succ cx pc in
  arrive cx pc cx.jump;
  arrive cx pc fall

and arrive cx pc s =
  if s >= cx.n then err cx pc "falls through past the end of the stream";
  if s >= 0 then
    if cx.jix.(s) > 0 then cx.jix.(s) <- 2
    else begin
      cx.jix.(s) <- 1;
      reach cx s
    end

(* Give each join — the entry, a trampoline's every pc — the offset of
   its record in [js], and every other pc -1.  A state is a bitset: bit
   0 the accumulator, bit 1 + i frame slot i.  A record is a flags byte
   and a state, all ones at first: fresh (never reached), idle (not
   queued), and every bit set, the identity of the AND. *)
let fresh = 1 and idle = 2

let find_joins cx =
  let n = cx.n and stride = cx.nb + 1 in
  let grow have need = max need (2 * have) in
  if Array.length cx.jix < n then
    cx.jix <- Array.make (grow (Array.length cx.jix) n) 0;
  Array.fill cx.jix 0 n (if cx.enter then 0 else 2);
  cx.jix.(0) <- 2;
  for pc = 0 to if cx.enter then 0 else n - 1 do
    reach cx pc
  done;
  let size = ref 0 in
  for pc = 0 to n - 1 do
    let join = cx.jix.(pc) = 2 in
    cx.jix.(pc) <- (if join then !size else -1);
    if join then size := !size + stride
  done;
  if Bytes.length cx.js < !size then
    cx.js <- Bytes.create (grow (Bytes.length cx.js) !size);
  Bytes.fill cx.js 0 !size '\255';
  if Bytes.length cx.w < stride then cx.w <- Bytes.create stride;
  cx.lo <- n

(* AND the working state into the join at [pc]; queue the join when
   this is its first state or drops a bit. *)
let merge cx pc =
  let js = cx.js and base = cx.jix.(pc) in
  let flags = Bytes.get_uint8 js base in
  let dropped = ref (flags land fresh <> 0) in
  for k = 0 to cx.nb - 1 do
    let old = Bytes.get_uint8 js (base + 1 + k) in
    let b = old land Bytes.get_uint8 cx.w k in
    if b <> old then begin
      Bytes.set_uint8 js (base + 1 + k) b;
      dropped := true
    end
  done;
  if !dropped then begin
    Bytes.set_uint8 js base (flags land lnot (fresh lor idle));
    if pc < cx.lo then cx.lo <- pc
  end

let bit cx b = Bytes.get_uint8 cx.w (b lsr 3) land (1 lsl (b land 7)) <> 0

let set_bit cx b =
  let k = b lsr 3 in
  Bytes.set_uint8 cx.w k (Bytes.get_uint8 cx.w k lor (1 lsl (b land 7)))

let need_acc cx pc =
  if not (bit cx 0) then
    err cx pc "accumulator is dead on some path reaching here"

let need_init cx pc i =
  if not (bit cx (i + 1)) then
    err cx pc "reads frame slot %d, uninitialized on some path reaching here" i

let need_slots cx pc lo hi =
  for i = lo to hi do
    need_init cx pc i
  done

let need_operand cx pc = function
  | Op_acc -> need_acc cx pc
  | Op_local s -> need_init cx pc s
  | Op_const _ -> ()

(* After a non-tail call: the callee's frame clobbered every slot at or
   above the displacement, and the accumulator holds the result.  The
   inline fast path of a fused prim call clobbers nothing, but its
   deopt path does and both resume at the same pc, so the killed state
   is the sound join.  (A tail form has no successor to see it.) *)
let kill_from cx d =
  let k = (d + 1) lsr 3 in
  if k < cx.nb then begin
    Bytes.set_uint8 cx.w k
      (Bytes.get_uint8 cx.w k land ((1 lsl ((d + 1) land 7)) - 1));
    Bytes.fill cx.w (k + 1) (cx.nb - k - 1) '\000'
  end;
  set_bit cx 0

(* Check [pc] against the working state and step the state past it. *)
let transfer cx pc =
  match cx.instrs.(pc) with
  | Const _ | Global_ref _ | Free_ref _ | Free_box_ref _ -> set_bit cx 0
  | Local_ref i | Box_ref i | Local_branch_false (i, _) ->
      need_init cx pc i;
      set_bit cx 0
  | Box_init i -> need_init cx pc i
  | Local_set i ->
      need_acc cx pc;
      set_bit cx (i + 1)
  | Box_set i ->
      need_acc cx pc;
      need_init cx pc i
  | Free_box_set _ | Global_set _ | Global_define _ | Branch_false _ | Return
  | Halt ->
      need_acc cx pc
  | Make_closure (_, caps) ->
      for k = 0 to Array.length caps - 1 do
        match caps.(k) with Cap_local i -> need_init cx pc i | Cap_free _ -> ()
      done;
      set_bit cx 0
  | Branch _ | Enter -> ()
  | Call { cs_disp = disp; cs_nargs = nargs; _ } | Tail_call { disp; nargs } ->
      need_slots cx pc (disp + 1) (disp + 1 + nargs);
      kill_from cx disp
  | Const_push (_, d) | Free_push (_, d) | Global_push (_, d) ->
      set_bit cx (d + 1)
  | Local_push (s, d) ->
      need_init cx pc s;
      set_bit cx (d + 1)
  | Prim_call s | Prim_call1 s | Prim_call2 s | Prim_tail_call s
  | Prim_branch1 (s, _) | Prim_branch2 (s, _) ->
      (* The fused callee load was dropped: slot [ps_disp + 1] is
         legitimately uninitialized here (the deopt handler restages
         the global itself), so only the argument slots are read. *)
      need_slots cx pc (s.ps_disp + 2) (s.ps_disp + 1 + s.ps_nargs);
      kill_from cx s.ps_disp
  | Prim_call1_op (s, a) | Prim_branch1_op (s, a, _) | Prim_tail1_op (s, a) ->
      need_operand cx pc a;
      kill_from cx s.ps_disp
  | Prim_call2_op (s, a, b) | Prim_branch2_op (s, a, b, _)
  | Prim_tail2_op (s, a, b) ->
      need_operand cx pc a;
      need_operand cx pc b;
      kill_from cx s.ps_disp
  | Return_op a -> need_operand cx pc a

(* Walk a straight run from [pc] to the joins that end it.  [flow] takes
   one edge out of the run: AND into a join, or become the run's
   continuation [next]; when another successor already is, it is walked
   first, from a copy of the state. *)
let rec walk cx pc =
  transfer cx pc;
  let fall = succ cx pc in
  let jump = cx.jump in
  let next = flow cx (flow cx (-1) jump) fall in
  if next >= 0 then walk cx next

and flow cx next s =
  if s < 0 then next
  else if cx.jix.(s) >= 0 then begin
    merge cx s;
    next
  end
  else if next < 0 then s
  else begin
    let saved = Bytes.sub cx.w 0 cx.nb in
    walk cx s;
    Bytes.blit saved 0 cx.w 0 cx.nb;
    next
  end

(* Walk the queued joins, lowest pc first, to the fixpoint: forward code
   then walks each join once, after all of its predecessors. *)
let drain cx =
  while cx.lo < cx.n do
    let pc = cx.lo in
    let base = cx.jix.(pc) in
    cx.lo <- pc + 1;
    if base >= 0 && Bytes.get_uint8 cx.js base land idle = 0 then begin
      Bytes.set_uint8 cx.js base idle;
      Bytes.blit cx.js (base + 1) cx.w 0 cx.nb;
      walk cx pc
    end
  done

let verify_one cx ~nfrees (code : code) =
  let instrs = code.instrs in
  let n = Array.length instrs and fw = code.frame_words in
  if n = 0 then errf "%s: empty instruction stream" code.cname;
  if not (Bytecode.transfers_control instrs.(n - 1)) then
    errf "%s: last instruction (%s) does not transfer control" code.cname
      (Bytecode.instr_to_string instrs.(n - 1));
  cx.code <- code;
  cx.instrs <- instrs;
  cx.n <- n;
  cx.fw <- fw;
  cx.nfrees <- nfrees;
  cx.enter <- (match instrs.(0) with Enter -> true | _ -> false);
  cx.children <- [];
  for pc = 0 to n - 1 do
    scan cx pc
  done;
  (* The entry frame: return address, callee, parameters, rest list. *)
  let params = match code.arity with Exactly k -> 2 + k | At_least k -> 3 + k in
  if cx.enter && params > fw then
    errf "%s: frame-words %d cannot hold %d parameter slots" code.cname fw
      params;
  cx.nb <- (fw + 8) / 8;
  find_joins cx;
  Bytes.fill cx.w 0 cx.nb (if cx.enter then '\000' else '\255');
  if cx.enter then
    for i = 1 to params do
      set_bit cx i
    done;
  for pc = 0 to if cx.enter then 0 else n - 1 do
    merge cx pc
  done;
  drain cx;
  List.rev cx.children

let rec verify_into cx seen ~nfrees code =
  if Bytecode.Code_set.add seen code then
    List.iter
      (fun (c, nfrees) -> verify_into cx seen ~nfrees c)
      (verify_one cx ~nfrees code)

let context () =
  { code = Bytecode.code ~name:"" ~arity:(Exactly 0) ~frame_words:0 [||];
    instrs = [||]; n = 0; fw = 0; nfrees = 0; enter = false; children = [];
    nb = 0; w = Bytes.empty; jix = [||]; js = Bytes.empty; lo = 0; jump = -1 }

let verify ?(nfrees = 0) code =
  verify_into (context ()) (Bytecode.Code_set.create ()) ~nfrees code

let verify_program codes =
  let cx = context () and seen = Bytecode.Code_set.create () in
  List.iter (verify_into cx seen ~nfrees:0) codes
