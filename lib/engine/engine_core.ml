(* The one dispatch loop (template).
   ==================================

   This file is NOT a module of the engine library.  It is the textual
   template of the execution core — fuel/landing discipline, every
   instruction handler, every fused superinstruction, the prim-call fast
   paths — written against an abstract frame policy [Policy].  A dune
   rule in each backend library concatenates

       module Policy = <that backend's policy>

   with this file to produce the backend's core module ([Vm_core] over
   [Vm_policy], [Heap_core] over [Heap_policy]).  The result is
   include-style instantiation: the loop is compiled once per backend
   with the policy statically known, so the policy's constants fold and
   its operations inline — a functor would instead put a closure
   indirection on every hot-path policy call (this tree does not build
   with flambda, which could be trusted to specialize one).  "Statically
   known" needs the policy's .cmx: the default build (dune-workspace,
   release profile) is not -opaque, while under `--profile dev` every
   [Policy], [Globals] and [Bytecode] call here is a generic application
   again.

   A new opcode is added HERE: both VMs pick it up on the next build.
   Its work, unless it transfers control, goes in a body below ([box_ref]
   and the rest), which its arm in [exec] and its step in
   {!Closurevm.emit} both call; the closure templates then add only the
   threading.  A control transfer is written by each dispatcher, because
   a landing and a template chain continue differently.  The policy
   supplies only what genuinely depends on the control representation:

     fast                 whether same-frame-array call/tail/return
                          transfers may stay inside a landing (the
                          segmented stack's contiguous frames; heap
                          frames are linked, every transfer relaunches)
     frames_on_pure_call  whether a [Call] to a pure primitive counts a
                          frame (the heap VM counts the frame it would
                          have allocated; the stack VM pushes nothing)
     slots/frame_base/limit
                          the landing's cached view of the active frame
     set                  a slot write; returns the array to continue
                          the landing on (copy-on-write may replace it)
     set_fp/call/tail_call/do_return/enter/fire_timer/
     pure_call_skips/inject_error_handler/init_run
                          the control transfers themselves

   Every step that does not depend on where frames live — the timer
   tick, the arity check and rest list, the pure-primitive entry choice,
   the deopt callee, [%stat], multiple values — is written once, in
   {!Engine}, and shared by both policies, this loop and the closure
   templates.

   The loop executes one *landing* at a time: a run of instructions
   between control transfers, all within one code object, one frame and
   one slot array.  For the duration of a landing the hot state lives in
   parameters (so the native compiler keeps it in registers):

     [instrs]  the current code object's instruction array
     [slots]   the active slot array (stack: the segment, indexed from
               [fp]; heap: the current frame's slots, [fp] = 0); a GC
               root, relocated like any local if a collection moves it
     [fp]      the frame base within [slots] (never written mid-landing)
     [limit]   first index past the usable extent of [slots] (stack: the
               segment limit, for the Enter/Return fast paths; heap:
               [max_int])
     [acc]     the accumulator
     [pc]      index of the instruction about to execute
     [steps]   instructions executed in this landing but not yet added
               to [stats.instrs] / subtracted from [vm.fuel]
     [budget]  instructions this landing may still execute before the
               fuel check must run ([max_int] when fuel is unlimited)

   [sync] writes the batched state back ([vm.pc], [vm.acc], instruction
   counter, fuel); it MUST run before anything that reads that state:
   every transfer into the policy, every error raised here (error-handler
   injection and [Diag] positions read [vm.pc]) and the fuel stop.
   Applying a pure primitive is not such an operation.  The invariant:
   a pure primitive reads none of [vm.pc], [vm.acc], [vm.fuel] or
   [stats.instrs].  The few that touch the running machine do so through
   {!Machine_hooks} — the output buffer, [vm.timer]/[vm.timer_handler],
   the fiber-switch counter — none of which is batched; a primitive that
   needs batched state must be a [Special].  So the primitive call paths
   apply the primitive with the batch unflushed and keep it flowing
   through the landing.  If the primitive raises, [reraise] performs the
   flush that would have preceded the call, and the handler, the [Diag]
   position, fuel and every [Stats] counter see exactly that state.
   After [sync] the [pc] argument is the address *after* the current
   instruction, matching the historical "pc already incremented"
   semantics that error-handler injection and the deopt return addresses
   rely on.

   Instruction fetch uses [Array.unsafe_get]: [Bytecode.finish]
   validates that code cannot fall off the end and that branch targets
   are in range, and [relaunch] bounds-checks every landing's entry pc,
   so [pc] is always in range here. *)

open Rt
open Engine

(* Resolve a register-addressed operand (the peephole's register
   lowering): the accumulator, a frame slot, or an immediate.  Cannot
   raise. *)
let[@inline] load_op slots fp acc op =
  match op with
  | Op_acc -> acc
  | Op_local i -> slots.(fp + i)
  | Op_const v -> v

let[@inline] sync (vm : Policy.t) steps pc acc =
  vm.pc <- pc;
  if vm.acc != acc then vm.acc <- acc;
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.instrs <- stats.Stats.instrs + steps;
  if vm.fuel >= 0 then vm.fuel <- vm.fuel - steps

(* The fuel check's stop: flush with the pc of the instruction about to
   execute, so a resumed machine re-runs it, and return the exception
   for the check to raise (see [fail] below). *)
let[@inline never] fuel_stop (vm : Policy.t) steps pc acc =
  sync vm steps pc acc;
  Vm_fuel_exhausted

(* A primitive called with the batch unflushed raised: flush exactly as
   a [sync] before the call would have, then let the exception reach
   [run_loop] (error-handler injection) or the caller. *)
let reraise (vm : Policy.t) steps pc acc e =
  sync vm steps pc acc;
  raise e

(* The guarded fast path's two counters. *)
let[@inline] prim_fast_stats (vm : Policy.t) =
  let stats = vm.stats in
  if stats.Stats.enabled then begin
    stats.Stats.prim_calls <- stats.Stats.prim_calls + 1;
    stats.Stats.prim_fast <- stats.Stats.prim_fast + 1
  end

(* The n-ary fused primitive's fast path: its counters and the call on
   the staged arguments. *)
let[@inline] prim_call_n (vm : Policy.t) slots fp site =
  prim_fast_stats vm;
  site.ps_fn (prim_args vm slots (fp + site.ps_disp + 2) site.ps_nargs)

(* Before a register-addressed form deoptimizes, write its operands to
   the argument slots the unfused pushes would have written. *)
let spill1 (vm : Policy.t) slots fp site x =
  ignore (Policy.set vm slots fp (site.ps_disp + 2) x)

let spill2 (vm : Policy.t) slots fp site x y =
  let slots = Policy.set vm slots fp (site.ps_disp + 2) x in
  ignore (Policy.set vm slots fp (site.ps_disp + 3) y)

(* ---- instruction bodies ----
   The work of each instruction that does not transfer control, written
   once: the loop's arms below and the closure templates' steps call a
   body and continue.  [steps] does not yet count the instruction and
   [pc] is its address; a body reads them only on its failure path.
   There a cold function flushes at [pc + 1] and returns the error, and
   the body raises it: a failure call whose result rejoined the success
   path would keep every live register across it, and the closure steps
   would spill them all on entry.  Every message is a literal, so no
   success path builds a string.  A body that writes a slot returns the
   array to continue on, as [Policy.set] does. *)

let[@inline never] fail (vm : Policy.t) steps pc acc msg v =
  sync vm (steps + 1) (pc + 1) acc;
  Scheme_error (msg, [ v ])

(* An unbound global: a read, or a [set!] when [assign]. *)
let[@inline never] unbound (vm : Policy.t) steps pc acc ~assign s =
  sync vm (steps + 1) (pc + 1) acc;
  if assign then
    Scheme_error ("set! of unbound variable: " ^ Globals.slot_name s, [])
  else unbound_variable s

(* The free variables of the running closure, in frame slot 1. *)
let[@inline] frees (vm : Policy.t) slots fp steps pc acc msg =
  match slots.(fp + 1) with
  | Closure c -> c.frees
  | v -> raise (fail vm steps pc acc msg v)

(* The cell of global [s], which must be defined. *)
let[@inline] cell (vm : Policy.t) steps pc acc ~assign s =
  let g = Globals.get vm.globals s in
  if g.gdefined then g else raise (unbound vm steps pc acc ~assign s)

let[@inline] box_init (vm : Policy.t) slots fp i =
  let slots = Policy.set vm slots fp i (Box { contents = slots.(fp + i) }) in
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.boxes_made <- stats.Stats.boxes_made + 1;
  slots

(* A box is read and written in place: frame slot [i] or free
   variable [i] holds the [Box] itself. *)
let[@inline] box_ref vm slots fp steps pc acc i =
  match slots.(fp + i) with
  | Box b -> b.contents
  | v -> raise (fail vm steps pc acc "vm: box-ref of non-box" v)

let[@inline] box_set vm slots fp steps pc acc i =
  match slots.(fp + i) with
  | Box b -> b.contents <- acc
  | v -> raise (fail vm steps pc acc "vm: box-set of non-box" v)

let[@inline] free_ref vm slots fp steps pc acc i =
  (frees vm slots fp steps pc acc "vm: free-ref outside closure").(i)

let[@inline] free_box_ref vm slots fp steps pc acc i =
  match (frees vm slots fp steps pc acc "vm: free-box-ref outside closure").(i)
  with
  | Box b -> b.contents
  | v -> raise (fail vm steps pc acc "vm: free-box-ref of non-box" v)

let[@inline] free_box_set vm slots fp steps pc acc i =
  match (frees vm slots fp steps pc acc "vm: free-box-set outside closure").(i)
  with
  | Box b -> b.contents <- acc
  | v -> raise (fail vm steps pc acc "vm: free-box-set of non-box" v)

let[@inline] free_push vm slots fp steps pc acc i j =
  Policy.set vm slots fp j
    (frees vm slots fp steps pc acc "vm: free-push outside closure").(i)

let[@inline] global_ref vm steps pc acc s =
  (cell vm steps pc acc ~assign:false s).gval

let[@inline] global_set vm steps pc acc s =
  (cell vm steps pc acc ~assign:true s).gval <- acc

let[@inline] global_push vm slots fp steps pc acc s i =
  Policy.set vm slots fp i (global_ref vm steps pc acc s)

let[@inline] define (vm : Policy.t) s acc =
  let g = Globals.get vm.globals s in
  g.gval <- acc;
  g.gdefined <- true

let[@inline] make_closure (vm : Policy.t) slots fp steps pc acc code caps =
  let ncaps = Array.length caps in
  let fv = if ncaps = 0 then [||] else Array.make ncaps Void in
  for i = 0 to ncaps - 1 do
    fv.(i) <-
      (match Array.unsafe_get caps i with
      | Cap_local j -> slots.(fp + j)
      | Cap_free j ->
          (frees vm slots fp steps pc acc "vm: capture outside closure").(j))
  done;
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.closures_made <- stats.Stats.closures_made + 1;
  Closure { code; frees = fv }

(* A fused site's guard failed: the generic call or tail call it
   replaced, to whatever the global holds now.  The call counts the frame
   the unfused [Call] would have. *)
let prim_deopt_call (vm : Policy.t) site =
  let f = deopt_callee vm site in
  let stats = vm.stats in
  if stats.Stats.enabled then stats.Stats.frames <- stats.Stats.frames + 1;
  Policy.call vm ~disp:site.ps_disp ~ret:site.ps_ret ~nargs:site.ps_nargs f

let prim_deopt_tail_call (vm : Policy.t) site =
  Policy.tail_call vm ~disp:site.ps_disp ~nargs:site.ps_nargs
    (deopt_callee vm site)

let rec exec (vm : Policy.t) instrs slots fp limit budget acc steps pc =
  if steps >= budget then raise (fuel_stop vm steps pc acc);
  match Array.unsafe_get instrs pc with
  | Const v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Local_ref i ->
      exec vm instrs slots fp limit budget slots.(fp + i) (steps + 1) (pc + 1)
  | Local_set i ->
      let slots = Policy.set vm slots fp i acc in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Box_init i ->
      let slots = box_init vm slots fp i in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Box_ref i ->
      let v = box_ref vm slots fp steps pc acc i in
      exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Box_set i ->
      box_set vm slots fp steps pc acc i;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Free_ref i ->
      let v = free_ref vm slots fp steps pc acc i in
      exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Free_box_ref i ->
      let v = free_box_ref vm slots fp steps pc acc i in
      exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Free_box_set i ->
      free_box_set vm slots fp steps pc acc i;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Global_ref s ->
      let v = global_ref vm steps pc acc s in
      exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Global_set s ->
      global_set vm steps pc acc s;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Global_define s ->
      define vm s acc;
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Make_closure (code, caps) ->
      let v = make_closure vm slots fp steps pc acc code caps in
      exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
  | Branch t -> exec vm instrs slots fp limit budget acc (steps + 1) t
  | Branch_false t ->
      exec vm instrs slots fp limit budget acc (steps + 1)
        (match acc with Bool false -> t | _ -> pc + 1)
  | Call site -> (
      let nfp = fp + site.cs_disp in
      match slots.(nfp + 1) with
      | Closure c when Policy.fast ->
          (* Same-slot-array call: the callee's frame lives on the
             segment we already hold, so transfer control without
             leaving the loop.  The return address is the per-site
             constant interned by [Bytecode.finish]: no allocation on
             the call path.  [vm.pc] stays stale here — every
             observation point (error branches, slow-path transfers)
             syncs its own pc first. *)
          set_slot slots nfp site.cs_ret;
          set_code vm c.code;
          vm.nargs <- site.cs_nargs;
          Policy.set_fp vm nfp;
          let stats = vm.stats in
          if stats.Stats.enabled then begin
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
            stats.Stats.frames <- stats.Stats.frames + 1;
            stats.Stats.calls <- stats.Stats.calls + 1
          end;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm c.code.instrs slots nfp limit (budget - (steps + 1)) acc 0 0
      | Prim { pfn = Pure p; parity; pname } -> (
          (* Pure primitives push no frame on the stack policy and
             return straight to the fall-through pc, so the call stays
             inside the landing, the batch unflushed as on the fused
             paths (an arity error flushes in [reraise]).  The heap
             policy counts the frame its generic path would have
             allocated, and honors the return-context consumption a
             tail-positioned primitive performs ([pure_call_skips]). *)
          let stats = vm.stats in
          if Policy.frames_on_pure_call && stats.Stats.enabled then
            stats.Stats.frames <- stats.Stats.frames + 1;
          match
            call_pure vm p.fn p.fn1 p.fn2 parity pname slots (nfp + 2)
              site.cs_nargs
          with
          | v when Policy.pure_call_skips vm site ->
              sync vm (steps + 1) (pc + 1) v;
              Policy.do_return vm;
              relaunch vm
          | v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
          | exception e -> reraise vm (steps + 1) (pc + 1) acc e)
      | f ->
          sync vm (steps + 1) (pc + 1) acc;
          let stats = vm.stats in
          if stats.Stats.enabled then
            stats.Stats.frames <- stats.Stats.frames + 1;
          Policy.call vm ~disp:site.cs_disp ~ret:site.cs_ret
            ~nargs:site.cs_nargs f;
          relaunch vm)
  | Tail_call { disp; nargs } -> (
      let src = fp + disp in
      let f = slots.(src + 1) in
      match f with
      | Closure c when Policy.fast ->
          (* Same-slot-array tail call: frame is reused in place. *)
          set_slot slots (fp + 1) f;
          blit_args slots (src + 2) (fp + 2) nargs;
          set_code vm c.code;
          vm.nargs <- nargs;
          let stats = vm.stats in
          if stats.Stats.enabled then begin
            stats.Stats.instrs <- stats.Stats.instrs + steps + 1;
            stats.Stats.calls <- stats.Stats.calls + 1
          end;
          if vm.fuel >= 0 then vm.fuel <- vm.fuel - (steps + 1);
          exec vm c.code.instrs slots fp limit (budget - (steps + 1)) acc 0 0
      | _ ->
          sync vm (steps + 1) (pc + 1) acc;
          Policy.tail_call vm ~disp ~nargs f;
          relaunch vm)
  | Return -> prim_return vm slots fp limit budget acc (steps + 1) (pc + 1)
  | Enter -> (
      let c = vm.code in
      match c.arity with
      | Exactly k when k = vm.nargs && fp + c.frame_words <= limit ->
          (* Fast path: arity matches and the frame extent fits the
             active slot array — nothing to set up (always true of a
             heap frame, allocated at full size).  An armed timer only
             needs its per-call [tick] here. *)
          if tick vm then begin
            sync vm (steps + 1) (pc + 1) acc;
            Policy.fire_timer vm;
            relaunch vm
          end
          else exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
      | _ ->
          sync vm (steps + 1) (pc + 1) acc;
          Policy.enter vm;
          relaunch vm)
  | Halt ->
      sync vm (steps + 1) (pc + 1) acc;
      vm.halted <- true
  (* ---- fused superinstructions (Optimize.peephole_program) ---- *)
  | Const_push (v, i) ->
      let slots = Policy.set vm slots fp i v in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Local_push (i, j) ->
      let slots = Policy.set vm slots fp j slots.(fp + i) in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Free_push (i, j) ->
      let slots = free_push vm slots fp steps pc acc i j in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Global_push (s, i) ->
      let slots = global_push vm slots fp steps pc acc s i in
      exec vm instrs slots fp limit budget acc (steps + 1) (pc + 1)
  | Prim_call site ->
      sync vm (steps + 1) (pc + 1) acc;
      if guard vm site then begin
        let v = prim_call_n vm slots fp site in
        exec vm instrs slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      end
      else begin
        prim_deopt_call vm site;
        relaunch vm
      end
  (* The fixed-arity forms below call the site's direct entry with plain
     operands and leave the batch unflushed (see [sync]); a raising
     primitive flushes in [reraise] exactly as the pre-call flush would
     have, and a failed guard flushes before deoptimizing. *)
  | Prim_call1 site ->
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 slots.(fp + site.ps_disp + 2) with
        | v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
  | Prim_call2 site ->
      if guard vm site then begin
        prim_fast_stats vm;
        let base = fp + site.ps_disp + 2 in
        match site.ps_fn2 slots.(base) slots.(base + 1) with
        | v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
  | Local_branch_false (i, t) ->
      (* Fused Local_ref + Branch_false: one dispatch.  The skipped
         branch sits at [pc + 1]; fall through lands past it. *)
      let v = slots.(fp + i) in
      exec vm instrs slots fp limit budget v (steps + 1)
        (match v with Bool false -> t | _ -> pc + 2)
  (* On guard failure the interned [ps_ret] of a branch form resumes at
     the retained [Branch_false] at [pc + 1], which re-tests the deopted
     call's returned value. *)
  | Prim_branch1 (site, t) ->
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 slots.(fp + site.ps_disp + 2) with
        | v ->
            exec vm instrs slots fp limit budget v (steps + 1)
              (match v with Bool false -> t | _ -> pc + 2)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
  | Prim_branch2 (site, t) ->
      if guard vm site then begin
        prim_fast_stats vm;
        let base = fp + site.ps_disp + 2 in
        match site.ps_fn2 slots.(base) slots.(base + 1) with
        | v ->
            exec vm instrs slots fp limit budget v (steps + 1)
              (match v with Bool false -> t | _ -> pc + 2)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
  | Prim_tail_call site ->
      sync vm (steps + 1) (pc + 1) acc;
      if guard vm site then begin
        let v = prim_call_n vm slots fp site in
        prim_return vm slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
      end
      else begin
        prim_deopt_tail_call vm site;
        relaunch vm
      end
  (* ---- register-addressed forms (the peephole's register lowering) ----
     One dispatch covers the argument staging and the consumer, and
     continues where the consumer did; the flush pc of a raising or
     deopting primitive is [pc + 1], where an error handler or a deopted
     call resumes.  Every slow path that re-enters the frame policy first
     spills the operand values into the frame's argument slots
     ([spill1]/[spill2]), so the frame the policy (or a capture under it)
     observes is byte-identical to the unfused execution's. *)
  | Prim_call1_op (site, a) ->
      let x = load_op slots fp acc a in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 x with
        | v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill1 vm slots fp site x;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end
  | Prim_call2_op (site, a, b) ->
      let x = load_op slots fp acc a in
      let y = load_op slots fp acc b in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn2 x y with
        | v -> exec vm instrs slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill2 vm slots fp site x y;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end
  | Prim_branch1_op (site, a, t) ->
      let x = load_op slots fp acc a in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 x with
        | v ->
            exec vm instrs slots fp limit budget v (steps + 1)
              (match v with Bool false -> t | _ -> pc + 2)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill1 vm slots fp site x;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end
  | Prim_branch2_op (site, a, b, t) ->
      let x = load_op slots fp acc a in
      let y = load_op slots fp acc b in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn2 x y with
        | v ->
            exec vm instrs slots fp limit budget v (steps + 1)
              (match v with Bool false -> t | _ -> pc + 2)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill2 vm slots fp site x y;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end
  | Prim_tail1_op (site, a) ->
      let x = load_op slots fp acc a in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 x with
        | v -> prim_return vm slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill1 vm slots fp site x;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_tail_call site
      end
  | Prim_tail2_op (site, a, b) ->
      let x = load_op slots fp acc a in
      let y = load_op slots fp acc b in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn2 x y with
        | v -> prim_return vm slots fp limit budget v (steps + 1) (pc + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill2 vm slots fp site x y;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_tail_call site
      end
  | Return_op a ->
      (* Fused producer + [Return]: the returned value comes from the
         operand, never from [acc]. *)
      prim_return vm slots fp limit budget (load_op slots fp acc a) (steps + 1)
        (pc + 1)

(* A fused primitive's guard failed: flush at the pc after it and take
   the generic call ([transfer] is the policy's deopt call or
   tail call). *)
and deopt (vm : Policy.t) steps pc acc transfer site =
  sync vm steps pc acc;
  transfer vm site;
  relaunch vm

(* Return [v] ([Return], [Return_op] and a tail-called primitive's
   result).  Fast path: a same-segment return with the caller's frame
   extent already covered, so the landing continues in the caller with
   the batch carried, unflushed (the room test is exactly the policy's
   resumed-frame-room re-check).  Carrying the batch is equivalent to
   flushing it: [exec] compares [steps] with [budget] either way.
   Otherwise the policy's return, after a flush at [next_pc], the pc past
   the [Return].  [slots.(fp)] is a return slot only under the stack
   policy; the heap policy's root frame has no slots at all, so the read
   is guarded by the (static) policy constant. *)
and prim_return (vm : Policy.t) slots fp limit budget v steps next_pc =
  match (if Policy.fast then slots.(fp) else Void) with
  | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
      let nfp = fp - r.rdisp in
      set_code vm r.rcode;
      Policy.set_fp vm nfp;
      exec vm r.rcode.instrs slots nfp limit budget v steps r.rpc
  | _ ->
      sync vm steps next_pc v;
      Policy.do_return vm;
      relaunch vm

(* Re-establish the cached landing state from [vm] after a control
   transfer and continue executing (or stop, when the transfer halted the
   machine).  The entry-pc bounds check here is what licences the
   [unsafe_get] fetch inside the landing. *)
and relaunch (vm : Policy.t) =
  if not vm.halted then begin
    let instrs = vm.code.instrs in
    let pc = vm.pc in
    check_entry pc (Array.length instrs);
    exec vm instrs (Policy.slots vm) (Policy.frame_base vm) (Policy.limit vm)
      (if vm.fuel < 0 then max_int else vm.fuel)
      vm.acc 0 pc
  end

(* The run protocol, shared with the closure templates: [landing] is the
   loop's [relaunch] or theirs.  One hoisted exception frame per handled
   error, instead of a per-instruction [try ... with].  The handler
   branch of [match ... with exception] is outside the protected region,
   so the recursive call is a tail call: handling N errors takes O(1)
   stack. *)
let rec run_loop landing (vm : Policy.t) =
  match landing vm with
  | () -> ()
  | exception (Scheme_error (msg, irritants) as exn) -> (
      match Engine.pop_error_handler vm.globals with
      | Some h ->
          Policy.inject_error_handler vm h msg irritants;
          run_loop landing vm
      | None -> raise exn)

let run_with landing ?(fuel = -1) (vm : Policy.t) code =
  Policy.init_run vm code;
  set_code vm code;
  vm.pc <- 0;
  vm.nargs <- 0;
  vm.acc <- Void;
  vm.halted <- false;
  vm.fuel <- fuel;
  vm.winders <- [];
  (* Route the process-shared timer/output prims at this machine for the
     extent of the run (restored on exit, so nested runs unwind). *)
  Machine_hooks.with_hooks vm.hooks (fun () -> run_loop landing vm);
  vm.acc

let run ?fuel vm code = run_with relaunch ?fuel vm code

let run_program ?fuel (vm : Policy.t) codes =
  List.fold_left (fun _ code -> run ?fuel vm code) Void codes

let eval ?fuel (vm : Policy.t) src =
  run_program ?fuel vm
    (Compiler.compile_string ~options:vm.options ~menv:vm.menv vm.globals src)

(* Per-form entry point: one already-read top-level datum, so drivers
   can attribute failures to the datum's source position. *)
let eval_datum ?fuel (vm : Policy.t) d =
  run_program ?fuel vm
    (Compiler.compile_datum ~options:vm.options ~menv:vm.menv vm.globals d)
