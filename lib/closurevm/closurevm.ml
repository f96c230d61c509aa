(* The closure-compiled stack VM: template compilation to threaded code.
   =====================================================================

   Third frame-policy backend.  The machine is *the same machine* as the
   stack VM — [t] is [Vm_policy.t], i.e. {!Engine}'s vm record over the
   paper's segmented stack — but instead of instantiating the engine's
   fetch/decode dispatch loop, each code object is translated once, at
   compile time, into an array of pre-allocated OCaml closures ("steps"),
   one per pc.  A step performs its instruction's work and then calls the
   next step *directly* (the continuation closure is captured at template
   build time for straight-line code), so executing a basic block costs a
   chain of known-arity OCaml calls with zero instruction fetches and
   zero dispatch branches: classic threaded code / template compilation,
   in pure OCaml — no codegen, no [Obj], no unsafe casts.  Every indirect
   call site in the template is distinct, which also un-aliases the
   branch-target history that a single dispatch `match` merges.

   What is deliberately NOT reimplemented: each instruction's work
   (boxes, free variables, global cells, closure creation, the fused
   primitives' guard and n-ary call) and its error are {!Vm_core}'s
   bodies, which the stack VM's dispatch loop calls too, so a step adds
   only the threading: its continuation, the fuel check where a block
   ends, and the template fusion below.  Every control-transfer slow
   path — non-fast calls and returns, continuation capture/reinstatement
   ([%call/cc], [%call/1cc]), the native dynamic-wind trampoline, arity
   mismatch and overflow at [Enter], timer fire, inline-cache
   deoptimization, error-handler injection — goes through {!Vm_policy}
   and {!Vm_core}, the *same functions the stack VM's dispatch loop
   calls*, and the policy-independent steps (timer tick, pure-primitive
   call) are {!Engine}'s, as in that loop.  A new opcode therefore needs
   here only a step that calls its body, or, for a control transfer,
   the fast path of a template chain.  Stack
   segments, sealing, the size-classed segment cache, hysteresis,
   promotion, and every [Stats] counter they maintain are therefore
   shared by construction: the semantic counters (calls, captures,
   words-copied, seg-alloc-words, cache hits) of a closure-backend run
   are byte-identical to the stack backend's, which the counter
   regression suite pins.

   Templates are cached on the code object ([Rt.code.templ], an
   extensible-variant slot so the runtime does not depend on this
   library), so a code object is compiled at most once; [eval] compiles
   the whole [Make_closure] closure DAG of a program eagerly before
   running it.  The shared code objects ([Engine.halt_code] and the
   dynamic-wind resume codes in {!Prims}) are compiled at module
   initialization, before a session on another domain can start, so
   domains only ever read those templates.

   Fuel and instruction accounting keep the engine's batched landing
   discipline: [steps] counts instructions executed since the last
   flush, [budget] is the remaining fuel at the landing's entry, and
   [sync] writes back pc/acc/instrs/fuel before anything that can
   observe them (the engine's contract: a pure primitive cannot, so it
   runs unflushed and [reraise] flushes if it raises).  The one
   relaxation: the engine checks [steps >= budget] before *every*
   instruction, while a template checks at the instructions that can
   close a cycle or leave the block (branches, calls, returns, enters,
   guarded primitives).  Total [instrs] on normal
   termination is identical to the stack backend's; on exhaustion the
   closure backend may overrun the budget by the tail of a basic block
   before raising (the fuel-exactness pins are stack-backend-only for
   this reason). *)

open Rt
open Engine

type t = Vm_policy.t

exception Vm_fuel_exhausted = Engine.Vm_fuel_exhausted

(* One compiled step: [step vm slots fp limit budget acc steps] executes
   the instruction at its pc with the landing state in parameters,
   exactly the engine loop's register set minus [instrs]/[pc], which are
   baked into the closure.  [limit] is the current segment's frame
   limit; the template-to-template fast transfers never change segment,
   so it is invariant along a chain and [relaunch] recomputes it on
   every slow-path re-entry. *)
type step = t -> value array -> int -> int -> int -> value -> int -> unit

type Rt.tmpl += Template of step array

(* The stack VM loop's helpers, shared ([t] is [Vm_core]'s [Policy.t]):
   [sync] flushes the batched pc/acc/instruction count/fuel before any
   observation point, [fuel_stop] does so at a fuel check and returns the
   exception to raise, [reraise] flushes and re-raises for a primitive
   that raised with the batch unflushed, [prim_fast_stats] bumps the
   guarded fast path's two counters, [load_op] reads an operand (the
   accumulator, a frame slot or an immediate; in a step the match is on
   an immutable captured value and predicts perfectly), [spill1]/[spill2]
   write a register-addressed form's operands back before it deopts, and
   the deopt transfers take a failed guard's generic call or tail call.
   The default build reads [Vm_core]'s .cmx, so [sync], [prim_fast_stats],
   [load_op] and every instruction body inline here. *)
let sync = Vm_core.sync
let reraise = Vm_core.reraise
let prim_fast_stats = Vm_core.prim_fast_stats
let load_op = Vm_core.load_op
let prim_deopt_call = Vm_core.prim_deopt_call
let prim_deopt_tail_call = Vm_core.prim_deopt_tail_call
let fuel_stop = Vm_core.fuel_stop
let spill1 = Vm_core.spill1
let spill2 = Vm_core.spill2

let dummy_step : step = fun _ _ _ _ _ _ _ -> assert false

(* Monomorphic inline cache for [Call]/[Tail_call] steps: when a site
   keeps calling the same code object, the cached tuple carries the
   callee's post-[Enter] entry step and frame extent, so the transfer
   fuses the call with the callee's prologue — the arity check is paid
   once at cache fill, and the counter flush defers into the callee's
   first sync point, exactly like the engine's in-landing transfer.
   The cache is one ref holding an immutable tuple: a racing domain
   (the shared wind-resume templates cross domains) reads either the
   old tuple or the new one, never a torn mix; stale just means a
   recompute through the generic path.  The sentinel code compares
   physically equal to no real callee. *)
let cache_sentinel =
  Bytecode.code ~name:"<call-cache>" ~arity:(At_least 0) ~frame_words:max_int
    [||]

(* ------------------------------------------------------------------ *)
(* Template compilation                                                *)
(* ------------------------------------------------------------------ *)

(* Build the step array for [code] in reverse pc order, so the
   fall-through continuation of a straight-line instruction is captured
   as a direct closure reference.  Branch targets are resolved through
   the array at run time (they may point backwards); every pc gets a
   step regardless of fusion, because any synced pc can become a landing
   entry (deopt returns, error-handler resumes, timer fires). *)
let rec template stats code =
  match code.templ with Template arr -> arr | _ -> compile stats code

and compile stats (code : code) : step array =
  let instrs = code.instrs in
  let n = Array.length instrs in
  let arr = Array.make n dummy_step in
  for pc = n - 1 downto 0 do
    arr.(pc) <- emit arr instrs code pc
  done;
  code.templ <- Template arr;
  if stats.Stats.enabled then begin
    stats.Stats.tmpl_codes <- stats.Stats.tmpl_codes + 1;
    stats.Stats.tmpl_steps <- stats.Stats.tmpl_steps + n
  end;
  arr

and emit arr instrs (code : code) pc : step =
  match Array.unsafe_get instrs pc with
  | Const v ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget _acc steps ->
        k vm slots fp limit budget v (steps + 1)
  | Local_ref i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget _acc steps ->
        k vm slots fp limit budget slots.(fp + i) (steps + 1)
  | Local_set i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        set_slot slots (fp + i) acc;
        k vm slots fp limit budget acc (steps + 1)
  | Box_init i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let slots = Vm_core.box_init vm slots fp i in
        k vm slots fp limit budget acc (steps + 1)
  | Box_ref i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let v = Vm_core.box_ref vm slots fp steps pc acc i in
        k vm slots fp limit budget v (steps + 1)
  | Box_set i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        Vm_core.box_set vm slots fp steps pc acc i;
        k vm slots fp limit budget acc (steps + 1)
  | Free_ref i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let v = Vm_core.free_ref vm slots fp steps pc acc i in
        k vm slots fp limit budget v (steps + 1)
  | Free_box_ref i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let v = Vm_core.free_box_ref vm slots fp steps pc acc i in
        k vm slots fp limit budget v (steps + 1)
  | Free_box_set i ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        Vm_core.free_box_set vm slots fp steps pc acc i;
        k vm slots fp limit budget acc (steps + 1)
  | Global_ref s ->
      (* A slot resolves when the step runs, never at template build: the
         template is cached on the code object and may be shared across
         sessions (the prelude image), each with its own cells. *)
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let v = Vm_core.global_ref vm steps pc acc s in
        k vm slots fp limit budget v (steps + 1)
  | Global_set s ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        Vm_core.global_set vm steps pc acc s;
        k vm slots fp limit budget acc (steps + 1)
  | Global_define s ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        Vm_core.define vm s acc;
        k vm slots fp limit budget acc (steps + 1)
  | Make_closure (c, caps) ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let v = Vm_core.make_closure vm slots fp steps pc acc c caps in
        k vm slots fp limit budget v (steps + 1)
  | Branch t ->
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else (Array.unsafe_get arr t) vm slots fp limit budget acc (steps + 1)
  | Branch_false t -> (
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          match acc with
          | Bool false ->
              (Array.unsafe_get arr t) vm slots fp limit budget acc (steps + 1)
          | _ -> k vm slots fp limit budget acc (steps + 1))
  | Call site -> (
      let k = arr.(pc + 1) in
      let disp = site.cs_disp and cs_nargs = site.cs_nargs in
      let cache = ref (cache_sentinel, dummy_step, max_int) in
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          let nfp = fp + disp in
          match slots.(nfp + 1) with
          | Closure c ->
              (* Same-segment call: write the interned return address and
                 enter the callee's template.  [vm.pc] stays stale,
                 exactly as in the engine loop. *)
              let code = c.code in
              set_slot slots nfp site.cs_ret;
              set_code vm code;
              vm.nargs <- cs_nargs;
              vm.pol.Control.fp <- nfp;
              let stats = vm.stats in
              if stats.Stats.enabled then begin
                stats.Stats.frames <- stats.Stats.frames + 1;
                stats.Stats.calls <- stats.Stats.calls + 1
              end;
              let ccode, centry, cfw = !cache in
              if code == ccode then begin
                (* Monomorphic hit: the call and the callee's [Enter]
                   fuse into one transfer (arity was checked at cache
                   fill), and the batch carries into the callee — no
                   flush, exactly the engine's in-landing transfer. *)
                let room = nfp + cfw <= limit in
                if room && not (tick vm) then
                  centry vm slots nfp limit budget acc (steps + 2)
                else enter_slow vm room (steps + 2) 1 acc
              end
              else
                call_generic vm cache code cs_nargs slots nfp limit budget acc
                  (steps + 1)
          | Prim { pfn = Pure p; parity; pname } -> (
              (* The engine's pure-call path, the batch unflushed. *)
              match
                call_pure vm p.fn p.fn1 p.fn2 parity pname slots (nfp + 2)
                  cs_nargs
              with
              | v -> k vm slots fp limit budget v (steps + 1)
              | exception e -> reraise vm (steps + 1) (pc + 1) acc e)
          | f ->
              sync vm (steps + 1) (pc + 1) acc;
              let stats = vm.stats in
              if stats.Stats.enabled then
                stats.Stats.frames <- stats.Stats.frames + 1;
              Vm_policy.call vm ~disp ~ret:site.cs_ret ~nargs:cs_nargs f;
              relaunch vm)
  | Tail_call { disp; nargs } -> (
      let cache = ref (cache_sentinel, dummy_step, max_int) in
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          let src = fp + disp in
          let f = slots.(src + 1) in
          match f with
          | Closure c ->
              let code = c.code in
              set_slot slots (fp + 1) f;
              blit_args slots (src + 2) (fp + 2) nargs;
              set_code vm code;
              vm.nargs <- nargs;
              let stats = vm.stats in
              if stats.Stats.enabled then
                stats.Stats.calls <- stats.Stats.calls + 1;
              let ccode, centry, cfw = !cache in
              if code == ccode then begin
                let room = fp + cfw <= limit in
                if room && not (tick vm) then
                  centry vm slots fp limit budget acc (steps + 2)
                else enter_slow vm room (steps + 2) 1 acc
              end
              else
                call_generic vm cache code nargs slots fp limit budget acc
                  (steps + 1)
          | _ ->
              sync vm (steps + 1) (pc + 1) acc;
              Vm_policy.tail_call vm ~disp ~nargs f;
              relaunch vm)
  | Return ->
      (* Same-segment return: the batch carries into the caller's
         continuation, no flush — the engine's in-landing transfer. *)
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else do_return_fast vm slots fp limit budget acc (steps + 1) (pc + 1)
  | Enter -> (
      (* [Enter] belongs to a known code object, so its arity and frame
         extent are template-time constants: the Exactly-arity fast path
         compiles to two compares with no arity match at run time. *)
      match code.arity with
      | Exactly karity ->
          let fw = code.frame_words in
          let k = arr.(pc + 1) in
          fun vm slots fp limit budget acc steps ->
            if steps >= budget then raise (fuel_stop vm steps pc acc)
            else
              let room = vm.nargs = karity && fp + fw <= limit in
              if room && not (tick vm) then
                k vm slots fp limit budget acc (steps + 1)
              else enter_slow vm room (steps + 1) (pc + 1) acc
      | At_least _ ->
          fun vm _slots _fp _limit budget acc steps ->
            if steps >= budget then raise (fuel_stop vm steps pc acc)
            else enter_slow vm false (steps + 1) (pc + 1) acc)
  | Halt ->
      fun vm _slots _fp _limit _budget acc steps ->
        sync vm (steps + 1) (pc + 1) acc;
        vm.halted <- true
  (* ---- fused superinstructions (emitted by Optimize.peephole_program) ----
     Some steps additionally fuse here: adjacent pushes pair up (see
     [emit_push]) and the fixed-arity primitive calls absorb a
     [Local_set] of the result.
     [steps] advances by the number of fused instructions, so accounting
     is unchanged, and every skipped instruction's own step still exists
     at its pc — fusion only skips dispatch to it on the straight-line
     path.
     Neither fusion has a bytecode form, and both are kept on
     measurement.  Over the default-flag prelude, corpus, thread, CML
     and (since removed) parallel-prelude code the absorption matched
     286 sites and the push pairing 86.  A build without it ran the
     perfbench [corpus] workload at a median jobs_per_s ratio of 0.89 (95%
     bootstrap interval 0.85-0.96, slower in 5 of 5 interleaved 20 s
     pairs, 2-vCPU Xeon); an earlier check over 5 pairs of 10 s gave 0.96.
     Both are below the 0.98 a deletion must keep. *)
  | Const_push (v, i) -> emit_push arr instrs pc (Op_const v) i
  | Local_push (s, i) -> emit_push arr instrs pc (Op_local s) i
  | Free_push (i, j) ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let slots = Vm_core.free_push vm slots fp steps pc acc i j in
        k vm slots fp limit budget acc (steps + 1)
  | Global_push (s, i) ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        let slots = Vm_core.global_push vm slots fp steps pc acc s i in
        k vm slots fp limit budget acc (steps + 1)
  | Prim_call site ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else begin
          sync vm (steps + 1) (pc + 1) acc;
          if guard vm site then begin
            let v = Vm_core.prim_call_n vm slots fp site in
            k vm slots fp limit (budget - (steps + 1)) v 0
          end
          else begin
            prim_deopt_call vm site;
            relaunch vm
          end
        end
  (* The fixed-arity forms share one emitter per shape with their
     register-addressed forms below: a plain form reads its staged
     argument slot as an [Op_local] operand. *)
  | Prim_call1 site ->
      emit_call1 arr instrs pc site (Op_local (site.ps_disp + 2))
  | Prim_call2 site ->
      let argd = site.ps_disp + 2 in
      emit_call2 arr instrs pc site (Op_local argd) (Op_local (argd + 1))
  | Local_branch_false (i, t) -> (
      (* The retained [Branch_false] sits at [pc + 1]; fall through lands
         past it, exactly as in the engine loop. *)
      let k = arr.(pc + 2) in
      fun vm slots fp limit budget _acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc _acc)
        else
          let v = slots.(fp + i) in
          match v with
          | Bool false ->
              (Array.unsafe_get arr t) vm slots fp limit budget v (steps + 1)
          | _ -> k vm slots fp limit budget v (steps + 1))
  | Prim_branch1 (site, t) ->
      emit_branch1 arr pc site (Op_local (site.ps_disp + 2)) t
  | Prim_branch2 (site, t) ->
      let argd = site.ps_disp + 2 in
      emit_branch2 arr pc site (Op_local argd) (Op_local (argd + 1)) t
  | Prim_tail_call site ->
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else begin
          sync vm (steps + 1) (pc + 1) acc;
          if guard vm site then begin
            let v = Vm_core.prim_call_n vm slots fp site in
            do_return_fast vm slots fp limit (budget - (steps + 1)) v 0 (pc + 1)
          end
          else begin
            prim_deopt_tail_call vm site;
            relaunch vm
          end
        end
  (* ---- register-addressed forms (the peephole's register lowering) ----
     One instruction is counted per fused form, mirroring the engine
     loop's handlers exactly, so [instrs] parity across backends is
     preserved by construction.  Each continues where the consumer it
     replaced did, and flushes at [pc + 1]. *)
  | Prim_call1_op (site, a) -> emit_call1 arr instrs pc site a
  | Prim_call2_op (site, a, b) -> emit_call2 arr instrs pc site a b
  | Prim_branch1_op (site, a, t) -> emit_branch1 arr pc site a t
  | Prim_branch2_op (site, a, b, t) -> emit_branch2 arr pc site a b t
  | Prim_tail1_op (site, a) ->
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          let x = load_op slots fp acc a in
          if guard vm site then begin
            prim_fast_stats vm;
            match site.ps_fn1 x with
            | v ->
                do_return_fast vm slots fp limit budget v (steps + 1) (pc + 1)
            | exception e -> reraise vm (steps + 1) (pc + 1) acc e
          end
          else begin
            spill1 vm slots fp site x;
            deopt vm (steps + 1) (pc + 1) acc prim_deopt_tail_call site
          end
  | Prim_tail2_op (site, a, b) ->
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          let x = load_op slots fp acc a in
          let y = load_op slots fp acc b in
          if guard vm site then begin
            prim_fast_stats vm;
            match site.ps_fn2 x y with
            | v ->
                do_return_fast vm slots fp limit budget v (steps + 1) (pc + 1)
            | exception e -> reraise vm (steps + 1) (pc + 1) acc e
          end
          else begin
            spill2 vm slots fp site x y;
            deopt vm (steps + 1) (pc + 1) acc prim_deopt_tail_call site
          end
  | Return_op a ->
      (* Fused producer + [Return], one counted instruction. *)
      fun vm slots fp limit budget acc steps ->
        if steps >= budget then raise (fuel_stop vm steps pc acc)
        else
          do_return_fast vm slots fp limit budget
            (load_op slots fp acc a)
            (steps + 1) (pc + 1)

(* A [Const_push]/[Local_push] step; adjacent pushes pair up.  The
   [s2 <> d1] guard keeps the pair apart when the second push reads the
   first one's destination. *)
and emit_push arr instrs pc src1 d1 : step =
  match Array.unsafe_get instrs (pc + 1) with
  | Const_push (v2, d2) -> emit_push2 arr pc src1 d1 (Op_const v2) d2
  | Local_push (s2, d2) when s2 <> d1 ->
      emit_push2 arr pc src1 d1 (Op_local s2) d2
  | _ ->
      let k = arr.(pc + 1) in
      fun vm slots fp limit budget acc steps ->
        set_slot slots (fp + d1) (load_op slots fp acc src1);
        k vm slots fp limit budget acc (steps + 1)

and emit_push2 arr pc src1 d1 src2 d2 : step =
  let k = arr.(pc + 2) in
  fun vm slots fp limit budget acc steps ->
    set_slot slots (fp + d1) (load_op slots fp acc src1);
    set_slot slots (fp + d2) (load_op slots fp acc src2);
    k vm slots fp limit budget acc (steps + 2)

(* The fixed-arity call and branch emitters.  [pc + 1] is where the
   batch is flushed when the primitive raises or the guard fails.  A
   call form absorbs a [Local_set] of the result at [pc + 1] ([steps]
   then counts it too); the flush point stays at [pc + 1], so an
   error-handler resume re-executes the set on the handler's value, as
   unfused code would.  On guard failure the operands are spilled into
   the argument slots first (for a plain form that rewrites the value
   already there). *)
and emit_call1 arr instrs pc site a : step =
  let next = pc + 1 in
  let set, k =
    match Array.unsafe_get instrs next with
    | Local_set j -> (j, arr.(next + 1))
    | _ -> (-1, arr.(next))
  in
  fun vm slots fp limit budget acc steps ->
    if steps >= budget then raise (fuel_stop vm steps pc acc)
    else
      let x = load_op slots fp acc a in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 x with
        | v when set >= 0 ->
            set_slot slots (fp + set) v;
            k vm slots fp limit budget v (steps + 2)
        | v -> k vm slots fp limit budget v (steps + 1)
        | exception e -> reraise vm (steps + 1) next acc e
      end
      else begin
        spill1 vm slots fp site x;
        deopt vm (steps + 1) next acc prim_deopt_call site
      end

and emit_call2 arr instrs pc site a b : step =
  let next = pc + 1 in
  let set, k =
    match Array.unsafe_get instrs next with
    | Local_set j -> (j, arr.(next + 1))
    | _ -> (-1, arr.(next))
  in
  fun vm slots fp limit budget acc steps ->
    if steps >= budget then raise (fuel_stop vm steps pc acc)
    else
      let x = load_op slots fp acc a in
      let y = load_op slots fp acc b in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn2 x y with
        | v when set >= 0 ->
            set_slot slots (fp + set) v;
            k vm slots fp limit budget v (steps + 2)
        | v -> k vm slots fp limit budget v (steps + 1)
        | exception e -> reraise vm (steps + 1) next acc e
      end
      else begin
        spill2 vm slots fp site x y;
        deopt vm (steps + 1) next acc prim_deopt_call site
      end

(* [ps_ret] of a branch form resumes at the retained [Branch_false] at
   [pc + 1], which re-tests the deopted call's returned value; the fast
   path's fall-through skips it. *)
and emit_branch1 arr pc site a t : step =
  let k = arr.(pc + 2) in
  fun vm slots fp limit budget acc steps ->
    if steps >= budget then raise (fuel_stop vm steps pc acc)
    else
      let x = load_op slots fp acc a in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn1 x with
        | Bool false ->
            (Array.unsafe_get arr t) vm slots fp limit budget (Bool false)
              (steps + 1)
        | v -> k vm slots fp limit budget v (steps + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill1 vm slots fp site x;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end

and emit_branch2 arr pc site a b t : step =
  let k = arr.(pc + 2) in
  fun vm slots fp limit budget acc steps ->
    if steps >= budget then raise (fuel_stop vm steps pc acc)
    else
      let x = load_op slots fp acc a in
      let y = load_op slots fp acc b in
      if guard vm site then begin
        prim_fast_stats vm;
        match site.ps_fn2 x y with
        | Bool false ->
            (Array.unsafe_get arr t) vm slots fp limit budget (Bool false)
              (steps + 1)
        | v -> k vm slots fp limit budget v (steps + 1)
        | exception e -> reraise vm (steps + 1) (pc + 1) acc e
      end
      else begin
        spill2 vm slots fp site x y;
        deopt vm (steps + 1) (pc + 1) acc prim_deopt_call site
      end

(* The slow end of a procedure entry, [Enter]'s or that of the callee
   prologue a cached call fuses: flush at the pc past the [Enter]
   ([steps] counts it), then the timer handler's call when the frame had
   [room] and the tick fired, else the policy's [enter] (arity, overflow,
   rest list, tick). *)
and enter_slow (vm : t) room steps pc acc =
  sync vm steps pc acc;
  if room then Vm_policy.fire_timer vm else Vm_policy.enter vm;
  relaunch vm

(* A same-segment call or tail call whose site cache does not hold the
   callee's [code]: flush the batch ([steps] counts the transfer), refill
   the cache when the callee starts with an [Enter] of exactly this
   site's argument count, and jump into the callee's template.  The
   template lookup is written out here, as in [do_return_fast]: both
   continue the landing, and [template] is a call. *)
and call_generic (vm : t) cache (code : code) nargs slots nfp limit budget
    acc steps =
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.instrs <- stats.Stats.instrs + steps;
  if vm.fuel >= 0 then vm.fuel <- vm.fuel - steps;
  let carr =
    match code.templ with Template a -> a | _ -> compile stats code
  in
  (match code.arity with
  | Exactly a when a = nargs && Array.length carr > 1 -> (
      match code.instrs.(0) with
      | Enter -> cache := (code, carr.(1), code.frame_words)
      | _ -> ())
  | _ -> ());
  carr.(0) vm slots nfp limit (budget - steps) acc 0

(* A fused primitive's guard failed: flush at the pc after it and take
   the generic call ([transfer] is the deopt call or tail
   call). *)
and deopt (vm : t) steps pc acc transfer site =
  sync vm steps pc acc;
  transfer vm site;
  relaunch vm

(* Every return step's transfer ([Return], [Return_op], the fused tail
   calls): [steps] is the total count including every fused instruction
   (the batch carries into the caller on the fast path, unflushed),
   [next_pc] the pc past the [Return] (the sync point the slow path must
   land on). *)
and do_return_fast (vm : t) slots fp limit budget acc steps next_pc =
  match slots.(fp) with
  | Retaddr r when fp - r.rdisp + r.rcode.frame_words <= limit ->
      let nfp = fp - r.rdisp in
      set_code vm r.rcode;
      vm.pol.Control.fp <- nfp;
      let rarr =
        match r.rcode.templ with
        | Template a -> a
        | _ -> compile vm.stats r.rcode
      in
      rarr.(r.rpc) vm slots nfp limit budget acc steps
  | _ ->
      sync vm steps next_pc acc;
      Vm_policy.do_return vm;
      relaunch vm

(* Re-establish the landing state from [vm] after a slow-path control
   transfer and continue in compiled steps (or stop, when the transfer
   halted the machine).  The entry-pc bounds check mirrors the engine's
   [relaunch]; [tmpl_enters] counts these re-entries — the closure
   backend's analogue of the engine's landings-per-transfer. *)
and relaunch (vm : t) =
  if not vm.halted then begin
    let arr = template vm.stats vm.code in
    let pc = vm.pc in
    Engine.check_entry pc (Array.length arr);
    let stats = vm.stats in
    if stats.Stats.enabled then
      stats.Stats.tmpl_enters <- stats.Stats.tmpl_enters + 1;
    (Array.unsafe_get arr pc) vm (Vm_policy.slots vm) (Vm_policy.frame_base vm)
      (Control.seg_limit vm.pol)
      (if vm.fuel < 0 then max_int else vm.fuel)
      vm.acc 0
  end

(* ------------------------------------------------------------------ *)
(* Driver: identical protocol to the engine loop                       *)
(* ------------------------------------------------------------------ *)

let run ?fuel vm code = Vm_core.run_with relaunch ?fuel vm code

let run_program ?fuel (vm : t) codes =
  List.fold_left (fun _ code -> run ?fuel vm code) Void codes

(* Template-compile [code] and every code object it closes over.  The
   [templ] slot marks a code visited, so a shared child is compiled once
   and the walk needs no set: a code that already has a template had its
   whole DAG compiled with it, before anything ran, or was compiled on
   demand by a run, whose children compile when they are called. *)
let rec template_dag stats code =
  match code.templ with
  | Template _ -> ()
  | _ ->
      ignore (compile stats code);
      let instrs = code.instrs in
      for pc = 0 to Array.length instrs - 1 do
        match instrs.(pc) with
        | Make_closure (c, _) -> template_dag stats c
        | _ -> ()
      done

(* Compile first, then run: the whole [Make_closure] DAG of every
   top-level form is template-compiled before execution starts, so the
   measured run performs no compilation (runtime-generated code — [eval]
   the Scheme special — still compiles on demand in [relaunch]). *)
let run_compiled ?fuel (vm : t) codes =
  List.iter (template_dag vm.stats) codes;
  run_program ?fuel vm codes

let eval ?fuel (vm : t) src =
  run_compiled ?fuel vm
    (Compiler.compile_string ~options:vm.options ~menv:vm.menv vm.globals src)

(* Per-form entry point: one already-read top-level datum, so drivers
   can attribute failures to the datum's source position. *)
let eval_datum ?fuel (vm : t) d =
  run_compiled ?fuel vm
    (Compiler.compile_datum ~options:vm.options ~menv:vm.menv vm.globals d)

let create = Vm_policy.create
let stats = Engine.stats
let globals = Engine.globals
let output = Engine.output
let take_output = Engine.take_output

(* The code objects shared across machines (the halt code and the
   dynamic-wind resume codes) are template-compiled here, at module
   initialization: sessions may run on separate domains, and
   precompiling before any domain can spawn means their [templ] slots
   are only ever read concurrently, never written.  Per-program code is
   session-private, so no other cross-domain template write exists. *)
let () =
  let stats = Stats.create ~enabled:false () in
  List.iter
    (fun c -> ignore (template stats c))
    [ Engine.halt_code; Prims.wind_resume_code; Prims.dw_resume_code ]

(* Eager template compilation for code shared across sessions (the
   prelude image): the caller is responsible for sequencing this before
   the codes become visible to other domains (the image cache does it
   under its build lock). *)
let[@inline never] precompile codes =
  List.iter (template_dag (Stats.create ~enabled:false ())) codes
