open Rt
open Engine

(* The segmented-stack frame policy (the paper's control representation),
   instantiating the engine's dispatch loop ([Vm_core], generated from
   lib/engine/engine_core.ml).  The policy owns everything that knows
   control lives on {!Control}'s segmented stack: frame push/pop,
   capture/reinstatement, the wind trampoline's stack frames, overflow
   re-checks, and the slow paths of call/return/enter. *)

type t = Control.t Engine.vm

(* Landing constants: frames are contiguous slices of the active
   segment, so same-segment call/tail-call/return may stay inside a
   landing, and a [Call] to a pure primitive pushes nothing. *)
let fast = true
let frames_on_pure_call = false

let slots (vm : t) = vm.pol.Control.sr.seg
let frame_base (vm : t) = vm.pol.Control.fp
let limit (vm : t) = Control.seg_limit vm.pol
let[@inline] set_fp (vm : t) nfp = vm.pol.Control.fp <- nfp

(* Stack slots are plainly mutable (sealing, not sharing, protects
   captured frames), so a slot write never replaces the array.  A write
   of the value the slot already holds is skipped ({!Rt.set_slot}): on
   perfbench's [oneshot] workload 39% of slot writes are such rewrites. *)
let[@inline] set (_ : t) (slots : value array) fp i v =
  set_slot slots (fp + i) v;
  slots

let pure_call_skips (_ : t) (_ : call_site) = false

(* ------------------------------------------------------------------ *)
(* Returns and underflow                                               *)
(* ------------------------------------------------------------------ *)

(* A frame re-entered after a return or continuation invocation may sit
   near the top of a smaller segment than the one its [Enter] validated:
   re-establish the frame-extent guarantee before its code resumes. *)
let ensure_resumed_frame_room (vm : t) =
  let m = vm.pol in
  let fw = vm.code.frame_words in
  if not (Control.room m fw) then
    Control.ensure_room m ~live_top:(m.Control.fp + fw) ~need:fw

(* Resume at the return address {!Control} hands back from a
   reinstatement or an underflow. *)
let resume_at (vm : t) = function
  | Retaddr { rcode; rpc; _ } ->
      set_code vm rcode;
      vm.pc <- rpc;
      ensure_resumed_frame_room vm
  | v -> Values.err "vm: corrupt frame: bad return slot" [ v ]

let do_return (vm : t) =
  let m = vm.pol in
  match m.Control.sr.seg.(m.Control.fp) with
  | Retaddr { rcode; rpc; rdisp } ->
      m.Control.fp <- m.Control.fp - rdisp;
      set_code vm rcode;
      vm.pc <- rpc;
      ensure_resumed_frame_room vm
  | Underflow_mark _ ->
      (* Paper Section 3.2: returning through the bottom frame of a
         segment implicitly invokes the record linked below — consuming
         it if it is one-shot. *)
      if Control.at_bottom m then vm.halted <- true
      else resume_at vm (Control.underflow m)
  | v -> Values.err "vm: corrupt frame: bad return slot" [ v ]

(* ------------------------------------------------------------------ *)
(* Application                                                         *)
(* ------------------------------------------------------------------ *)

(* Apply [f] whose frame starts at [nfp] (return slot already correct and
   arguments at [nfp+2 ..]).  Used for both non-tail calls (fresh return
   address) and tail calls (inherited return slot). *)
let rec apply (vm : t) f nfp nargs =
  let m = vm.pol in
  let stats = vm.stats in
  match f with
  | Closure { code; _ } ->
      m.Control.fp <- nfp;
      set_code vm code;
      vm.pc <- 0;
      vm.nargs <- nargs;
      if stats.Stats.enabled then stats.Stats.calls <- stats.Stats.calls + 1
  | Prim { pfn = Pure { fn; _ }; parity; pname } ->
      check_prim vm parity pname nargs;
      vm.acc <- fn (prim_args vm m.Control.sr.seg (nfp + 2) nargs);
      (* Frame pointer is untouched for pure primitives: if this was a
         tail call ([nfp] = fp) the caller's Return follows; if it was a
         non-tail call, execution simply continues in the caller. *)
      if nfp = m.Control.fp then do_return vm
  | Prim { pfn = Special sp; parity; pname } ->
      check_prim vm parity pname nargs;
      m.Control.fp <- nfp;
      special vm sp nargs
  | Cont { sr; k_winders; _ } -> invoke_continuation vm f sr k_winders nfp nargs
  | v -> Values.err "application of non-procedure" [ v ]

(* [k] is the [Cont] value itself, [sr] and [k_winders] its fields. *)
and invoke_continuation vm k sr k_winders nfp nargs =
  let v = values_of vm.pol.Control.sr.seg (nfp + 2) nargs in
  (* Fast path: the machine already sits at the continuation's winder
     chain (physical equality) — reinstate directly.  Under the
     [--scheme-winders] prelude both chains stay [[]], so this is
     exactly the historical behavior. *)
  if k_winders == vm.winders then reinstate_cont vm sr v
  else start_wind vm k k_winders v

and reinstate_cont vm sr v =
  resume_at vm (Control.reinstate vm.pol sr);
  vm.acc <- v

(* The winder chains differ: push a wind-trampoline frame above the
   current frame and step it.  The frame records the continuation, its
   payload, the target chain and a pending-commit slot (see the layout
   comment in [Prims]); every guard thunk returns through [wind_ret],
   whose single instruction tail-calls back into [Sp_wind].  Capturing
   inside a guard therefore snapshots ordinary frames and the protocol
   survives re-entry. *)
and start_wind vm k k_winders v =
  let m = vm.pol in
  let fw = vm.code.frame_words in
  Control.ensure_room m ~live_top:(m.Control.fp + fw) ~need:(fw + 12);
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  let dfp = fp + fw in
  set_slot seg dfp (Retaddr { rcode = vm.code; rpc = vm.pc; rdisp = fw });
  set_slot seg (dfp + 1) (Prim Prims.wind_prim);
  set_slot seg (dfp + 2) k;
  set_slot seg (dfp + 3) v;
  set_slot seg (dfp + 4) (WindersV k_winders);
  set_slot seg (dfp + 5) (Bool false);
  m.Control.fp <- dfp;
  wind_step vm

(* One trampoline step.  fp is at a wind frame; room for the guard call
   area (fp+6, fp+7) is guaranteed by [start_wind]'s [ensure_room] on
   entry and by [wind_resume_code.frame_words] on every re-entry.  The
   chain arithmetic is {!Engine.wind_plan}'s. *)
and wind_step vm =
  let m = vm.pol in
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  (match seg.(fp + 5) with
  | WindersV w ->
      (* A before thunk just returned: commit its extent. *)
      vm.winders <- w;
      set_slot seg (fp + 5) (Bool false)
  | _ -> ());
  let target =
    match seg.(fp + 4) with
    | WindersV w -> w
    | v -> Values.err "vm: corrupt wind frame" [ v ]
  in
  match Engine.wind_plan vm.winders target with
  | Wind_done -> (
      (* Done: reinstate.  A shot one-shot record raises here, after the
         winds have run — the same point the Scheme wrapper checks. *)
      match seg.(fp + 2) with
      | Cont { sr; _ } -> reinstate_cont vm sr seg.(fp + 3)
      | v -> Values.err "vm: corrupt wind frame" [ v ])
  | plan ->
      let thunk =
        match plan with
        | Unwind (w, rest) ->
            vm.winders <- rest;
            w.w_after
        | Rewind (w, node) ->
            set_slot seg (fp + 5) (WindersV node);
            w.w_before
        | Wind_done -> assert false
      in
      set_slot seg (fp + 6) Prims.wind_ret;
      set_slot seg (fp + 7) thunk;
      (* Preset the resumption point for frame-less (pure) guards, as in
         the [Sp_dynamic_wind] arms. *)
      set_code vm Prims.wind_resume_code;
      vm.pc <- 0;
      apply vm thunk (fp + 6) 0

(* Specials execute with fp at their own frame: [ret][prim][args...]. *)
and special vm sp nargs =
  let m = vm.pol in
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  match sp with
  | Sp_callcc ->
      let p = Prims.check_procedure "%call/cc" seg.(fp + 2) in
      let sr = Control.capture_multi m in
      let k = Cont { sr; one_shot = false; k_winders = vm.winders } in
      tail_apply_2 vm p k
  | Sp_call1cc ->
      let p = Prims.check_procedure "%call/1cc" seg.(fp + 2) in
      let sr = Control.capture_oneshot m in
      let one_shot = not (Control.is_multi sr) in
      let k = Cont { sr; one_shot; k_winders = vm.winders } in
      tail_apply_2 vm p k
  | Sp_apply ->
      let f = Prims.check_procedure "apply" seg.(fp + 2) in
      let fixed = nargs - 2 in
      let lst = seg.(fp + 2 + nargs - 1) in
      (* Spread the last-argument list in place: count it (validating
         properness, cycles included), make room while keeping the whole
         current frame live, shift the fixed args down one slot, then
         walk the list a second time writing elements directly into the
         frame.  No intermediate arrays or list copies. *)
      let rest = Prims.spread_length lst in
      let n = fixed + rest in
      Control.ensure_room m ~live_top:(fp + 2 + nargs) ~need:(n + 8);
      let fp = m.Control.fp in
      let seg = m.Control.sr.seg in
      set_slot seg (fp + 1) f;
      for i = 0 to fixed - 1 do
        set_slot seg (fp + 2 + i) seg.(fp + 3 + i)
      done;
      let rec spread_fill v i =
        match v with
        | Pair { car; cdr } ->
            set_slot seg i car;
            spread_fill cdr (i + 1)
        | _ -> ()
      in
      spread_fill lst (fp + 2 + fixed);
      apply vm f fp n
  | Sp_values ->
      vm.acc <- values_of seg (fp + 2) nargs;
      do_return vm
  | Sp_stats ->
      vm.acc <- stat vm seg.(fp + 2);
      do_return vm
  | Sp_backtrace ->
      vm.acc <-
        Values.list_to_value
          (List.map (fun n -> sym n) (Control.backtrace m));
      do_return vm
  | Sp_eval ->
      let datum = seg.(fp + 2) in
      let code =
        Compiler.compile_eval ~options:vm.options ~menv:vm.menv vm.globals
          datum
      in
      let clos = Closure { code; frees = [||] } in
      set_slot seg (fp + 1) clos;
      apply vm clos fp 0
  | Sp_dynamic_wind when nargs = 3 ->
      (* Entry: extend the frame in place with state/saved slots
         ([ret][prim][before][thunk][after][state][saved]) and call the
         before thunk through [dw_ret_before].  Resumptions re-enter
         this special via [Prims.dw_resume_code] with nargs = 5. *)
      Control.ensure_room m ~live_top:(fp + 5) ~need:12;
      let fp = m.Control.fp in
      let seg = m.Control.sr.seg in
      set_slot seg (fp + 5) (Values.of_int 0);
      set_slot seg (fp + 6) void;
      let before = seg.(fp + 2) in
      set_slot seg (fp + 7) Prims.dw_ret_before;
      set_slot seg (fp + 8) before;
      (* Preset the resumption point: a pure-primitive guard pushes no
         frame and falls through to the relaunch, which must land
         exactly where a normal return through the ret slot would. *)
      set_code vm Prims.dw_resume_code;
      vm.pc <- 0;
      apply vm before (fp + 7) 0
  | Sp_dynamic_wind -> (
      if nargs <> 5 then
        Values.err "%dynamic-wind: expected 3 arguments" [];
      let state = seg.(fp + 5) in
      match (match state with Fixnum -> Values.to_int state | _ -> 0) with
      | 1 ->
          (* before returned: enter the extent, run the thunk *)
          vm.winders <-
            { w_before = seg.(fp + 2); w_after = seg.(fp + 4) } :: vm.winders;
          let thunk = seg.(fp + 3) in
          set_slot seg (fp + 7) Prims.dw_ret_thunk;
          set_slot seg (fp + 8) thunk;
          set_code vm Prims.dw_resume_code;
          vm.pc <- 2;
          apply vm thunk (fp + 7) 0
      | 2 ->
          (* thunk returned (value stashed at fp+6): leave the extent
             *before* running the after thunk, as the prelude does *)
          (match vm.winders with
          | _ :: rest -> vm.winders <- rest
          | [] -> ());
          let after = seg.(fp + 4) in
          set_slot seg (fp + 7) Prims.dw_ret_after;
          set_slot seg (fp + 8) after;
          set_code vm Prims.dw_resume_code;
          vm.pc <- 5;
          apply vm after (fp + 7) 0
      | 3 ->
          vm.acc <- seg.(fp + 6);
          do_return vm
      | _ -> Values.err "vm: corrupt %dynamic-wind frame" [ state ])
  | Sp_wind -> wind_step vm

(* Tail-call [p] with the single argument [k] from the current frame
   (used by the capture operations after sealing). *)
and tail_apply_2 vm p k =
  let m = vm.pol in
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  set_slot seg (fp + 1) p;
  set_slot seg (fp + 2) k;
  apply vm p fp 1

(* ------------------------------------------------------------------ *)
(* Engine transfer hooks                                               *)
(* ------------------------------------------------------------------ *)

(* Slow-path [Call] (and a fused site's deoptimized call): the engine has
   synced and counted the frame; place the callee and the interned return
   address [ret] (a no-op store for a [Call], whose callee slot already
   holds [f]) and dispatch. *)
let call (vm : t) ~disp ~ret ~nargs f =
  let m = vm.pol in
  let nfp = m.Control.fp + disp in
  let seg = m.Control.sr.seg in
  set_slot seg (nfp + 1) f;
  set_slot seg nfp ret;
  apply vm f nfp nargs

(* Slow-path [Tail_call]: frame reused in place, return slot
   inherited. *)
let tail_call (vm : t) ~disp ~nargs f =
  let m = vm.pol in
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  set_slot seg (fp + 1) f;
  blit_args seg (fp + disp + 2) (fp + 2) nargs;
  apply vm f fp nargs

(* ------------------------------------------------------------------ *)
(* Procedure entry: overflow and the timer                             *)
(* ------------------------------------------------------------------ *)

let fire_timer (vm : t) =
  let m = vm.pol in
  let code = vm.code in
  let fw = code.frame_words in
  Control.ensure_room m ~live_top:(m.Control.fp + fw) ~need:(fw + 4);
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  let handler = vm.timer_handler in
  set_slot seg (fp + fw) (timer_ret code vm.pc fw);
  set_slot seg (fp + fw + 1) handler;
  apply vm handler (fp + fw) 0

(* Slow-path [Enter]: the arity check, room for the whole frame (keeping
   the arguments live), the rest list, and the timer tick. *)
let enter (vm : t) =
  let m = vm.pol in
  let c = vm.code in
  let n = vm.nargs in
  check_arity c n;
  Control.ensure_room m ~live_top:(m.Control.fp + 2 + n) ~need:c.frame_words;
  collect_rest c n m.Control.sr.seg (m.Control.fp + 2);
  if tick vm then fire_timer vm

(* ------------------------------------------------------------------ *)
(* Error-handler injection, machine setup                              *)
(* ------------------------------------------------------------------ *)

(* The handler returns to the faulting pc, which the fault flushed:
   check it here, once, so the return into it needs no check. *)
let inject_error_handler (vm : t) handler msg irritants =
  check_entry vm.pc (Array.length vm.code.instrs);
  let m = vm.pol in
  let fw = vm.code.frame_words in
  Control.ensure_room m ~live_top:(m.Control.fp + fw) ~need:(fw + 6);
  let fp = m.Control.fp in
  let seg = m.Control.sr.seg in
  set_slot seg (fp + fw) (Retaddr { rcode = vm.code; rpc = vm.pc; rdisp = fw });
  set_slot seg (fp + fw + 1) handler;
  set_slot seg (fp + fw + 2) (Str (Bytes.of_string msg));
  set_slot seg (fp + fw + 3) (Values.list_to_value irritants);
  apply vm handler (fp + fw) 2

let init_run (vm : t) code =
  let m = vm.pol in
  Control.init_frame m
    (Retaddr { rcode = Engine.halt_code; rpc = 0; rdisp = 0 });
  set_slot m.Control.sr.seg (m.Control.fp + 1) (Closure { code; frees = [||] })

let create ?(config = Control.default_config) ?stats ?options () : t =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Engine.create ~stats ?options (Control.create ~stats config)
