(* Per-domain machine hooks.

   Every primitive value is a process-shared module-level constant (so
   the inline-cache guards [ps_guard == gval] hold across sessions that
   share compiled code, e.g. the prelude image), but a handful of
   primitives need the *running machine*: the preemption-timer pair
   ([%set-timer!]/[%get-timer]) and the five primitives that write or
   read the session's output buffer.  Those read the
   current machine through this domain-local record, installed by each
   backend's [run] (and the oracle's [eval]) for the dynamic extent of
   the run and restored on exit, so nested runs — eval inside eval, a
   prelude load inside session setup — unwind correctly.  Domain-local
   storage keeps sessions on separate domains fully independent.

   None of the hooks reads the state the dispatch loops batch per landing
   ([vm.pc], [vm.acc], [vm.fuel], [stats.instrs]): [out] is the output
   buffer ([display], [write], [newline], [%output-mark],
   [%output-take]), and the timer pair reads and writes
   [vm.timer]/[vm.timer_handler], which [Enter] reads directly.  That is
   what lets the loops call these primitives without flushing first (see
   the [sync] contract in engine_core.ml); a hook that needed batched
   state would break it. *)

type t = {
  mutable set_timer : int -> Rt.value -> unit;
  mutable get_timer : unit -> int;
  mutable out : unit -> Buffer.t;
}

(* The dormant defaults match the oracle's historical timer semantics
   (no preemption: set is a no-op, get reads 0) and give output prims a
   per-instance scratch buffer nobody observes. *)
let default () =
  let buf = Buffer.create 16 in
  {
    set_timer = (fun _ _ -> ());
    get_timer = (fun () -> 0);
    out = (fun () -> buf);
  }

let key : t Domain.DLS.key = Domain.DLS.new_key default

let current () = Domain.DLS.get key

(* Install [h] for the extent of [f], restoring the previous hooks even
   on exceptions (machine errors propagate through here). *)
let with_hooks h f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key h;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
