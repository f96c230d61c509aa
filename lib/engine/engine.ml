open Rt

(* The execution engine shared by the stack VM ({!Vm}) and the heap VM
   ({!Heapvm}).  Everything a bytecode interpreter needs that does not
   depend on the control representation lives here:

   - the machine record ['p vm], polymorphic in the frame-policy state
     ['p] (the segmented-stack machine {!Control.t}, or the heap VM's
     current-frame cell);
   - machine construction ({!create}): primitive installation, the
     per-machine timer accessors, the pure-prim scratch buffers;
   - the small helpers of the dispatch loop (argument collection,
     argument blits, multiple-values construction);
   - the machine steps that do not depend on where frames live (timer
     tick, arity check and rest list, primitive calls, deopt callee,
     [%stat]), written once for both policies, both loops and the
     closure templates;
   - the winder-chain planner {!wind_plan}, the one chain-walk both
     trampolines (and the oracle's CPS mirror) execute.

   The dispatch loop itself lives in [engine_core.ml] — a template
   concatenated by a dune rule under [module Policy = ...] into each
   backend library, so every instruction handler is written once but
   compiled per policy with the policy's operations statically known
   (include-style instantiation; a functor would put an indirection on
   every hot-path policy call). *)

type 'p vm = {
  globals : Globals.t;
  menv : Macro.menv;
  options : Compiler.options;
      (* the compile pipeline's stage switches: everything this machine
         runs, runtime [(eval datum)] included, compiles through them *)
  out : Buffer.t;
  stats : Stats.t;
  mutable acc : value;
  mutable code : code;
  mutable pc : int;
  mutable nargs : int;
  mutable timer : int;
  mutable timer_handler : value;
  mutable halted : bool;
  mutable fuel : int; (* negative = unlimited *)
  mutable winders : winder list;
      (* native dynamic-wind chain, innermost first; shares structure
         with the winder snapshots of captured continuations, so
         rewind/unwind targets compare by physical equality *)
  scratch : value array array;
      (* scratch.(k), k <= max_scratch, is a reusable length-k argument
         buffer for pure-primitive application at 0 or >= 3 arguments
         (1 and 2 go to the direct entries): no per-call Array.init.
         Safe because no pure primitive retains its argument array and
         pure primitives never re-enter the VM. *)
  hooks : Machine_hooks.t;
      (* this machine's timer/output hooks; installed domain-locally by
         [run] for the extent of every run, so the process-shared prims
         reach this vm's state *)
  pol : 'p; (* frame-policy state: the control representation *)
}

exception Vm_fuel_exhausted

let max_scratch = 8

let halt_code =
  Bytecode.make_code ~name:"%halt" ~arity:(Exactly 0) ~frame_words:2 [| Halt |]

let create ?stats ?(options = Compiler.default_options) pol =
  let out = Buffer.create 256 in
  let globals = Globals.create () in
  Prims.install globals;
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let vm =
    {
      globals;
      menv = Macro.create_menv ();
      options;
      out;
      stats;
      acc = void;
      code = halt_code;
      pc = 0;
      nargs = 0;
      timer = -1;
      timer_handler = void;
      halted = false;
      fuel = -1;
      winders = [];
      scratch = Array.init (max_scratch + 1) (fun k -> Array.make k void);
      hooks = Machine_hooks.default ();
      pol;
    }
  in
  (* Point this machine's hook record at its own state.  The timer
     accessors and the output sink are
     per-machine state behind process-shared [Pure] prims (applied
     in-line, no frame, eligible for primitive-call fusion — the
     scheduler re-arms the timer once per context switch, which made a
     special-call round trip measurable hot-path overhead in e2); the
     prims reach the running vm through {!Machine_hooks.current}. *)
  vm.hooks.Machine_hooks.set_timer <-
    (fun ticks handler ->
      (* A scheduler re-arms with the same handler at every switch. *)
      if vm.timer_handler != handler then vm.timer_handler <- handler;
      vm.timer <- (if ticks <= 0 then -1 else ticks));
  vm.hooks.Machine_hooks.get_timer <- (fun () -> max vm.timer 0);
  vm.hooks.Machine_hooks.out <- (fun () -> vm.out);
  vm

let stats vm = vm.stats
let globals vm = vm.globals
let output vm = Buffer.contents vm.out

let take_output vm =
  let s = Buffer.contents vm.out in
  Buffer.clear vm.out;
  s

(* ------------------------------------------------------------------ *)
(* Dispatch-loop helpers                                               *)
(* ------------------------------------------------------------------ *)

(* Collect [nargs] argument values starting at [slots.(base)] into a
   reusable scratch buffer (falling back to a fresh array for rare
   high-arity calls). *)
let prim_args vm slots base nargs =
  if nargs <= max_scratch then begin
    let args = vm.scratch.(nargs) in
    for i = 0 to nargs - 1 do
      Array.unsafe_set args i slots.(base + i)
    done;
    args
  end
  else Array.init nargs (fun i -> slots.(base + i))

(* Move [n] argument slots within one slot array ([dst] strictly below
   [src], so an ascending copy is safe), skipping the write barrier of
   each slot that already holds its argument (a self tail call passing
   a parameter through unchanged).  No [Array.blit]: on a major-heap
   segment [caml_array_blit] pays [caml_modify] for every word, and
   argument counts are small. *)
let[@inline] blit_args slots src dst n =
  if n = 1 then set_slot slots dst slots.(src)
  else if n = 2 then begin
    set_slot slots dst slots.(src);
    set_slot slots (dst + 1) slots.(src + 1)
  end
  else
    for i = 0 to n - 1 do
      set_slot slots (dst + i) slots.(src + i)
    done

(* Publish the running code object.  The machine record is long-lived
   (major heap), so the store pays [caml_modify]; transfers between
   frames of the same procedure (self calls, loops, returns into a
   caller running the same code) leave it unchanged and skip it. *)
let[@inline] set_code vm c = if vm.code != c then vm.code <- c

(* A landing's entry-pc bounds check against its code's length, also
   made on the pc an error handler will return to. *)
let[@inline] check_entry pc n =
  if pc < 0 || pc >= n then
    Values.err "vm: corrupt return address (pc out of range)" []

(* Build [slots.(base) :: ... :: slots.(base + i) :: acc] without an
   intermediate array (multiple-values construction). *)
let rec collect_list slots base i acc =
  if i < 0 then acc
  else collect_list slots base (i - 1) (slots.(base + i) :: acc)

let empty_mvals = Mvals []

(* ------------------------------------------------------------------ *)
(* Policy-independent machine steps                                    *)
(* ------------------------------------------------------------------ *)

(* The steps below do not depend on where frames live, so every frame
   policy, both dispatch loops and the closure templates share them.
   Those used on a dispatch fast path are [@inline]: the default build
   reads this module's .cmx, so they add no call there. *)

(* The preemption timer's per-entry tick: decrement an armed timer and
   report the entry that exhausts the slice, disarming it.  The handler
   dispatch happens only on that entry, so code running under preemption
   (the thread benchmarks) stays on the fast path between switches. *)
let[@inline] tick vm =
  let t = vm.timer in
  t > 0
  &&
  if t = 1 then begin
    vm.timer <- -1;
    true
  end
  else begin
    vm.timer <- t - 1;
    false
  end

(* The return address a timer fire pushes.  The fire always happens at
   procedure entry, so the resumption point (pc, displacement) is a
   constant of [code]: intern it on the code object instead of allocating
   one per preemption.  The guard keeps this sound should a caller fire
   from elsewhere, or a code object run under policies with different
   displacements ([rdisp] is the frame size on the stack, 0 on the
   heap). *)
let timer_ret (code : code) pc rdisp =
  match code.timer_ret with
  | Retaddr r as ra when r.rpc = pc && r.rdisp = rdisp -> ra
  | _ ->
      let ra = Retaddr { rcode = code; rpc = pc; rdisp } in
      code.timer_ret <- ra;
      ra

(* [Enter]'s slow path, before and after the policy makes room for the
   frame: the arity check, then the collection of a variadic procedure's
   arguments past its fixed ones into a list in its rest slot
   ([slots.(base + i)] holds argument [i]). *)
let check_arity (c : code) n =
  match c.arity with
  | Exactly k ->
      if n <> k then
        Values.err
          (Printf.sprintf "%s: expected %d arguments, got %d" c.cname k n)
          []
  | At_least k ->
      if n < k then
        Values.err
          (Printf.sprintf "%s: expected at least %d arguments, got %d" c.cname
             k n)
          []

let collect_rest (c : code) n slots base =
  match c.arity with
  | At_least k ->
      let rest = ref nil in
      for i = n - 1 downto k do
        rest := Values.cons slots.(base + i) !rest
      done;
      set_slot slots (base + k) !rest
  | Exactly _ -> ()

(* A primitive application's arity check and call count, on every path
   that applies one, pure or special. *)
let[@inline] check_prim vm parity pname nargs =
  if not (Bytecode.arity_matches parity nargs) then
    Values.err (pname ^ ": wrong number of arguments") [];
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.prim_calls <- stats.Stats.prim_calls + 1

(* The dispatch loops' [Call] of a pure primitive whose arguments are at
   [slots.(base ..)]: one and two arguments go to the direct entries, any
   other count through a scratch array.  The policies' slow paths apply
   the n-ary entry instead, because a default direct entry allocates the
   argument array that the scratch buffer avoids. *)
let[@inline] call_pure vm fn fn1 fn2 parity pname slots base nargs =
  check_prim vm parity pname nargs;
  if nargs = 1 then fn1 slots.(base)
  else if nargs = 2 then fn2 slots.(base) slots.(base + 1)
  else fn (prim_args vm slots base nargs)

(* What [nargs] arguments at [slots.(base ..)] deliver to a continuation
   ([values], a continuation invocation): the value itself for one,
   multiple values otherwise. *)
let values_of slots base nargs =
  if nargs = 1 then slots.(base)
  else if nargs = 0 then empty_mvals
  else if nargs = 2 then Mvals [ slots.(base); slots.(base + 1) ]
  else Mvals (collect_list slots base (nargs - 1) [])

(* [(%stat 'name)]: the named counter. *)
let stat vm v =
  let name =
    match v with Sym s -> s | v -> Values.type_error "%stat" "symbol" v
  in
  match Stats.get vm.stats name with
  | n -> Values.of_int n
  | exception Not_found -> Values.err ("%stat: unknown counter " ^ name) []

(* The error of a read of an unbound global, which both loops, the
   closure templates and the deopt callee lookup raise. *)
let unbound_variable s =
  Scheme_error ("unbound variable: " ^ Globals.slot_name s, [])

(* A fused site's inline-cache guard: the global it was compiled against
   still holds the primitive the site calls directly. *)
let[@inline] guard vm site =
  (Globals.get vm.globals site.ps_slot).gval == site.ps_guard

(* A fused site's inline-cache guard failed: the global it was compiled
   against has been assigned ([set!] of [+] and the like).  Count the
   deoptimization and return the callee the generic call the peephole
   replaced now reaches. *)
let deopt_callee vm site =
  let stats = vm.stats in
  if stats.Stats.enabled then
    stats.Stats.prim_deopts <- stats.Stats.prim_deopts + 1;
  let g = Globals.get vm.globals site.ps_slot in
  if not g.gdefined then raise (unbound_variable site.ps_slot);
  g.gval

(* ------------------------------------------------------------------ *)
(* Error-handler injection                                             *)
(* ------------------------------------------------------------------ *)

(* Runtime errors unwind to Scheme when a handler is installed: the VM
   pops the head of the %error-handlers list and calls it with the
   message and irritants at the point of the error (handlers normally
   escape through a continuation; if one returns, its value becomes the
   value of the faulting operation).  The oracle pops the same list
   (over its own global table) at its raise sites. *)
let pop_error_handler globals =
  match Globals.lookup_opt globals "%error-handlers" with
  | Some (Pair { car = h; cdr }) ->
      Globals.define globals "%error-handlers" cdr;
      Some h
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The winder-chain planner                                            *)
(* ------------------------------------------------------------------ *)

(* One step of the dynamic-wind trampoline, as pure chain arithmetic.
   The chains share structure (the winder list is a stack), so the
   common tail is found by physical equality after length alignment.
   Ordering matches the prelude's [%do-winds] protocol exactly: an
   unwind pops the machine chain *before* running the after thunk
   (innermost first); a rewind runs the before thunk first and commits
   the chain node only when it returns (outermost first) — [Rewind]
   therefore carries the node to commit, not a chain to install now.
   Both trampolines (stack wind frames, heap driver frames) and the
   oracle's CPS [do_winds] consume this plan. *)
type wind_step =
  | Wind_done
  | Unwind of winder * winder list (* run [w_after]; chain already popped *)
  | Rewind of winder * winder list (* run [w_before]; commit node after *)

let wind_plan cur target =
  if cur == target then Wind_done
  else begin
    let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
    let lc = List.length cur and lt = List.length target in
    let rec common a b = if a == b then a else common (List.tl a) (List.tl b) in
    let base =
      common
        (if lc > lt then drop (lc - lt) cur else cur)
        (if lt > lc then drop (lt - lc) target else target)
    in
    if cur != base then
      match cur with
      | w :: rest -> Unwind (w, rest)
      | [] -> assert false
    else
      (* Rewind: the next extent to enter is the node of [target] whose
         tail is the current chain. *)
      let rec find l =
        match l with
        | w :: rest when rest == cur -> (w, l)
        | _ :: rest -> find rest
        | [] -> assert false
      in
      let w, node = find target in
      Rewind (w, node)
  end
