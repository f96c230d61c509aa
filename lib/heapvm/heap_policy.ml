open Rt
open Engine

(* The heap frame policy (the Appel/MacQueen-style baseline),
   instantiating the engine's dispatch loop ([Heap_core], generated from
   lib/engine/engine_core.ml).  Each frame is a separately allocated
   record linked to its parent; capture is O(1) pointer sharing and
   shared frames are copied on write.  The policy owns the frame
   allocator, the copy-on-write discipline, the one-shot guard lists,
   and every control transfer. *)

type state = { mutable frame : hframe }

type t = state Engine.vm

(* Landing constants: every call, tail call and return moves to a
   different slot array, so control transfers always relaunch; a [Call]
   counts the frame its generic path allocates even for a pure
   primitive. *)
let fast = false
let frames_on_pure_call = true

let slots (vm : t) = vm.pol.frame.hslots
let frame_base (_ : t) = 0

(* A heap frame is allocated at the full extent its code can touch, so
   the Enter/Return room tests never fail. *)
let limit (_ : t) = max_int
let set_fp (_ : t) (_ : int) = ()

let root_frame () =
  { hslots = [||]; hret = Void; hparent = None; hshared = false; hguards = [] }

let alloc_frame vm ~words ~ret ~parent ~guards =
  vm.stats.Stats.heap_frames <- vm.stats.Stats.heap_frames + 1;
  vm.stats.Stats.heap_frame_words <- vm.stats.Stats.heap_frame_words + words;
  {
    hslots = Array.make words Void;
    hret = ret;
    hparent = parent;
    hshared = false;
    hguards = guards;
  }

(* Copy-on-write: frames reachable from a multi-shot continuation are
   immutable; the running computation writes into a private copy. *)
let writable (vm : t) =
  let f = vm.pol.frame in
  if not f.hshared then f
  else begin
    vm.stats.Stats.cow_copies <- vm.stats.Stats.cow_copies + 1;
    let f' = { f with hslots = Array.copy f.hslots; hshared = false } in
    vm.pol.frame <- f';
    f'
  end

(* A slot write goes through the copy-on-write check and returns the
   (possibly fresh) array the landing must continue on. *)
let[@inline] set (vm : t) (_ : value array) fp i v =
  let f = writable vm in
  f.hslots.(fp + i) <- v;
  f.hslots

let pure_call_skips (vm : t) site = site.cs_ret == vm.pol.frame.hret

let consume_guards guards =
  List.iter
    (fun h ->
      if not h.hcont_promoted then
        if h.hcont_shot then raise Shot_continuation else h.hcont_shot <- true)
    guards

let do_return (vm : t) =
  let f = vm.pol.frame in
  consume_guards f.hguards;
  match f.hret with
  | Retaddr r -> (
      vm.code <- r.rcode;
      vm.pc <- r.rpc;
      match f.hparent with
      | Some p ->
          (* Shared-ness propagates downward as control returns, keeping
             captured ancestors copy-on-write. *)
          if f.hshared then p.hshared <- true;
          vm.pol.frame <- p
      | None -> ())
  | v -> Values.err "heapvm: corrupt frame: bad return slot" [ v ]

(* Promote every one-shot continuation a [call/cc] capture reaches.  A
   promoted continuation can be re-entered, so its frame becomes
   copy-on-write, as [Sp_callcc] makes its own parent: otherwise the
   code running after the first re-entry overwrites the slots a later
   one resumes in. *)
let promote_guard h =
  h.hcont_promoted <- true;
  match h.hcont_frame with Some f -> f.hshared <- true | None -> ()

let promote_guards_from frame_opt extra =
  List.iter promote_guard extra;
  let rec walk = function
    | None -> ()
    | Some f ->
        List.iter promote_guard f.hguards;
        walk f.hparent
  in
  walk frame_opt

let rec happly (vm : t) f args ~ret ~parent ~guards =
  match f with
  | Closure c ->
      let n = Array.length args in
      let words = max c.code.frame_words (2 + n) in
      let fr = alloc_frame vm ~words ~ret ~parent ~guards in
      fr.hslots.(1) <- f;
      Array.blit args 0 fr.hslots 2 n;
      vm.pol.frame <- fr;
      vm.code <- c.code;
      vm.pc <- 0;
      vm.nargs <- n;
      if vm.stats.Stats.enabled then
        vm.stats.Stats.calls <- vm.stats.Stats.calls + 1
  | Prim { pfn = Pure { fn; _ }; parity; pname } ->
      check_prim vm parity pname (Array.length args);
      vm.acc <- fn args;
      (* A tail call passes the caller's own return context; returning
         through it also consumes any one-shot guards. *)
      if ret == vm.pol.frame.hret then do_return vm
  | Prim { pfn = Special sp; parity; pname } ->
      check_prim vm parity pname (Array.length args);
      special vm sp args ~ret ~parent ~guards
  | Hcont k -> invoke_hcont vm k args
  | v -> Values.err "application of non-procedure" [ v ]

and invoke_hcont vm k args =
  let v = values_of args 0 (Array.length args) in
  (* Fast path: the machine already sits at the continuation's winder
     chain (physical equality; with the Scheme-level winders prelude
     both are always []).  Otherwise run the wind trampoline; the shot
     check then fires only after the winds, as in the Scheme wrapper. *)
  if k.hcont_winders == vm.winders then reinstate_hcont vm k v
  else
    wind_go vm (Hcont k) v k.hcont_winders
      ~ret:(Retaddr { rcode = vm.code; rpc = vm.pc; rdisp = 0 })
      ~parent:(Some vm.pol.frame) ~guards:[]

and reinstate_hcont vm k v =
  if k.hcont_one_shot && not k.hcont_promoted then begin
    if k.hcont_shot then raise Shot_continuation;
    k.hcont_shot <- true;
    vm.stats.Stats.invokes_oneshot <- vm.stats.Stats.invokes_oneshot + 1
  end
  else vm.stats.Stats.invokes_multi <- vm.stats.Stats.invokes_multi + 1;
  vm.acc <- v;
  (match k.hcont_frame with
  | Some f -> vm.pol.frame <- f
  | None -> vm.pol.frame <- root_frame ());
  match k.hcont_ret with
  | Retaddr r ->
      vm.code <- r.rcode;
      vm.pc <- r.rpc
  | v -> Values.err "heapvm: corrupt continuation" [ v ]

(* Call a 0-argument guard thunk so that its return resumes [ret]
   (pointing into one of the hidden resume code objects) against the
   driver frame [frame].  A pure primitive pushes no frame and returns
   by falling through, so it is stepped inline to the same state a
   closure's normal return would reach. *)
and call_guard vm g ~ret ~frame =
  match g with
  | Prim { pfn = Pure { fn; _ }; parity; pname } ->
      check_prim vm parity pname 0;
      vm.acc <- fn [||];
      vm.pol.frame <- frame;
      (match ret with
      | Retaddr r ->
          vm.code <- r.rcode;
          vm.pc <- r.rpc
      | v -> Values.err "heapvm: corrupt wind return" [ v ])
  | _ -> happly vm g [||] ~ret ~parent:(Some frame) ~guards:[]

(* One wind-trampoline step: move [vm.winders] one extent toward
   [target], running the appropriate guard, or reinstate [kv] with
   [payload] when the chains meet.  Each step allocates a fresh driver
   frame mirroring the stack VM's wind-frame layout
   ([_][%wind][k][payload][target][pending]); the guard returns through
   [Prims.wind_ret], whose single instruction tail-calls back into
   [Sp_wind] with the slots as arguments and the original
   [ret]/[parent]/[guards] context propagated through the frame.  The
   chain arithmetic is {!Engine.wind_plan}'s. *)
and wind_go vm kv payload target ~ret ~parent ~guards =
  match Engine.wind_plan vm.winders target with
  | Wind_done -> (
      match kv with
      | Hcont k -> reinstate_hcont vm k payload
      | v -> Values.err "heapvm: corrupt wind frame" [ v ])
  | plan ->
      let thunk, pending =
        match plan with
        | Unwind (w, rest) ->
            vm.winders <- rest;
            (w.w_after, Bool false)
        | Rewind (w, node) -> (w.w_before, WindersV node)
        | Wind_done -> assert false
      in
      let fr = alloc_frame vm ~words:6 ~ret ~parent ~guards in
      fr.hslots.(1) <- Prim Prims.wind_prim;
      fr.hslots.(2) <- kv;
      fr.hslots.(3) <- payload;
      fr.hslots.(4) <- WindersV target;
      fr.hslots.(5) <- pending;
      call_guard vm thunk ~ret:Prims.wind_ret ~frame:fr

and special vm sp args ~ret ~parent ~guards =
  match sp with
  | Sp_callcc ->
      let p = Prims.check_procedure "%call/cc" args.(0) in
      let k =
        Hcont
          {
            hcont_frame = parent;
            hcont_ret = ret;
            hcont_one_shot = false;
            hcont_shot = false;
            hcont_promoted = true;
            hcont_winders = vm.winders;
          }
      in
      (match parent with Some f -> f.hshared <- true | None -> ());
      promote_guards_from parent guards;
      vm.stats.Stats.captures_multi <- vm.stats.Stats.captures_multi + 1;
      happly vm p [| k |] ~ret ~parent ~guards
  | Sp_call1cc ->
      let p = Prims.check_procedure "%call/1cc" args.(0) in
      let hc =
        {
          hcont_frame = parent;
          hcont_ret = ret;
          hcont_one_shot = true;
          hcont_shot = false;
          hcont_promoted = false;
          hcont_winders = vm.winders;
        }
      in
      vm.stats.Stats.captures_oneshot <- vm.stats.Stats.captures_oneshot + 1;
      happly vm p [| Hcont hc |] ~ret ~parent ~guards:(hc :: guards)
  | Sp_apply ->
      let f = Prims.check_procedure "apply" args.(0) in
      let n = Array.length args in
      let fixed = Array.sub args 1 (n - 2) in
      let last = Values.list_of_value args.(n - 1) in
      let all = Array.append fixed (Array.of_list last) in
      happly vm f all ~ret ~parent ~guards
  | Sp_values ->
      vm.acc <- values_of args 0 (Array.length args);
      return_to vm ~ret ~parent ~guards
  | Sp_backtrace ->
      let rec walk acc count (f : hframe option) =
        match f with
        | Some fr when count < 64 -> (
            match fr.hret with
            | Retaddr r -> walk (r.rcode.cname :: acc) (count + 1) fr.hparent
            | _ -> acc)
        | _ -> acc
      in
      (* Include the resume point first, then the parent chain. *)
      let first = match ret with Retaddr r -> [ r.rcode.cname ] | _ -> [] in
      vm.acc <-
        Values.list_to_value
          (List.map (fun n -> sym n) (first @ List.rev (walk [] 0 parent)));
      return_to vm ~ret ~parent ~guards
  | Sp_eval ->
      let code =
        Compiler.compile_eval ~options:vm.options ~menv:vm.menv vm.globals
          args.(0)
      in
      happly vm (Closure { code; frees = [||] }) [||] ~ret ~parent ~guards
  | Sp_stats ->
      vm.acc <- stat vm args.(0);
      return_to vm ~ret ~parent ~guards
  | Sp_dynamic_wind -> (
      (* Entry carries 3 arguments; resumptions re-enter through
         [Prims.dw_resume_code] with 5 ([state] at index 3, [saved] at
         4).  Each step allocates a fresh driver frame mirroring the
         stack VM's layout; the frame's ret/parent/guards carry the
         original call context, which the resume code's tail-call
         propagates back here and state 3 finally returns through. *)
      let n = Array.length args in
      let state =
        if n = 3 then 0
        else if n = 5 then
          match args.(3) with
          | Int s -> s
          | v -> Values.err "heapvm: corrupt %dynamic-wind frame" [ v ]
        else Values.err "%dynamic-wind: expected 3 arguments" []
      in
      let before = args.(0) and thunk = args.(1) and after = args.(2) in
      let saved = if n = 3 then Void else args.(4) in
      match state with
      | 0 | 1 | 2 ->
          let fr = alloc_frame vm ~words:7 ~ret ~parent ~guards in
          fr.hslots.(1) <- Prim Prims.dw_prim;
          fr.hslots.(2) <- before;
          fr.hslots.(3) <- thunk;
          fr.hslots.(4) <- after;
          fr.hslots.(5) <- Values.of_int state;
          fr.hslots.(6) <- saved;
          let g, r =
            match state with
            | 0 -> (before, Prims.dw_ret_before)
            | 1 ->
                (* before returned: enter the extent, run the thunk *)
                vm.winders <-
                  { w_before = before; w_after = after } :: vm.winders;
                (thunk, Prims.dw_ret_thunk)
            | _ ->
                (* thunk returned ([saved] holds its value): leave the
                   extent before running the after thunk *)
                (match vm.winders with
                | _ :: rest -> vm.winders <- rest
                | [] -> ());
                (after, Prims.dw_ret_after)
          in
          call_guard vm g ~ret:r ~frame:fr
      | 3 ->
          vm.acc <- saved;
          return_to vm ~ret ~parent ~guards
      | _ -> Values.err "heapvm: corrupt %dynamic-wind frame" [ args.(3) ])
  | Sp_wind ->
      (* Guard return re-entering the wind trampoline. *)
      if Array.length args <> 4 then Values.err "%wind: internal primitive" [];
      (match args.(3) with
      | WindersV w ->
          (* A before thunk just returned: commit its extent. *)
          vm.winders <- w
      | _ -> ());
      let target =
        match args.(2) with
        | WindersV w -> w
        | v -> Values.err "heapvm: corrupt wind frame" [ v ]
      in
      wind_go vm args.(0) args.(1) target ~ret ~parent ~guards

(* Return a value through an explicit (ret, parent, guards) context, as a
   primitive in tail position does. *)
and return_to vm ~ret ~parent ~guards =
  consume_guards guards;
  match ret with
  | Retaddr r -> (
      vm.code <- r.rcode;
      vm.pc <- r.rpc;
      match parent with
      | Some p -> vm.pol.frame <- p
      | None -> ())
  | v -> Values.err "heapvm: corrupt return context" [ v ]

(* ------------------------------------------------------------------ *)
(* Engine transfer hooks                                               *)
(* ------------------------------------------------------------------ *)

(* Slow-path [Call] (every heap call: frames are linked, never
   contiguous) and a fused site's deoptimized call.  The engine has synced
   and counted the frame; [ret] is the statically interned return address
   of the site (rcode = the running code object, rpc = the fall-through
   pc); the heap VM ignores [rdisp]. *)
let call (vm : t) ~disp ~ret ~nargs f =
  let slots = vm.pol.frame.hslots in
  let args = Array.init nargs (fun i -> slots.(disp + 2 + i)) in
  happly vm f args ~ret ~parent:(Some vm.pol.frame) ~guards:[]

let tail_call (vm : t) ~disp ~nargs f =
  let cur = vm.pol.frame in
  let slots = cur.hslots in
  let args = Array.init nargs (fun i -> slots.(disp + 2 + i)) in
  (* Abandoning a captured frame exposes its parent to the capturing
     continuation: keep the parent copy-on-write. *)
  (if cur.hshared then
     match cur.hparent with Some p -> p.hshared <- true | None -> ());
  happly vm f args ~ret:cur.hret ~parent:cur.hparent ~guards:cur.hguards

(* ------------------------------------------------------------------ *)
(* Procedure entry and the timer                                       *)
(* ------------------------------------------------------------------ *)

(* The heap frame was allocated at full size, so no room check: the
   timer's handler call links a frame whose return resumes at the
   interned address ([rdisp] is 0, heap frames carry no
   displacement). *)
let fire_timer (vm : t) =
  happly vm vm.timer_handler [||]
    ~ret:(timer_ret vm.code vm.pc 0)
    ~parent:(Some vm.pol.frame) ~guards:[]

let enter (vm : t) =
  let c = vm.code in
  let n = vm.nargs in
  check_arity c n;
  collect_rest c n vm.pol.frame.hslots 2;
  if tick vm then fire_timer vm

(* ------------------------------------------------------------------ *)
(* Error-handler injection, machine setup                              *)
(* ------------------------------------------------------------------ *)

let inject_error_handler (vm : t) handler msg irritants =
  happly vm handler
    [| Str (Bytes.of_string msg); Values.list_to_value irritants |]
    ~ret:(Retaddr { rcode = vm.code; rpc = vm.pc; rdisp = 0 })
    ~parent:(Some vm.pol.frame) ~guards:[]

let init_run (vm : t) code =
  let root = root_frame () in
  let fr =
    alloc_frame vm ~words:(max code.frame_words 2)
      ~ret:(Retaddr { rcode = Engine.halt_code; rpc = 0; rdisp = 0 })
      ~parent:(Some root) ~guards:[]
  in
  fr.hslots.(1) <- Closure { code; frees = [||] };
  vm.pol.frame <- fr

let create ?stats ?options () : t =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Engine.create ~stats ?options { frame = root_frame () }
