(* Compile-once shared prelude.

   Every session used to re-read, re-expand and re-compile the prelude
   sources (and then execute the result on its own machine) at create
   time — thousands of dispatched instructions per session before the
   first user form, multiplied by every session, including sessions
   on separate domains.  Slot-indexed globals made compiled code
   session-independent (an [Rt.code] mentions global *slots*, never a
   session's cells), and the primitive table is process-shared (so the
   [ps_guard] physical-identity checks in fused prim sites hold in
   every session): nothing in a compiled prelude is per-session any
   more.

   This module therefore builds the prelude once per configuration
   key — (scheme_winders, optimize, peephole, regalloc), the four
   switches that change the compiled stream, with regalloc read as
   false when peephole is off (it only selects a stage of that pass) —
   on a throwaway
   stack-backend machine with disabled stats, verifies the result
   ({!Bytecode.finish} once per code object, {!Verify} over the fused
   stream), executes it once, and snapshots the *global-slot delta*:
   the (slot, value) pairs the prelude execution defined.  A session
   "loads" the prelude by copying that delta into its own global
   table — no reading, no expansion, no compilation, no execution, so
   the per-session startup instruction count collapses to zero (the
   pin in test_perf_counters).

   Sharing discipline: the delta's values are closures over shared code
   objects, primitives, and immutable literals; prelude top-level
   definitions close over nothing mutable (top-level state lives in
   global cells, which are per-session by construction).  The closure
   backend's templates are compiled eagerly here, under the image lock,
   so the shared code objects' [templ] slots are written exactly once
   before any other domain can read them.

   The oracle bypasses the image: it interprets ASTs directly and
   represents procedures as [Ofun]s, so it keeps the per-session
   expansion path. *)

type t = {
  delta : (int * Rt.value) array; (* slots the prelude execution defined *)
}

(* The key: the winder protocol and the compile options the image is
   built with. *)
let lock = Mutex.create ()
let cache : (bool * Compiler.options, t) Hashtbl.t = Hashtbl.create 8
let built = ref 0

let build (scheme_winders, options) =
  let stats = Stats.create ~enabled:false () in
  let vm = Vm.create ~stats () in
  let g = Vm.globals vm in
  let before =
    Array.map
      (fun (c : Rt.global) -> (c.Rt.gval, c.Rt.gdefined))
      g.Globals.cells
  in
  let before_len = Array.length before in
  let codes =
    Compiler.compile_string ~options g
      (if scheme_winders then Prelude.source_scheme_winders
       else Prelude.source)
  in
  ignore (Vm.run_program vm codes);
  let delta = ref [] in
  Array.iteri
    (fun i (c : Rt.global) ->
      let fresh =
        i >= before_len
        ||
        let v0, d0 = before.(i) in
        (not d0) || v0 != c.Rt.gval
      in
      if c.Rt.gdefined && fresh then delta := (i, c.Rt.gval) :: !delta)
    g.Globals.cells;
  Closurevm.precompile codes;
  incr built;
  { delta = Array.of_list (List.rev !delta) }

let get ~scheme_winders ~optimize ~peephole ~regalloc =
  let key =
    ( scheme_winders,
      {
        Compiler.optimize;
        peephole;
        regalloc = peephole && regalloc;
        verify = true;
      } )
  in
  Mutex.lock lock;
  let img =
    match Hashtbl.find_opt cache key with
    | Some img -> img
    | None ->
        let img = build key in
        Hashtbl.add cache key img;
        img
  in
  Mutex.unlock lock;
  img

let install t g =
  Array.iter
    (fun (slot, v) ->
      let c = Globals.get g slot in
      c.Rt.gval <- v;
      c.Rt.gdefined <- true)
    t.delta


let builds () =
  Mutex.lock lock;
  let n = !built in
  Mutex.unlock lock;
  n
