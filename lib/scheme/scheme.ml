type backend =
  | Stack of Control.config
  | Closure of Control.config
  | Heap
  | Oracle

type machine =
  | M_stack of Vm.t
  | M_closure of Closurevm.t
  | M_heap of Heapvm.t
  | M_oracle of Oracle.t

(* A task shipped to a worker shard, and what comes back.  Everything in
   a task is either immutable OCaml data or a {!Flatvalue.t} (heap-
   detached by construction), so tasks cross domains freely. *)
type partask = {
  pt_id : int; (* chunk index; results/outputs reassemble in this order *)
  pt_mode : string; (* "map" | "for-each" | "reduce" *)
  pt_fname : string; (* global name of the task procedure *)
  pt_args : Flatvalue.t array; (* the chunk's items *)
  pt_init : Flatvalue.t option; (* reduce seed *)
}

type paroutcome = {
  po_result : (Flatvalue.t, string) result;
      (* Ok: the chunk driver's payload (result vector / reduce partial),
         serialized in the worker; Error: a rendered error message *)
  po_output : string; (* display/write output the chunk produced *)
}

type t = {
  which : backend;
  machine : machine;
  stats : Stats.t;
  optimize : bool;
  peephole : bool;
  regalloc : bool;
  verify : bool;
  hygiene : bool;
  mutable par : parpool option;
}

(* The data-parallel pool attached to a master session (par_attach).
   Workers are fully independent sessions — one per pool slot, created
   on the worker's own domain — fed through per-slot task deques.  The
   mutex guards every mutable field below; the condition variable is
   both the workers' "work arrived" signal and the master's "dispatch
   drained" signal. *)
and parpool = {
  p_jobs : int;
  p_chunk : int;
  p_steal : bool;
  p_domains : bool; (* false: tasks run inline on the calling domain *)
  p_fuel : int option;
  p_corpus : bool; (* workers preload the benchmark corpus *)
  p_backend : backend;
  p_hygiene : bool;
  p_optimize : bool;
  p_peephole : bool;
  p_regalloc : bool;
  p_verify : bool;
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_log : string list; (* master-evaluated definition forms, newest
                                  first; workers replay before each task *)
  mutable p_loglen : int;
  p_deques : partask list ref array; (* slot i's tasks, front = next own pop;
                                        steals take the back *)
  mutable p_outcomes : paroutcome option array; (* current dispatch, by id *)
  mutable p_remaining : int; (* tasks not yet completed; 0 = idle *)
  mutable p_shutdown : bool;
  mutable p_handles : unit Domain.t list;
  p_seq_workers : parworker option array; (* lazily created, p_domains=false *)
  p_shard_stats : Stats.t option array;
      (* each worker publishes its session's counter block here at
         creation; the master may read it only while the pool is idle
         (the dispatch-drained handshake under [p_lock] orders the
         worker's counter writes before the master's reads) *)
}

and parworker = { w_session : t; mutable w_replayed : int }

let eval_machine ?fuel t src =
  match t.machine with
  | M_stack vm ->
      Vm.eval ?fuel ~optimize:t.optimize ~peephole:t.peephole
        ~regalloc:t.regalloc ~verify:t.verify vm src
  | M_closure vm ->
      Closurevm.eval ?fuel ~optimize:t.optimize ~peephole:t.peephole
        ~regalloc:t.regalloc ~verify:t.verify vm src
  | M_heap vm ->
      Heapvm.eval ?fuel ~optimize:t.optimize ~peephole:t.peephole
        ~regalloc:t.regalloc ~verify:t.verify vm src
  | M_oracle o -> Oracle.eval ?fuel o src

let machine_globals = function
  | M_stack vm -> Vm.globals vm
  | M_closure vm -> Closurevm.globals vm
  | M_heap vm -> Heapvm.globals vm
  | M_oracle o -> Oracle.globals o

let create ?(backend = Stack Control.default_config) ?stats ?(prelude = true)
    ?(scheme_winders = false) ?(corpus = false) ?(optimize = false)
    ?(peephole = true) ?(regalloc = true) ?(verify = false)
    ?(hygiene = true) () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let machine =
    match backend with
    | Stack config -> M_stack (Vm.create ~config ~stats ())
    | Closure config -> M_closure (Closurevm.create ~config ~stats ())
    | Heap -> M_heap (Heapvm.create ~stats ())
    | Oracle -> M_oracle (Oracle.create ~stats ())
  in
  (match machine with
  | M_stack vm -> vm.Engine.hygiene <- hygiene
  | M_closure vm -> vm.Engine.hygiene <- hygiene
  | M_heap vm -> vm.Engine.hygiene <- hygiene
  | M_oracle o -> Oracle.set_hygiene o hygiene);
  let t =
    { which = backend; machine; stats; optimize; peephole; regalloc; verify;
      hygiene; par = None }
  in
  (if prelude then
     match machine with
     | M_oracle _ ->
         (* The oracle interprets ASTs and represents procedures as
            [Ofun]s, so it cannot consume the bytecode image. *)
         ignore
           (eval_machine t
              (if scheme_winders then Prelude.source_scheme_winders
               else Prelude.source));
         ignore (eval_machine t Parprelude.source)
     | M_stack _ | M_closure _ | M_heap _ ->
         (* Compile-once shared prelude: copy the image's global-slot
            delta instead of re-expanding/re-compiling/re-executing the
            sources — the session dispatches zero instructions before
            its first user form (pinned in test_perf_counters). *)
         Prelude_image.install
           (Prelude_image.get ~scheme_winders ~optimize ~peephole ~regalloc)
           (machine_globals machine));
  if corpus then begin
    ignore (eval_machine t Programs.all_defs);
    ignore (eval_machine t Threads.scheduler);
    ignore (eval_machine t Cml.source)
  end;
  t

let backend t = t.which

(* Worker shards rebuild the master's global environment by replaying
   its evaluation history.  Only binding forms matter for that — pure
   expressions would just redo the master's computation on every shard —
   so the log keeps a top-level form iff it (or a top-level [begin]
   wrapping it) is a definition or assignment.  Definitions produced by
   user macro calls are not recognized; DESIGN.md §15 records the
   restriction. *)
let rec par_binding_form (d : Sexp.t) =
  match d with
  | Sexp.List (Sexp.Sym (head, _) :: rest, _) -> (
      match head with
      | "define" | "define-syntax" | "set!" -> true
      | "begin" -> List.exists par_binding_form rest
      | _ -> false)
  | _ -> false

let par_log_worthy src =
  match Sexp.read_all src with
  | ds -> List.exists par_binding_form ds
  | exception _ -> true (* conservative: replay what we cannot classify *)

let eval ?fuel t src =
  let v = eval_machine ?fuel t src in
  (match t.par with
  | Some pool when par_log_worthy src ->
      Mutex.lock pool.p_lock;
      pool.p_log <- src :: pool.p_log;
      pool.p_loglen <- pool.p_loglen + 1;
      Mutex.unlock pool.p_lock
  | _ -> ());
  v

let eval_string ?fuel t src = Values.write_string (eval ?fuel t src)

(* Per-form evaluation: one already-read top-level datum, so the caller
   can attribute a failure to the datum's own source position.  The par
   replay log stores the datum re-rendered as text (positions are
   irrelevant to replay). *)
let eval_datum ?fuel t d =
  let v =
    match t.machine with
    | M_stack vm ->
        Vm.eval_datum ?fuel ~optimize:t.optimize ~peephole:t.peephole
          ~regalloc:t.regalloc ~verify:t.verify vm d
    | M_closure vm ->
        Closurevm.eval_datum ?fuel ~optimize:t.optimize ~peephole:t.peephole
          ~regalloc:t.regalloc ~verify:t.verify vm d
    | M_heap vm ->
        Heapvm.eval_datum ?fuel ~optimize:t.optimize ~peephole:t.peephole
          ~regalloc:t.regalloc ~verify:t.verify vm d
    | M_oracle o -> Oracle.eval_datum ?fuel o d
  in
  (match t.par with
  | Some pool when par_binding_form d ->
      Mutex.lock pool.p_lock;
      pool.p_log <- Sexp.to_string d :: pool.p_log;
      pool.p_loglen <- pool.p_loglen + 1;
      Mutex.unlock pool.p_lock
  | _ -> ());
  v

let load_corpus t =
  ignore (eval_machine t Programs.all_defs);
  ignore (eval_machine t Threads.scheduler);
  ignore (eval_machine t Cml.source)

let output t =
  match t.machine with
  | M_stack vm -> Vm.output vm
  | M_closure vm -> Closurevm.output vm
  | M_heap vm -> Heapvm.output vm
  | M_oracle o -> Oracle.output o

let take_output t =
  match t.machine with
  | M_stack vm -> Vm.take_output vm
  | M_closure vm -> Closurevm.take_output vm
  | M_heap vm -> Heapvm.take_output vm
  | M_oracle o -> Oracle.take_output o

let stats t = t.stats

let control t =
  match t.machine with
  | M_stack vm -> Some (Vm.control vm)
  | M_closure vm -> Some (Closurevm.control vm)
  | _ -> None

let globals t = machine_globals t.machine

(* ------------------------------------------------------------------ *)
(* Data-parallel pool (par-map / par-reduce / par-for-each)            *)
(* ------------------------------------------------------------------ *)

(* A worker shard is a fresh, fully independent session on the pool's
   backend (the oracle master gets stack workers: task execution is an
   engine feature).  Counters reset after the prelude/corpus load, as in
   {!Pool.run_shard}, so a shard's stats describe its tasks alone. *)
let par_worker_session pool i =
  let stats = Stats.create () in
  let backend =
    match pool.p_backend with Oracle -> Stack Control.default_config | b -> b
  in
  let s =
    create ~backend ~stats ~optimize:pool.p_optimize ~peephole:pool.p_peephole
      ~regalloc:pool.p_regalloc ~verify:pool.p_verify
      ~hygiene:pool.p_hygiene ()
  in
  if pool.p_corpus then load_corpus s;
  Stats.reset stats;
  Mutex.lock pool.p_lock;
  pool.p_shard_stats.(i) <- Some stats;
  Mutex.unlock pool.p_lock;
  { w_session = s; w_replayed = 0 }

(* Bring a worker's globals up to date with the master's definition log.
   Replay is bookkeeping, not task work: its counters are cancelled with
   a snapshot/restore so per-shard stats stay comparable across
   distributions.  A replay error is swallowed — the form succeeded on
   the master, and a worker that cannot rebuild one binding should still
   run tasks that never touch it. *)
let par_replay pool w =
  Mutex.lock pool.p_lock;
  let log = pool.p_log and len = pool.p_loglen in
  Mutex.unlock pool.p_lock;
  if len > w.w_replayed then begin
    let snap = Stats.copy (stats w.w_session) in
    let fresh = List.filteri (fun i _ -> i < len - w.w_replayed) log in
    List.iter
      (fun src ->
        try ignore (eval ?fuel:pool.p_fuel w.w_session src) with _ -> ())
      (List.rev fresh);
    w.w_replayed <- len;
    Stats.blit ~src:snap ~dst:(stats w.w_session)
  end

(* Run one chunk on a worker session.  The per-chunk discipline exists
   for counter determinism: the segment cache is dropped before every
   chunk, so a chunk's deterministic counters (instrs, words-copied,
   seg-alloc-words) do not depend on which chunks happened to warm this
   worker earlier — that is what makes no-steal shard counters sum
   exactly to a 1-worker run's, the identity bench e9 asserts. *)
let par_exec_task pool w (task : partask) =
  par_replay pool w;
  let s = w.w_session in
  let st = stats s in
  if st.Stats.enabled then st.Stats.par_tasks <- st.Stats.par_tasks + 1;
  (match control s with Some c -> Control.clear_cache c | None -> ());
  Globals.define (globals s) "%par-args"
    (Rt.Vec (Array.map Flatvalue.deserialize task.pt_args));
  (match task.pt_init with
  | Some fv -> Globals.define (globals s) "%par-init" (Flatvalue.deserialize fv)
  | None -> ());
  let out_before = String.length (output s) in
  let sanitize () =
    (* After an abnormal exit the chunk's preemption timer may still be
       armed; disarm it so it cannot fire into a dead scheduler during
       the next chunk.  (The in-band error path already disarms.) *)
    try ignore (eval s "(%set-timer! 0 #f)") with _ -> ()
  in
  let result =
    match
      eval ?fuel:pool.p_fuel s
        (Printf.sprintf "(%%par-run-chunk (quote %s) %s)" task.pt_mode
           task.pt_fname)
    with
    | Rt.Vec [| Rt.Sym tag; payload |] when String.equal tag "%par-ok" -> (
        try Ok (Flatvalue.serialize payload) with
        | Flatvalue.Not_flat v ->
            Error
              ("par: non-flat value crossing shard boundary: "
              ^ Flatvalue.describe v)
        | Flatvalue.Too_large ->
            Error "par: value too large to cross shard boundary")
    | Rt.Vec [| Rt.Sym tag; msg |] when String.equal tag "%par-error" ->
        Error (Values.display_string msg)
    | v -> Error ("par: malformed chunk result: " ^ Values.write_string v)
    | exception Rt.Scheme_error (msg, _) ->
        sanitize ();
        Error msg
    | exception Rt.Shot_continuation ->
        sanitize ();
        Error "par: one-shot continuation reinvoked in worker task"
    | exception Engine.Vm_fuel_exhausted ->
        sanitize ();
        Error "par: fuel exhausted in worker task"
    | exception e ->
        sanitize ();
        Error ("par: worker failure: " ^ Printexc.to_string e)
  in
  let out_after = output s in
  {
    po_result = result;
    po_output =
      String.sub out_after out_before (String.length out_after - out_before);
  }

type par_next = P_shutdown | P_task of partask * bool | P_wait

(* Called with the pool lock held.  Own deque pops the front; stealing
   scans the other slots round-robin from the right neighbour and takes
   the *back* of the first non-empty deque (the classic work-stealing
   end split: owners and thieves contend on opposite ends). *)
let par_take pool i =
  if pool.p_shutdown then P_shutdown
  else
    let dq = pool.p_deques.(i) in
    match !dq with
    | task :: rest ->
        dq := rest;
        P_task (task, false)
    | [] ->
        if pool.p_steal && pool.p_remaining > 0 then begin
          let found = ref P_wait in
          let k = ref 0 in
          while
            (match !found with P_wait -> true | _ -> false)
            && !k < pool.p_jobs - 1
          do
            let j = (i + 1 + !k) mod pool.p_jobs in
            (match !(pool.p_deques.(j)) with
            | [] -> ()
            | l ->
                let rev = List.rev l in
                pool.p_deques.(j) := List.rev (List.tl rev);
                found := P_task (List.hd rev, true));
            incr k
          done;
          !found
        end
        else P_wait

let par_worker_loop pool i =
  let w = par_worker_session pool i in
  let rec loop () =
    Mutex.lock pool.p_lock;
    let rec get () =
      match par_take pool i with
      | P_shutdown -> None
      | P_task (t, stolen) -> Some (t, stolen)
      | P_wait ->
          Condition.wait pool.p_cond pool.p_lock;
          get ()
    in
    let next = get () in
    Mutex.unlock pool.p_lock;
    match next with
    | None -> ()
    | Some (task, stolen) ->
        let st = stats w.w_session in
        if stolen && st.Stats.enabled then
          st.Stats.par_steals <- st.Stats.par_steals + 1;
        let outcome = par_exec_task pool w task in
        Mutex.lock pool.p_lock;
        pool.p_outcomes.(task.pt_id) <- Some outcome;
        pool.p_remaining <- pool.p_remaining - 1;
        if pool.p_remaining = 0 then Condition.broadcast pool.p_cond;
        Mutex.unlock pool.p_lock;
        loop ()
  in
  loop ()

(* Master side: resolve the task procedure to a global name.  Closures
   cannot cross domains (they close over one session's heap), so tasks
   name their procedure through the global table and each shard looks
   the name up in its own replayed environment — the deliberate
   restriction DESIGN.md §15 records as the stepping stone to migratable
   continuations.  Primitives ship by their own name. *)
let par_proc_name t v =
  match v with
  | Rt.Prim p -> p.Rt.pname
  | Rt.Closure _ | Rt.Ofun _ -> (
      let found =
        Globals.fold
          (fun name (cell : Rt.global) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if cell.Rt.gdefined && cell.Rt.gval == v then Some name
                else None)
          (globals t) None
      in
      match found with
      | Some name -> name
      | None ->
          raise
            (Rt.Scheme_error
               ( "par: task procedure must be globally named to cross shards",
                 [ v ] )))
  | v -> raise (Rt.Scheme_error ("par: not a procedure", [ v ]))

let par_serialize v =
  try Flatvalue.serialize v with
  | Flatvalue.Not_flat nf ->
      raise
        (Rt.Scheme_error
           ( "par: non-flat value crossing shard boundary: "
             ^ Flatvalue.describe nf,
             [] ))
  | Flatvalue.Too_large ->
      raise (Rt.Scheme_error ("par: value too large to cross shard boundary", []))

(* Split the serialized items into chunk tasks of [p_chunk] items.  The
   chunk size never depends on [jobs]: chunk contents (and so each
   chunk's deterministic counter footprint) are distribution-invariant,
   which is what makes shard counters sum identically at any pool
   width. *)
let par_make_tasks pool mode fname init flat_items =
  let chunk = pool.p_chunk in
  let rec go id acc cur n = function
    | [] ->
        let acc =
          if cur = [] then acc
          else
            {
              pt_id = id;
              pt_mode = mode;
              pt_fname = fname;
              pt_args = Array.of_list (List.rev cur);
              pt_init = init;
            }
            :: acc
        in
        List.rev acc
    | x :: rest ->
        if n = chunk then
          go (id + 1)
            ({
               pt_id = id;
               pt_mode = mode;
               pt_fname = fname;
               pt_args = Array.of_list (List.rev cur);
               pt_init = init;
             }
            :: acc)
            [ x ] 1 rest
        else go id acc (x :: cur) (n + 1) rest
  in
  go 0 [] [] 0 flat_items

(* The master's dispatch: a *pure* primitive, so it runs inline in the
   dispatch loop with no frame and may block — the master VM is never
   re-entered while it waits.  Tasks are dealt round-robin (task i to
   slot i mod jobs); with stealing off that assignment is final, which
   is the deterministic mode counter pinning relies on. *)
let par_dispatch t pool emit args =
  let mode =
    match args.(0) with
    | Rt.Sym m -> m
    | v -> raise (Rt.Scheme_error ("par: mode must be a symbol", [ v ]))
  in
  let f, init, xs =
    match (mode, args) with
    | ("map" | "for-each"), [| _; f; xs |] -> (f, None, xs)
    | "reduce", [| _; op; init; xs |] -> (op, Some init, xs)
    | ("map" | "for-each" | "reduce"), _ ->
        raise
          (Rt.Scheme_error ("par: wrong number of arguments for " ^ mode, []))
    | _ -> raise (Rt.Scheme_error ("par: unknown mode " ^ mode, []))
  in
  let fname = par_proc_name t f in
  let items =
    match Values.list_of_value_opt xs with
    | Some l -> l
    | None -> raise (Rt.Scheme_error ("par: expected a proper list", [ xs ]))
  in
  if items = [] then Rt.Nil
  else begin
    let init_flat = Option.map par_serialize init in
    let flat = List.map par_serialize items in
    let tasks = par_make_tasks pool mode fname init_flat flat in
    let ntasks = List.length tasks in
    let outcomes = Array.make ntasks None in
    let per_slot = Array.make pool.p_jobs [] in
    List.iter
      (fun task ->
        let slot = task.pt_id mod pool.p_jobs in
        per_slot.(slot) <- task :: per_slot.(slot))
      (List.rev tasks);
    if pool.p_domains then begin
      Mutex.lock pool.p_lock;
      Array.iteri (fun i dq -> dq := per_slot.(i)) pool.p_deques;
      pool.p_outcomes <- outcomes;
      pool.p_remaining <- ntasks;
      Condition.broadcast pool.p_cond;
      while pool.p_remaining > 0 do
        Condition.wait pool.p_cond pool.p_lock
      done;
      Mutex.unlock pool.p_lock
    end
    else
      (* Sequential mode: the same slots, sessions and per-slot task
         order, executed inline on the calling domain — the reference
         the e9/CI zero-tolerance counter identity compares against. *)
      for i = 0 to pool.p_jobs - 1 do
        let w =
          match pool.p_seq_workers.(i) with
          | Some w -> w
          | None ->
              let w = par_worker_session pool i in
              pool.p_seq_workers.(i) <- Some w;
              w
        in
        List.iter
          (fun task -> outcomes.(task.pt_id) <- Some (par_exec_task pool w task))
          per_slot.(i)
      done;
    (* Reassemble in chunk order: outputs append in order; the first
       failed chunk (lowest id) raises; map concatenates the chunk
       result vectors; reduce returns the list of partials for the
       Scheme-side fold. *)
    let payloads =
      Array.map
        (function
          | Some o -> o
          | None -> { po_result = Error "par: lost chunk"; po_output = "" })
        outcomes
    in
    let collected =
      Array.to_list payloads
      |> List.map (fun o ->
             match o.po_result with
             | Ok flat ->
                 emit o.po_output;
                 Flatvalue.deserialize flat
             | Error msg -> raise (Rt.Scheme_error (msg, [])))
    in
    match mode with
    | "map" ->
        Values.list_to_value
          (List.concat_map
             (fun payload ->
               match payload with
               | Rt.Vec a -> Array.to_list a
               | v -> [ v ])
             collected)
    | "reduce" -> Values.list_to_value collected
    | _ -> Rt.Void
  end

let par_define_pure t name parity fn =
  Globals.define (globals t) name (Rt.Prim (snd (Prims.pure name parity fn)))

let par_attach ?(chunk = 2) ?(steal = true) ?(domains = true) ?fuel
    ?(corpus = false) ~jobs t =
  if t.par <> None then invalid_arg "Scheme.par_attach: pool already attached";
  let jobs = max 1 jobs in
  let chunk = max 1 chunk in
  let pool =
    {
      p_jobs = jobs;
      p_chunk = chunk;
      p_steal = steal;
      p_domains = domains;
      p_fuel = fuel;
      p_corpus = corpus;
      p_backend = t.which;
      p_hygiene = t.hygiene;
      p_optimize = t.optimize;
      p_peephole = t.peephole;
      p_regalloc = t.regalloc;
      p_verify = t.verify;
      p_lock = Mutex.create ();
      p_cond = Condition.create ();
      p_log = [];
      p_loglen = 0;
      p_deques = Array.init jobs (fun _ -> ref []);
      p_outcomes = Array.make 0 None;
      p_remaining = 0;
      p_shutdown = false;
      p_handles = [];
      p_seq_workers = Array.make jobs None;
      p_shard_stats = Array.make jobs None;
    }
  in
  t.par <- Some pool;
  if domains then
    pool.p_handles <-
      List.init jobs (fun i -> Domain.spawn (fun () -> par_worker_loop pool i));
  (* Rebind the session's par primitives over the pool — the same
     overwrite mechanism Engine.create uses for the timer accessors.
     [emit] is the master's own raw-output primitive, captured once so
     worker output can be appended to the master buffer without
     re-entering the VM. *)
  let emit =
    match Globals.lookup_opt (globals t) "%par-emit" with
    | Some (Rt.Prim { Rt.pfn = Pure { fn1; _ }; _ }) ->
        fun s -> if s <> "" then ignore (fn1 (Rt.Str (Bytes.of_string s)))
    | _ -> fun _ -> ()
  in
  let jobs_v = Values.of_int jobs and chunk_v = Values.of_int chunk in
  par_define_pure t "%par-jobs" (Exactly 0) (fun _ -> jobs_v);
  par_define_pure t "%par-chunk" (Exactly 0) (fun _ -> chunk_v);
  par_define_pure t "%par-dispatch" (At_least 3) (fun args ->
      par_dispatch t pool emit args)

let par_shutdown t =
  match t.par with
  | None -> ()
  | Some pool ->
      t.par <- None;
      (* Restore the inert defaults so later evals take the serial
         fallback instead of dispatching into a dead pool. *)
      par_define_pure t "%par-jobs" (Exactly 0) (fun _ -> Rt.Int 0);
      par_define_pure t "%par-chunk" (Exactly 0) (fun _ -> Rt.Int 1);
      par_define_pure t "%par-dispatch" (At_least 3) (fun _ ->
          Values.err "par: no pool attached to this session" []);
      Mutex.lock pool.p_lock;
      pool.p_shutdown <- true;
      Condition.broadcast pool.p_cond;
      Mutex.unlock pool.p_lock;
      List.iter Domain.join pool.p_handles

(* Per-shard counter blocks in slot order: the bench (e9) and tests read
   these for the no-steal identity checks.  Only meaningful while the
   pool is idle — the dispatch handshake under [p_lock] orders every
   worker counter write before the master's return from dispatch.  A
   slot that has not executed yet (domain worker still starting up, or
   lazy sequential worker) reads as [None]. *)
let par_shard_stats t =
  match t.par with
  | None -> [||]
  | Some pool ->
      Mutex.lock pool.p_lock;
      let a = Array.copy pool.p_shard_stats in
      Mutex.unlock pool.p_lock;
      a

(* ------------------------------------------------------------------ *)
(* Session pools                                                       *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type shard = {
    shard : int;
    value : Rt.value;
    output : string;
    stats : Stats.t;
  }

  (* One shard = one fully independent session: its own Stats.t, global
     table, macro environment, output buffer and (for the stack backend)
     segmented-stack machine with its own segment cache.  Nothing is
     shared between shards except the interned symbol table, which
     {!Rt.intern} guards with a mutex — that independence is what makes
     the domain spawn below safe, and what the engine test-suite's
     interleaving tests pin down.  Counters are reset after the
     prelude/corpus load so each shard reports the measured program
     alone, making per-shard counters comparable with a single
     sequential session running the same source. *)
  let run_shard ~backend ~fuel ~corpus ~optimize ~peephole ~regalloc ~verify
      ~hygiene i src =
    let stats = Stats.create () in
    let t =
      create ~backend ~stats ~optimize ~peephole ~regalloc ~verify ~hygiene ()
    in
    if corpus then load_corpus t;
    Stats.reset stats;
    let value = eval ?fuel t src in
    { shard = i; value; output = output t; stats }

  let run ?(backend = Stack Control.default_config) ?fuel ?(corpus = false)
      ?(optimize = false) ?(peephole = true) ?(regalloc = true)
      ?(verify = false) ?(hygiene = true) ?domains ~jobs
      src =
    let jobs = max 1 jobs in
    let parallel = match domains with Some b -> b | None -> jobs > 1 in
    let go i =
      run_shard ~backend ~fuel ~corpus ~optimize ~peephole ~regalloc ~verify
        ~hygiene i src
    in
    let idx = List.init jobs Fun.id in
    if parallel then
      (* Spawn all shards, then join in order: aggregate throughput
         scales with the machine's cores while the result list stays
         deterministic. *)
      List.map Domain.join (List.map (fun i -> Domain.spawn (fun () -> go i)) idx)
    else List.map go idx
end
