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

type t = { which : backend; machine : machine; stats : Stats.t }

let eval ?fuel t src =
  match t.machine with
  | M_stack vm -> Vm.eval ?fuel vm src
  | M_closure vm -> Closurevm.eval ?fuel vm src
  | M_heap vm -> Heapvm.eval ?fuel vm src
  | M_oracle o -> Oracle.eval ?fuel o src

let load_corpus t =
  ignore (eval t Programs.all_defs);
  ignore (eval t Threads.scheduler);
  ignore (eval t Cml.source)

let machine_globals = function
  | M_stack vm | M_closure vm -> Engine.globals vm
  | M_heap vm -> Heapvm.globals vm
  | M_oracle o -> Oracle.globals o

let create ?(backend = Stack Control.default_config) ?stats
    ?(scheme_winders = false) ?(corpus = false)
    ?(options = Compiler.default_options) () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let machine =
    match backend with
    | Stack config -> M_stack (Vm.create ~config ~stats ~options ())
    | Closure config -> M_closure (Closurevm.create ~config ~stats ~options ())
    | Heap -> M_heap (Heapvm.create ~stats ~options ())
    | Oracle -> M_oracle (Oracle.create ~stats ())
  in
  let t = { which = backend; machine; stats } in
  (match machine with
  | M_oracle _ ->
      (* The oracle interprets ASTs and represents procedures as
         [Ofun]s, so it cannot consume the bytecode image. *)
      ignore
        (eval t
           (if scheme_winders then Prelude.source_scheme_winders
            else Prelude.source))
  | M_stack _ | M_closure _ | M_heap _ ->
      (* Compile-once shared prelude: copy the image's global-slot
         delta instead of re-expanding/re-compiling/re-executing the
         sources — the session dispatches zero instructions before
         its first user form (pinned in test_perf_counters). *)
      Prelude_image.install
        (Prelude_image.get ~scheme_winders ~optimize:options.optimize
           ~peephole:options.peephole ~regalloc:options.regalloc)
        (machine_globals machine));
  if corpus then load_corpus t;
  t

let backend t = t.which

let eval_string ?fuel t src = Values.write_string (eval ?fuel t src)

(* Per-form evaluation: one already-read top-level datum, so the caller
   can attribute a failure to the datum's own source position. *)
let eval_datum ?fuel t d =
  match t.machine with
  | M_stack vm -> Vm.eval_datum ?fuel vm d
  | M_closure vm -> Closurevm.eval_datum ?fuel vm d
  | M_heap vm -> Heapvm.eval_datum ?fuel vm d
  | M_oracle o -> Oracle.eval_datum ?fuel o d

let output t =
  match t.machine with
  | M_stack vm | M_closure vm -> Engine.output vm
  | M_heap vm -> Heapvm.output vm
  | M_oracle o -> Oracle.output o

let take_output t =
  match t.machine with
  | M_stack vm | M_closure vm -> Engine.take_output vm
  | M_heap vm -> Heapvm.take_output vm
  | M_oracle o -> Oracle.take_output o

let stats t = t.stats

let globals t = machine_globals t.machine
