(* The heap VM is the engine instantiated at the heap frame policy:
   [Heap_policy] supplies the linked-frame control representation,
   [Heap_core] is the shared dispatch loop of lib/engine/engine_core.ml
   compiled against it (see the codegen rule in ./dune). *)

type t = Heap_policy.t

exception Vm_fuel_exhausted = Engine.Vm_fuel_exhausted

let create = Heap_policy.create
let stats = Engine.stats
let globals = Engine.globals
let output = Engine.output
let take_output = Engine.take_output
let run = Heap_core.run
let run_program = Heap_core.run_program
let eval = Heap_core.eval
let eval_datum = Heap_core.eval_datum
