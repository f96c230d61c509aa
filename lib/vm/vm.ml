(* The stack VM is the engine instantiated at the segmented-stack frame
   policy: [Vm_policy] supplies the control representation, [Vm_core] is
   the shared dispatch loop of lib/engine/engine_core.ml compiled against
   it (see the codegen rule in ./dune). *)

type t = Vm_policy.t

exception Vm_fuel_exhausted = Engine.Vm_fuel_exhausted

let create = Vm_policy.create
let stats = Engine.stats
let globals = Engine.globals
let output = Engine.output
let take_output = Engine.take_output
let run = Vm_core.run
let run_program = Vm_core.run_program
let eval = Vm_core.eval
let eval_datum = Vm_core.eval_datum
