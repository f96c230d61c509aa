(** Helpers over compiled code objects: construction and disassembly. *)

val transfers_control : Rt.instr -> bool
(** Does the instruction unconditionally leave the current pc (so that
    falling through to pc+1 is impossible)? *)

val validate : name:string -> frame_words:int -> Rt.instr array -> unit
(** The structural checks {!finish} runs: non-empty stream, final
    instruction transfers control, branch targets in range, operand
    indices within [frame_words].
    @raise Invalid_argument naming the code and the violation. *)

val backpatch : Rt.code -> unit
(** Intern one [Rt.Retaddr] per non-tail call site ([Call] and the deopt
    path of [Prim_call], the fixed-arity call and branch forms and their
    operand forms) into the instruction stream, at the pc after the
    site, making the return-address push at call time
    allocation-free. *)

val finish : Rt.code -> unit
(** {!validate} and {!backpatch} in one pass over the stream: the last
    step of every pipeline whose code can reach a VM.  Each code object
    is finished exactly once, after the last pass that renumbers its
    instructions; its non-tail call sites then name it as their return
    code object.  Nested code objects are not visited.
    @raise Invalid_argument on malformed code. *)

val code :
  name:string ->
  arity:Rt.arity ->
  frame_words:int ->
  Rt.instr array ->
  Rt.code
(** An unfinished code object: no validation, and call sites whose
    return addresses are not yet interned.  It must pass through
    {!finish} before any VM runs it.  Each call draws a fresh [cid]. *)

val make_code :
  name:string ->
  arity:Rt.arity ->
  frame_words:int ->
  Rt.instr array ->
  Rt.code
(** {!code} followed by {!finish}: a runnable code object built by hand.
    @raise Invalid_argument on malformed code. *)

val arity_matches : Rt.arity -> int -> bool
(** Does a call with [n] arguments satisfy the arity? *)

val arity_to_string : Rt.arity -> string

val operand_to_string : Rt.operand -> string
(** [acc], [l<i>], or the written constant. *)

val instr_to_string : Rt.instr -> string
(** One-line rendering of a single instruction, as used by the
    disassembler listings (operand forms render their operands as [acc],
    [l<i>], or the written constant). *)

val disassemble : Rt.code -> string
(** Multi-line listing of one code object (not recursing into nested
    closures). *)

val disassemble_deep : Rt.code -> string
(** Listing of a code object and every code object it closes over. *)

(** Sets of code objects by physical identity, in time linear in the
    number of members however many of them share a name and source
    position. *)
module Code_set : sig
  type t

  val create : unit -> t

  val add : t -> Rt.code -> bool
  (** Add the code; [false] if it was already a member. *)
end

val collect_codes : Rt.code list -> Rt.code -> Rt.code list
(** Accumulate every code object reachable from [code] through
    [Make_closure] instructions (each at most once, by physical
    identity, and none already on the accumulator) onto the
    accumulator, in time linear in the accumulator and the codes
    reached.  Used by the disassembler and by the closure backend's
    eager template compilation. *)
