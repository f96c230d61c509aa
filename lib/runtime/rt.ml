(* Core mutually recursive runtime types shared by the compiler, the control
   substrate, and both virtual machines.

   The control-stack layout follows Bruggeman/Waddell/Dybvig (PLDI'96)
   faithfully: segments are flat value arrays; each frame is
   [ret][arg1..argn][locals/temps...] with the frame pointer indexing [ret];
   there is no dynamic link -- return addresses carry the frame displacement
   that the paper stores as a size word in the code stream next to each
   return point (the information content and its uses -- stack walking,
   splitting, hysteresis copy-up -- are identical). *)

(* Compiled-template slot for the closure-compiled backend
   (lib/closurevm).  The variant is extensible so the runtime stays
   independent of the backend's step representation: closurevm extends it
   with its own constructor carrying the step-closure array, every other
   backend leaves the slot at [No_template] (added below, after the
   recursive type block).  The slot lives on [code] so a code object is
   template-compiled at most once per process, and templates survive
   across sessions exactly like the interned return addresses do. *)
type tmpl = ..

(* The payload of a named constant ([Nil], [Void], [Eof], [Undef],
   [Underflow_mark]).  No value of this type is exported, so outside this
   module those constructors can be matched but not applied: each names
   exactly one block, built below ([nil], [void], ...), and code may
   compare with it physically. *)
module Constant : sig type t end = struct type t = unit end

(* [Fixnum] is the type's only constant constructor: a fixnum is the
   immediate OCaml int itself, built by [Values.of_int] and read by
   [Values.to_int] inside a [Fixnum] arm.  A match on the type tests
   [Is_long] and takes that arm without comparing the immediate, so
   every int from [min_int] to [max_int] matches it (DESIGN section
   18.4).  Any further constant constructor would break this: the named
   constants are blocks. *)
type value =
  | Fixnum
  | Nil of Constant.t                    (* the empty list *)
  | Void of Constant.t                   (* unspecified value *)
  | Eof of Constant.t
  | Undef of Constant.t                  (* letrec pre-initialization hole *)
  | Bool of bool
  | Flo of float                         (* flonums *)
  | Char of char
  | Str of bytes                         (* mutable Scheme strings *)
  | Sym of string
  | Pair of { mutable car : value; mutable cdr : value }
  | Vec of value array
  | Closure of { code : code; frees : value array }
  | Prim of prim
  | Cont of {                            (* Scheme-level continuation,
                                            inline: one block per capture *)
      sr : stack_record;
      one_shot : bool;                   (* which operator captured it *)
      k_winders : winder list;           (* winder chain at capture time;
                                            invocation winds/unwinds to it *)
    }
  | Hcont of hcont                       (* heap-VM continuation *)
  | Ofun of ofun                         (* oracle-interpreter procedure:
                                            CPS over OCaml closures *)
  | Mvals of value list                  (* multiple values in transit *)
  | Box of { mutable contents : value }  (* assignment-converted variable *)
  | Tbl of (hkey, value) Hashtbl.t       (* eqv-keyed hashtable *)
  (* Runtime-internal values stored in stack frames; never seen by Scheme. *)
  | Retaddr of {
      rcode : code;
      rpc : int;                         (* resumption pc in [rcode] *)
      rdisp : int;                       (* displacement to the caller frame:
                                            callee fp - caller fp (the paper's
                                            in-stream frame-size word) *)
    }
  | Underflow_mark of Constant.t         (* bottom-of-segment return slot *)
  | WindersV of winder list              (* winder chain stashed in a wind
                                            trampoline frame slot *)

(* A hashtable key: an eqv-comparable immediate.  The table hashes and
   compares keys structurally, and OCaml's structural hash and compare
   make 0.0 and -0.0 one float; a flonum key is therefore kept as its
   bit pattern, so the table tells apart exactly what [eqv?] does. *)
and hkey = Key of value | Flo_key of int64

and code = {
  mutable instrs : instr array;          (* replaced once, by the peephole
                                            fuser, before the code is
                                            finished *)
  cname : string;                        (* for disassembly/back-traces *)
  arity : arity;
  frame_words : int;                     (* max frame extent: one overflow
                                            check at [Enter] covers every
                                            in-frame write the body performs *)
  mutable timer_ret : value;             (* interned [Retaddr] for the timer
                                            fire at procedure entry: the pc
                                            and displacement are fixed per
                                            code object, so the record is
                                            built once on first fire instead
                                            of once per preemption.  [Void]
                                            until then; guarded on rpc/rdisp
                                            before reuse. *)
  mutable templ : tmpl;                  (* closure-compiled template cache
                                            ([No_template] until the closure
                                            backend compiles this code) *)
  cid : int;                             (* drawn fresh by each
                                            [Bytecode.code] call (a copy made
                                            with [with] keeps it): the hash key
                                            of [Bytecode.Code_set], so a set of
                                            codes sharing one name and source
                                            position stays linear *)
}

and arity = Exactly of int | At_least of int

and instr =
  | Const of value
  | Local_ref of int                     (* acc := frame.(i) *)
  | Local_set of int                     (* frame.(i) := acc *)
  | Box_init of int                      (* frame.(i) := Box { contents = frame.(i) } *)
  | Box_ref of int                       (* acc := frame.(i).contents *)
  | Box_set of int                       (* frame.(i).contents <- acc *)
  | Free_ref of int                      (* acc := clos.frees.(i) *)
  | Free_box_ref of int
  | Free_box_set of int
  | Global_ref of int                    (* acc := cells.(slot) (bound check) *)
  | Global_set of int
  | Global_define of int
  | Make_closure of code * capture array
  | Branch of int                        (* absolute pc *)
  | Branch_false of int
  | Call of call_site                    (* callee at frame.(disp+1), args at
                                            frame.(disp+2 ..); pushes the
                                            interned Retaddr at frame.(disp) *)
  | Tail_call of { disp : int; nargs : int } (* callee at frame.(disp+1), args
                                            at frame.(disp+2 ..) — the Call
                                            layout; shifts callee+args down to
                                            frame.(1 ..) before entering *)
  | Return                               (* return acc via frame.(0) *)
  | Enter                                (* procedure prologue: arity check,
                                            rest-arg collection, overflow
                                            check, timer tick *)
  | Halt                                 (* stop the machine; acc is the
                                            program result *)
  (* Fused superinstructions, emitted only by the peephole stage
     (Optimize.peephole_program).  The push forms collapse a value-producing
     instruction followed by [Local_set] into one dispatch; they write the
     frame slot directly and leave [acc] untouched (the peephole proves
     [acc] dead at the fusion site). *)
  | Const_push of value * int            (* frame.(i) := v *)
  | Local_push of int * int              (* frame.(j) := frame.(i) *)
  | Free_push of int * int               (* frame.(j) := frees.(i) *)
  | Global_push of int * int             (* frame.(i) := cells.(slot) (bound
                                            check) *)
  (* Inline-cached calls of known pure primitives: the callee global was
     bound to [ps_guard] when the site was compiled.  The guard re-checks
     [ps_global.gval == ps_guard] at every execution; on mismatch ([set!]
     of [+] etc.) the site deoptimizes to the generic call path.  The fast
     path pushes no return address, moves no frame pointer, and allocates
     no argument array; the fixed-arity forms call [ps_fn1]/[ps_fn2]
     with plain operands, without flushing the machine's batched state. *)
  | Prim_call of prim_site               (* non-tail call, any arity *)
  | Prim_call1 of prim_site              (* fixed-arity fast variants *)
  | Prim_call2 of prim_site
  | Prim_tail_call of prim_site          (* tail call: acc := result; return *)
  (* Branch fusion: a conditional that consumes a just-produced value
     collapses into its producer.  The original [Branch_false] is left in
     place at the following pc and the fused form jumps over it, so branch
     targets need no remapping, and the deopt / error-handler resume paths
     of the fused primitives — whose interned [ps_ret] addresses [pc + 1] —
     re-execute that branch on the returned value, exactly as the unfused
     sequence would. *)
  | Local_branch_false of int * int      (* acc := frame.(i); branch if false *)
  | Prim_branch1 of prim_site * int      (* Prim_call1 + Branch_false *)
  | Prim_branch2 of prim_site * int      (* Prim_call2 + Branch_false *)
  (* Register-addressed (operand) forms, emitted only by the regalloc
     stage of Optimize.peephole_program (--no-regalloc escape hatch).  The
     argument-staging pushes of a fused prim call are folded into the
     consumer as [operand]s read straight from the accumulator, a frame
     slot, or the instruction stream, so the staged values never touch
     stack memory on the fast path.  The form replaces the staging and
     the consumer and continues where the consumer did: at [pc + 1], or
     for a branch form, as for [Prim_branch1], past the retained
     [Branch_false] at [pc + 1].  Its interned [ps_ret] resumes at
     [pc + 1], and a raising primitive flushes there.  On guard failure (or before any slow path that
     re-enters the frame policy) the handler first spills the operand
     values into the frame's argument slots, so the frame a capture or
     deopt observes is byte-identical to the one the unfused sequence
     would have built. *)
  | Prim_call1_op of prim_site * operand
  | Prim_call2_op of prim_site * operand * operand
  | Prim_branch1_op of prim_site * operand * int
  | Prim_branch2_op of prim_site * operand * operand * int
  | Prim_tail1_op of prim_site * operand
  | Prim_tail2_op of prim_site * operand * operand
  | Return_op of operand                 (* producer + Return in one dispatch *)

(* Where a register-addressed instruction reads a value from: the
   accumulator (the value the folded [Local_set] of the unfused
   sequence would have stored), a frame slot (a [Local_push] source), or an
   immediate (a [Const_push] payload). *)
and operand = Op_acc | Op_local of int | Op_const of value

(* A non-tail call site.  [cs_ret] is the site's return address, interned
   once by [Bytecode.finish] when the enclosing code object is final
   (after the peephole, which keeps the compiler's sites, has
   renumbered its pcs): all three [retaddr] fields are per-site
   constants, so non-tail calls push a pre-allocated value instead of
   allocating one per call — the paper's "return address lives in the
   code stream next to the frame-size word" layout.  [Void] only
   transiently, between compilation and finishing. *)
and call_site = {
  cs_disp : int;                         (* frame displacement of the call
                                            area (the callee's fp) *)
  cs_nargs : int;
  mutable cs_ret : value;                (* interned [Retaddr] *)
}

and prim_site = {
  ps_disp : int;                         (* frame displacement of the call
                                            area, as in [Call] *)
  ps_nargs : int;
  ps_slot : int;                         (* global slot the callee was loaded
                                            from (resolved against the running
                                            session's table) *)
  ps_guard : value;                      (* the [Prim] value cached at
                                            compile time (physical witness) *)
  ps_prim : prim;                        (* same prim, for disassembly *)
  ps_fn : value array -> value;          (* its entries, copied from
                                            [ps_prim]: any arity ... *)
  ps_fn1 : value -> value;               (* ... and the direct 1- and
                                            2-argument ones the fixed-arity
                                            forms call with plain operands
                                            (the arity was validated when
                                            the site was fused) *)
  ps_fn2 : value -> value -> value;
  mutable ps_ret : value;                (* interned [Retaddr] for the
                                            non-tail deopt path, backpatched
                                            like [call_site.cs_ret] *)
}

and capture = Cap_local of int | Cap_free of int

and global = {
  (* One session's cell for a global slot; the slot→name mapping lives
     in the process-wide interner ([Globals.slot_name]). *)
  mutable gval : value;
  mutable gdefined : bool;
}

and prim = {
  pname : string;
  parity : arity;
  pfn : pfn;
}

and pfn =
  | Pure of {                            (* no control effects: applied
                                            in-line, no frame pushed *)
      fn : value array -> value;         (* any argument count *)
      fn1 : value -> value;              (* direct entries for exactly one
                                            and two arguments: no argument
                                            array.  Reached only after the
                                            caller's arity check, so the
                                            entry of an arity the prim
                                            rejects is never called. *)
      fn2 : value -> value -> value;
    }
  | Special of special                   (* needs the machine: handled by the
                                            VM dispatch loop *)

and special =
  | Sp_callcc                            (* %call/cc  : raw multi-shot capture *)
  | Sp_call1cc                           (* %call/1cc : raw one-shot capture *)
  | Sp_apply
  | Sp_values
  | Sp_stats                             (* (%stat 'name) : read a counter *)
  | Sp_backtrace                         (* (%backtrace) : walk the frames *)
  | Sp_eval                              (* (eval datum) : compile and run *)
  | Sp_dynamic_wind                      (* (%dynamic-wind before thunk after):
                                            native winders protocol *)
  | Sp_wind                              (* internal wind trampoline driver;
                                            never bound to a global *)

(* A dynamic-wind extent recorded on the machine's native winder chain:
   [w_before] / [w_after] are the guard thunks.  The chain is a stack —
   the head is the innermost extent — and shares structure exactly as the
   Scheme-level [%winders] list it replaces, so a captured continuation
   records the chain by keeping one pointer ([Cont]'s [k_winders]) and the
   rewind/unwind comparison is physical equality. *)
and winder = { w_before : value; w_after : value }

(* One-shot/multi-shot stack records, exactly the paper's Figure 1/2 layout.
   A record describes the slice [base, base+size) of [seg].  For the active
   record [current] is unused (the occupied size is [fp - base]).  For a
   captured record:
     multi-shot  <=>  current = size        (paper Section 3.2)
     one-shot    <=>  current < size
     shot        <=>  current = size = -1
   [promoted] is the shared boxed flag of Section 3.3: when set, every
   one-shot record sharing it reads as promoted (multi-shot) without the
   eager chain walk.  Flags are allocated lazily ({!Control}): a lone
   one-shot record holds one process-wide flag that is never written, a
   flag is allocated only when a second live one-shot record joins the
   group, and multi-shot records and promoted groups of one hold a
   process-wide [ref true].  So a capture allocates no flag of its own.
   [link] is the record below; the bottom record links to the sentinel
   [Control.no_link] instead of holding an option. *)
and stack_record = {
  mutable seg : value array;
  mutable base : int;
  mutable size : int;
  mutable current : int;
  mutable link : stack_record;
  mutable ret : value;                   (* Retaddr of the topmost saved frame *)
  mutable promoted : bool ref;
}

(* Heap-model frames (the Appel/MacQueen-style baseline VM): each frame is
   a separately allocated record linked to its parent.  Capture is O(1)
   pointer sharing; shared frames are copied on write to keep multi-shot
   reinstatement sound. *)
and hframe = {
  mutable hslots : value array;
  mutable hret : value;                  (* Retaddr (rdisp unused) *)
  mutable hparent : hframe option;
  mutable hshared : bool;
  mutable hguards : hcont list;          (* one-shot extents consumed when
                                            this frame returns *)
}

and hcont = {
  hcont_frame : hframe option;           (* caller chain *)
  hcont_ret : value;                     (* Retaddr *)
  hcont_one_shot : bool;
  mutable hcont_shot : bool;
  mutable hcont_promoted : bool;
  hcont_winders : winder list;           (* winder chain at capture time *)
}

and ofun = {
  oname : string;
  ofn : value array -> (value -> value) -> value;
}

type tmpl += No_template

(* The one block of each named constant. *)
let nil, void, eof, undef, underflow_mark =
  let c : Constant.t = Obj.magic () in
  (Nil c, Void c, Eof c, Undef c, Underflow_mark c)

(* Store [v] at [a.(i)] unless the slot already holds it (physically).
   A stack segment is longer than 256 words, so it lives in the major
   heap and every plain store pays [caml_modify] (and [caml_darken] of
   the old value while the major GC marks); rewriting the value a slot
   already holds changes nothing for the program or the collector, so
   the store is skipped.  A store of an immediate over an immediate
   (a fixnum over a fixnum) has no old value to darken and no young
   pointer to remember, so it is written as the int store it is, with
   no barrier.  The read is bounds-checked, which licences the
   unchecked write.  Frame-slot writes on the hot paths go through
   here (DESIGN section 19). *)
let[@inline] set_slot (a : value array) i (v : value) =
  let old = a.(i) in
  if old != v then
    if Obj.is_int (Obj.repr old) && Obj.is_int (Obj.repr v) then
      Array.unsafe_set (Obj.magic a : int array) i (Obj.magic v : int)
    else Array.unsafe_set a i v

exception Scheme_error of string * value list
(* Raised by (error who msg irritants...) and by runtime type errors. *)

exception Shot_continuation
(* Raised when a one-shot continuation is invoked a second time. *)

(* The symbol table is the one deliberately process-global structure in
   the runtime: [eq?] on symbols is physical equality, so every machine
   must intern through the same table.  Sessions may run on different
   domains, so the table and the gensym counter are
   mutex-guarded; the lock is uncontended and symbols are interned at
   compile time, never on the execution hot path. *)
let sym_lock = Mutex.create ()
let sym_table : (string, string) Hashtbl.t = Hashtbl.create 512

(* Intern symbol names so that [Sym] payloads of equal name are physically
   equal and [eq?] can use physical comparison. *)
let intern name =
  Mutex.protect sym_lock (fun () ->
      match Hashtbl.find_opt sym_table name with
      | Some s -> s
      | None ->
          Hashtbl.add sym_table name name;
          name)

let sym name = Sym (intern name)

let gensym_counter = ref 0

let gensym prefix =
  let n =
    Mutex.protect sym_lock (fun () ->
        incr gensym_counter;
        !gensym_counter)
  in
  sym (Printf.sprintf "%s%%%d" prefix n)
