(* Global variable table, slot-indexed.

   Global names intern to process-wide *slots* (small dense ints) so
   compiled code can refer to a global by slot number instead of by an
   embedded cell record.  That makes code objects session-independent:
   the same compiled prelude image executes against any session's table
   (each session owns its own cell array, indexed by the shared slots),
   which is what lets sessions on separate domains share one read-only
   compiled prelude.  The interner is append-only and mutex-guarded — slot
   numbers are stable for the life of the process and identical across
   domains, so the numbering (and with it every slot embedded in pinned
   bytecode) is deterministic for a fixed program. *)

(* Names compare with [String.equal], not the generic table's
   polymorphic compare. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let interner_lock = Mutex.create ()
let interner : int Names.t = Names.create 512
let names : string array ref = ref (Array.make 512 "")
let next_slot = ref 0

let slot name =
  Mutex.protect interner_lock (fun () ->
      match Names.find interner name with
      | i -> i
      | exception Not_found ->
          let i = !next_slot in
          let cap = Array.length !names in
          if i >= cap then begin
            let bigger = Array.make (2 * cap) "" in
            Array.blit !names 0 bigger 0 cap;
            names := bigger
          end;
          !names.(i) <- name;
          Names.add interner name i;
          incr next_slot;
          i)

(* Non-interning lookup, for callers that must not grow the table. *)
let slot_opt name =
  Mutex.protect interner_lock (fun () -> Names.find_opt interner name)

let slot_name i =
  Mutex.protect interner_lock (fun () ->
      if i >= 0 && i < !next_slot then !names.(i) else "<bad-slot>")

(* One session's table: a growable array of cells indexed by slot. *)
type t = { mutable cells : Rt.global array }

let fresh_cell _ = { Rt.gval = Rt.undef; gdefined = false }

let create () : t =
  { cells = Array.init 64 fresh_cell }

(* Grow-on-miss.  Growing copies the old cell *pointers*, so any cell
   record already embedded anywhere keeps its identity.  The new cells
   are made in blocks of at most 256 and joined by [Array.concat], so a
   table growing past 256 slots while a session loads its programs
   forces no minor collection: [Array.init] of a longer array would
   first fill it with its young first element, and OCaml empties the
   minor heap before it puts a young value into a new major-heap
   array. *)
let grow (t : t) i : Rt.global =
  let n = Array.length t.cells in
  let n' = max (2 * n) (i + 1) in
  let block k = Array.init (min 256 (n' - k)) (fun j -> fresh_cell (k + j)) in
  let rec blocks k = if k >= n' then [] else block k :: blocks (k + 256) in
  let bigger = Array.concat (t.cells :: blocks n) in
  t.cells <- bigger;
  bigger.(i)

(* The executors resolve every global slot through this: one bounds test
   and an unsafe load on the hit path, inlined into the dispatch loops
   (the default build is not -opaque, so ocamlopt reads this .cmx). *)
let[@inline] get (t : t) i : Rt.global =
  let cells = t.cells in
  if i < Array.length cells then Array.unsafe_get cells i else grow t i

let cell (t : t) name : Rt.global = get t (slot name)

let define (t : t) name v =
  let g = cell t name in
  g.gval <- v;
  g.gdefined <- true

let find_opt (t : t) name : Rt.global option =
  match slot_opt name with
  | Some i when i < Array.length t.cells ->
      let g = t.cells.(i) in
      if g.Rt.gdefined then Some g else None
  | _ -> None

let lookup_opt (t : t) name : Rt.value option =
  match find_opt t name with Some g -> Some g.Rt.gval | None -> None

(* Cells past the interner's high-water mark (the table rounds its
   growth up) have no name yet; they are necessarily undefined, so
   skipping them loses nothing. *)
let fold f (t : t) init =
  let acc = ref init in
  Array.iteri
    (fun i (g : Rt.global) ->
      if i < !next_slot then acc := f (slot_name i) g !acc)
    t.cells;
  !acc
