(* Flat-value wire format for cross-domain shard traffic: see the .mli
   for the protocol contract.  The representation mirrors the flat
   subset of [Rt.value] with immutable payloads ([string] instead of
   [bytes], a fresh constructor per pair) so a serialized tree can be
   shared across domains without publishing any mutable field. *)

type t =
  | F_nil
  | F_void
  | F_eof
  | F_bool of bool
  | F_int of int
  | F_flo of float
  | F_char of char
  | F_str of string
  | F_sym of string
  | F_list of t list
  | F_vec of t array

exception Not_flat of Rt.value
exception Too_large

(* Node budget: flat data a par task would realistically ship is far
   below this; cyclic structures (which a recursive walk would chase
   forever) trip the bound instead of needing a visited set on the
   serialization path. *)
let max_nodes = 1_000_000

let serialize v =
  let budget = ref max_nodes in
  let spend () =
    decr budget;
    if !budget < 0 then raise Too_large
  in
  let rec go v =
    spend ();
    match (v : Rt.value) with
    | Nil -> F_nil
    | Void -> F_void
    | Eof -> F_eof
    | Bool b -> F_bool b
    | Int n -> F_int n
    | Flo f -> F_flo f
    | Char c -> F_char c
    | Str b -> F_str (Bytes.to_string b)
    | Sym s -> F_sym s
    | Pair _ ->
        (* Proper-list walk: an improper tail is non-flat (the dotted
           tail value is reported, matching where the walk stopped). *)
        let rec list acc v =
          match (v : Rt.value) with
          | Nil -> F_list (List.rev acc)
          | Pair p ->
              spend ();
              list (go p.car :: acc) p.cdr
          | tail -> raise (Not_flat tail)
        in
        list [] v
    | Vec a -> F_vec (Array.map go a)
    | Undef | Closure _ | Prim _ | Cont _ | Hcont _ | Ofun _
    | Mvals _ | Box _ | Tbl _ | Retaddr _ | Underflow_mark | WindersV _ ->
        raise (Not_flat v)
  in
  go v

let rec deserialize t =
  match t with
  | F_nil -> Rt.Nil
  | F_void -> Rt.Void
  | F_eof -> Rt.Eof
  | F_bool b -> Values.of_bool b
  | F_int n -> Values.of_int n
  | F_flo f -> Rt.Flo f
  | F_char c -> Rt.Char c
  | F_str s -> Rt.Str (Bytes.of_string s)
  | F_sym s -> Rt.sym s
  | F_list l ->
      List.fold_right
        (fun x tail -> Rt.Pair { car = deserialize x; cdr = tail })
        l Rt.Nil
  | F_vec a -> Rt.Vec (Array.map deserialize a)

let describe v = Values.write_string v
