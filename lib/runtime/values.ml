open Rt

let err msg irritants = raise (Scheme_error (msg, irritants))

let type_name = function
  | Fixnum -> "fixnum"
  | Nil _ -> "null"
  | Void _ -> "void"
  | Eof _ -> "eof-object"
  | Undef _ -> "undefined"
  | Bool _ -> "boolean"
  | Flo _ -> "flonum"
  | Char _ -> "character"
  | Str _ -> "string"
  | Sym _ -> "symbol"
  | Pair _ -> "pair"
  | Vec _ -> "vector"
  | Closure _ | Prim _ | Ofun _ -> "procedure"
  | Cont _ | Hcont _ -> "continuation"
  | Mvals _ -> "multiple-values"
  | Box _ -> "box"
  | Tbl _ -> "hashtable"
  | Retaddr _ -> "return-address"
  | Underflow_mark _ -> "underflow-mark"
  | WindersV _ -> "winders"

let type_error who expected got =
  err
    (Printf.sprintf "%s: expected %s, got %s" who expected (type_name got))
    [ got ]

let cons a d = Pair { car = a; cdr = d }
let list_to_value vs = List.fold_right cons vs nil

(* The number of pairs in [v] when it is a proper list, or -1 when it
   is not: its cdr chain ends in a non-pair other than [()], or comes
   back to a pair it passed.  Brent's walk: [mark] rests on one pair
   while the walk takes [power] more steps, then jumps to the walk's
   position and [power] doubles, so on a cycle the walk meets [mark]
   within a few laps.  Allocates nothing. *)
let list_length v =
  let rec go v n mark power steps =
    match v with
    | Nil _ -> n
    | Pair { cdr; _ } ->
        if v == mark then -1
        else if steps = power then go cdr (n + 1) v (2 * power) 1
        else go cdr (n + 1) mark power (steps + 1)
    | _ -> -1
  in
  go v 0 nil 1 1

let list_of_value_opt v =
  let rec go acc = function
    | Pair p -> go (p.car :: acc) p.cdr
    | _ -> List.rev acc
  in
  if list_length v < 0 then None else Some (go [] v)

let list_of_value v =
  match list_of_value_opt v with
  | Some l -> l
  | None -> type_error "list" "proper list" v

let is_truthy = function Bool false -> false | _ -> true

let v_true = Bool true
let v_false = Bool false
let of_bool b = if b then v_true else v_false [@@inline]

(* A fixnum is its immediate (see [Rt.value]): converting either way is
   the identity, and [to_int] is meaningful only inside a [Fixnum] arm. *)
external of_int : int -> value = "%identity"
external to_int : value -> int = "%identity"

(* Physical identity covers the fixnums (equal immediates), the named
   constants (one block each), and every object that is one block
   (pairs, closures, boxes, continuations).  The rest compare their
   payloads: booleans and characters by value, the others by the
   identity of the payload block. *)
let eq a b =
  a == b
  ||
  match (a, b) with
  | Bool x, Bool y -> x = y
  | Flo x, Flo y ->
      (* the same bits: 0.0 and -0.0 differ, a NaN is itself (IEEE [=]
         stays the rule for [=]) *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Char x, Char y -> x = y
  | Sym x, Sym y -> x == y (* interned *)
  | Str x, Str y -> x == y
  | Vec x, Vec y -> x == y
  | Prim x, Prim y -> x == y
  | Hcont x, Hcont y -> x == y
  | Ofun x, Ofun y -> x == y
  | Tbl x, Tbl y -> x == y
  | _ -> false

let eqv = eq (* fixnums and chars already compare by value in [eq] *)

let rec equal a b =
  match (a, b) with
  | Pair x, Pair y -> equal x.car y.car && equal x.cdr y.cdr
  | Vec x, Vec y ->
      Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i xi -> if not (equal xi y.(i)) then ok := false) x;
          !ok)
  | Str x, Str y -> Bytes.equal x y
  | _ -> eqv a b

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let char_external c =
  match c with
  | '\n' -> "#\\newline"
  | ' ' -> "#\\space"
  | '\t' -> "#\\tab"
  | '\000' -> "#\\nul"
  | '\r' -> "#\\return"
  | c -> Printf.sprintf "#\\%c" c

let max_render_nodes = 100_000

exception Render_budget

(* [seen] holds the pairs and vectors being printed around [v]; one
   node budget covers the whole value, through multiple values and
   boxes too. *)
let rec render_v ~seen ~budget ~write buf v =
  let str s = Buffer.add_string buf s in
  decr budget;
  if !budget <= 0 then begin
    str "...";
    raise Render_budget
  end;
  match v with
  | Fixnum -> str (string_of_int (to_int v))
  | Nil _ -> str "()"
  | Void _ -> str "#<void>"
  | Eof _ -> str "#<eof>"
  | Undef _ -> str "#<undefined>"
  | Bool true -> str "#t"
  | Bool false -> str "#f"
  | Flo f ->
      str
        (if f <> f then "+nan.0"
         else if f = Float.infinity then "+inf.0"
         else if f = Float.neg_infinity then "-inf.0"
         else if Float.is_integer f && Float.abs f < 1e16 then
           Printf.sprintf "%.1f" f
         else Printf.sprintf "%.12g" f)
  | Char c -> if write then str (char_external c) else Buffer.add_char buf c
  | Str s ->
      if write then str (escape_string (Bytes.to_string s))
      else str (Bytes.to_string s)
  | Sym s -> str s
  | Pair _ ->
      if List.exists (fun o -> o == Obj.repr v) seen then str "#<cycle>"
      else render_pair ~seen ~budget ~write buf v
  | Vec a ->
      if List.exists (fun o -> o == Obj.repr a) seen then str "#<cycle>"
      else begin
        let seen = Obj.repr a :: seen in
        str "#(";
        Array.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ' ';
            render_v ~seen ~budget ~write buf x)
          a;
        str ")"
      end
  | Closure { code; _ } -> str (Printf.sprintf "#<procedure %s>" code.cname)
  | Prim p -> str (Printf.sprintf "#<procedure %s>" p.pname)
  | Ofun f -> str (Printf.sprintf "#<procedure %s>" f.oname)
  | Cont { one_shot; _ } ->
      str (if one_shot then "#<one-shot-continuation>" else "#<continuation>")
  | Hcont c ->
      str
        (if c.hcont_one_shot then "#<one-shot-continuation>"
         else "#<continuation>")
  | Mvals vs ->
      str "#<values";
      List.iter
        (fun x ->
          Buffer.add_char buf ' ';
          render_v ~seen ~budget ~write buf x)
        vs;
      str ">"
  | Box { contents } ->
      str "#&";
      render_v ~seen ~budget ~write buf contents
  | Tbl t -> str (Printf.sprintf "#<hashtable %d>" (Hashtbl.length t))
  | Retaddr { rcode; rpc; _ } ->
      str (Printf.sprintf "#<retaddr %s+%d>" rcode.cname rpc)
  | Underflow_mark _ -> str "#<underflow>"
  | WindersV w -> str (Printf.sprintf "#<winders %d>" (List.length w))

(* A list prints its cdr chain until the chain ends or reaches a pair
   already on it or among the enclosing objects, which prints as
   [. #<cycle>].  Each element is printed with the enclosing objects and
   the pairs before it as [seen], the ancestor check for the car path.
   The chain's own repeat is found up front in O(1) space, so a long
   list is not searched pair by pair. *)
and render_pair ~seen ~budget ~write buf p =
  Buffer.add_char buf '(';
  let repeat = first_repeat p in
  let rec go v k chain =
    match v with
    | Nil _ -> ()
    | Pair { car; cdr } ->
        if k > 0 && (k >= repeat || List.exists (fun o -> o == Obj.repr v) seen)
        then Buffer.add_string buf " . #<cycle>"
        else begin
          if k > 0 then Buffer.add_char buf ' ';
          render_v ~seen:chain ~budget ~write buf car;
          go cdr (k + 1) (Obj.repr v :: chain)
        end
    | other ->
        Buffer.add_string buf " . ";
        render_v ~seen:chain ~budget ~write buf other
  in
  go p 0 (Obj.repr p :: seen);
  Buffer.add_char buf ')'

(* The index, counting [p] as 0, of the first pair along the cdr chain
   from [p] that repeats an earlier one ([max_int] when the chain ends):
   Brent's algorithm finds the cycle's length [lam], then a pointer [lam]
   pairs ahead of one at [p] meets it where the cycle starts, at [mu];
   the first repeat is at [mu + lam]. *)
and first_repeat p =
  let rec cycle_length tortoise hare power lam =
    match hare with
    | Pair _ when hare == tortoise -> lam
    | Pair { cdr; _ } ->
        if power = lam then cycle_length hare cdr (2 * power) 1
        else cycle_length tortoise cdr power (lam + 1)
    | _ -> 0
  in
  let rec ahead v k =
    match v with Pair { cdr; _ } when k > 0 -> ahead cdr (k - 1) | _ -> v
  in
  let rec meet a b mu =
    match (a, b) with
    | Pair x, Pair y -> if a == b then mu else meet x.cdr y.cdr (mu + 1)
    | _ -> max_int
  in
  match p with
  | Pair { cdr; _ } -> (
      match cycle_length p cdr 1 1 with
      | 0 -> max_int
      | lam -> meet p (ahead p lam) 0 + lam)
  | _ -> max_int

let render_to_string ~write v =
  let buf = Buffer.create 64 in
  (try render_v ~seen:[] ~budget:(ref max_render_nodes) ~write buf v
   with Render_budget -> ());
  Buffer.contents buf

let write_string v = render_to_string ~write:true v
let display_string v = render_to_string ~write:false v
