open Rt

let err msg irritants = raise (Scheme_error (msg, irritants))

let type_name = function
  | Nil -> "null"
  | Void -> "void"
  | Eof -> "eof-object"
  | Undef -> "undefined"
  | Bool _ -> "boolean"
  | Int _ -> "fixnum"
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
  | Underflow_mark -> "underflow-mark"
  | WindersV _ -> "winders"

let type_error who expected got =
  err
    (Printf.sprintf "%s: expected %s, got %s" who expected (type_name got))
    [ got ]

let cons a d = Pair { car = a; cdr = d }
let list_to_value vs = List.fold_right cons vs Nil

let list_of_value_opt v =
  let rec go acc = function
    | Nil -> Some (List.rev acc)
    | Pair p -> go (p.car :: acc) p.cdr
    | _ -> None
  in
  go [] v

let list_of_value v =
  match list_of_value_opt v with
  | Some l -> l
  | None -> type_error "list" "proper list" v

let is_truthy = function Bool false -> false | _ -> true

let v_true = Bool true
let v_false = Bool false
let of_bool b = if b then v_true else v_false [@@inline]

(* One preallocated [Int] per fixnum in [small_int_min .. small_int_max],
   never written after this initialisation.  The range was measured on
   perfbench seed 1: it halves the allocation per [corpus] job; widening
   it to -1024 .. 1023 saves nothing more there, and cutting the top to
   255 leaves [oneshot] 1.6% more words per job. *)
let small_int_min = -256
let small_int_max = 1023
let small_ints =
  Array.init (small_int_max - small_int_min + 1) (fun i ->
      Int (i + small_int_min))

let of_int n =
  if n >= small_int_min && n <= small_int_max then
    Array.unsafe_get small_ints (n - small_int_min)
  else Int n
  [@@inline]

let eq a b =
  match (a, b) with
  | Nil, Nil | Void, Void | Eof, Eof | Undef, Undef -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Flo x, Flo y ->
      (* the same bits: 0.0 and -0.0 differ, a NaN is itself (IEEE [=]
         stays the rule for [=]) *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Char x, Char y -> x = y
  | Sym x, Sym y -> x == y (* interned *)
  | Str x, Str y -> x == y
  | Pair _, Pair _ | Closure _, Closure _ | Box _, Box _ ->
      a == b (* one block per object *)
  | Vec x, Vec y -> x == y
  | Prim x, Prim y -> x == y
  | Cont _, Cont _ -> a == b (* one block per capture *)
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
  | Nil -> str "()"
  | Void -> str "#<void>"
  | Eof -> str "#<eof>"
  | Undef -> str "#<undefined>"
  | Bool true -> str "#t"
  | Bool false -> str "#f"
  | Int n -> str (string_of_int n)
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
  | Underflow_mark -> str "#<underflow>"
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
    | Nil -> ()
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
