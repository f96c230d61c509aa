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
  | Pair x, Pair y -> x == y
  | Vec x, Vec y -> x == y
  | Closure x, Closure y -> x == y
  | Prim x, Prim y -> x == y
  | Cont _, Cont _ -> a == b (* one block per capture *)
  | Hcont x, Hcont y -> x == y
  | Ofun x, Ofun y -> x == y
  | Box x, Box y -> x == y
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

let rec render ?(seen = []) ?(budget = ref max_render_nodes) ~write buf v =
  let render v = render ~seen ~budget ~write buf v in
  ignore render;
  render_v ~seen ~budget ~write buf v

and render_v ~seen ~budget ~write buf v =
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
  | Pair p ->
      if List.exists (fun o -> o == Obj.repr p) seen then str "#<cycle>"
      else render_pair ~seen:(Obj.repr p :: seen) ~budget ~write buf v
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
  | Closure c -> str (Printf.sprintf "#<procedure %s>" c.code.cname)
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
          render ~write buf x)
        vs;
      str ">"
  | Box r ->
      str "#&";
      render ~write buf !r
  | Tbl t -> str (Printf.sprintf "#<hashtable %d>" (Hashtbl.length t))
  | Retaddr r -> str (Printf.sprintf "#<retaddr %s+%d>" r.rcode.cname r.rpc)
  | Underflow_mark -> str "#<underflow>"
  | WindersV w -> str (Printf.sprintf "#<winders %d>" (List.length w))

and render_pair ~seen ~budget ~write buf v =
  Buffer.add_char buf '(';
  let rec go v first seen =
    match v with
    | Nil -> ()
    | Pair p ->
        if List.exists (fun o -> o == Obj.repr p) seen && not first then
          Buffer.add_string buf (if first then "#<cycle>" else " . #<cycle>")
        else begin
          if not first then Buffer.add_char buf ' ';
          render_v ~seen ~budget ~write buf p.car;
          go p.cdr false (Obj.repr p :: seen)
        end
    | other ->
        Buffer.add_string buf " . ";
        render_v ~seen ~budget ~write buf other
  in
  go v true seen;
  Buffer.add_char buf ')'

let render_to_string ~write v =
  let buf = Buffer.create 64 in
  (try render ~write buf v with Render_budget -> ());
  Buffer.contents buf

let write_string v = render_to_string ~write:true v
let display_string v = render_to_string ~write:false v
