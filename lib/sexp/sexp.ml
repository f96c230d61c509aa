(* A position is one immediate: the line above the low [col_bits] bits,
   the column in them.  Packing line-major keeps the order of positions
   the order of (line, col) pairs. *)
type pos = int

let col_bits = 31
let max_col = (1 lsl col_bits) - 1
let pos ~line ~col =
  (line lsl col_bits) lor (if col > max_col then max_col else col)
let line p = p lsr col_bits
let col p = p land max_col
let no_pos = 0

type t =
  | Sym of string * pos
  | Int of int * pos
  | Float of float * pos
  | Str of string * pos
  | Bool of bool * pos
  | Char of char * pos
  | List of t list * pos
  | Dotted of t list * t * pos
  | Vec of t list * pos

exception Read_error of string * pos

let pos_of = function
  | Sym (_, p) | Int (_, p) | Float (_, p) | Str (_, p) | Bool (_, p)
  | Char (_, p) | List (_, p) | Dotted (_, _, p) | Vec (_, p) ->
      p

(* ------------------------------------------------------------------ *)
(* Reader state                                                        *)
(* ------------------------------------------------------------------ *)

(* [stack] holds the elements read so far of every list still open,
   innermost last, in slots [0, sp): a list is consed from the top down
   when it closes, so the reader builds no reversed copy.  Each
   [read_all] call owns its stack. *)
type state = {
  src : string;
  len : int;
  mutable idx : int;
  mutable line : int;
  mutable line_start : int;  (* index of the first character of [line] *)
  mutable stack : t array;
  mutable sp : int;
}

let empty_slot = Bool (false, no_pos)

let make_state src =
  { src; len = String.length src; idx = 0; line = 1; line_start = 0;
    stack = Array.make 64 empty_slot; sp = 0 }

let push st d =
  if st.sp = Array.length st.stack then begin
    let bigger = Array.make (2 * st.sp) empty_slot in
    Array.blit st.stack 0 bigger 0 st.sp;
    st.stack <- bigger
  end;
  Array.unsafe_set st.stack st.sp d;
  st.sp <- st.sp + 1

let rec cons_down stack base i acc =
  if i < base then acc
  else cons_down stack base (i - 1) (Array.unsafe_get stack i :: acc)

(* The elements pushed since [base], in reading order, ahead of [tail];
   they leave the stack. *)
let pop_list st base tail =
  let l = cons_down st.stack base (st.sp - 1) tail in
  st.sp <- base;
  l

(* The column is derived here, not stored on every [advance]. *)
let here st = pos ~line:st.line ~col:(st.idx - st.line_start)
let error st msg = raise (Read_error (msg, here st))
let at_eof st = st.idx >= st.len

let[@inline] peek st =
  if st.idx < st.len then String.unsafe_get st.src st.idx else '\000'

let[@inline] peek2 st =
  if st.idx + 1 < st.len then String.unsafe_get st.src (st.idx + 1)
  else '\000'

let[@inline] advance st =
  let i = st.idx in
  if i < st.len then begin
    if String.unsafe_get st.src i = '\n' then begin
      st.line <- st.line + 1;
      st.line_start <- i + 1
    end;
    st.idx <- i + 1
  end

let is_whitespace = function
  | ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let is_delimiter = function
  | ' ' | '\t' | '\n' | '\r' | '\012' | '(' | ')' | '[' | ']' | '"' | ';'
  | '\000' ->
      true
  | _ -> false

(* The index of the first delimiter at or after [i], or the input length.
   A newline is a delimiter, so the scanned span stays on one line. *)
let token_end st i =
  let i = ref i in
  while !i < st.len && not (is_delimiter (String.unsafe_get st.src !i)) do
    incr i
  done;
  !i

let rec skip_block_comment st depth =
  if at_eof st then error st "unterminated block comment"
  else if peek st = '|' && peek2 st = '#' then begin
    advance st;
    advance st;
    if depth > 1 then skip_block_comment st (depth - 1)
  end
  else if peek st = '#' && peek2 st = '|' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1)
  end
  else begin
    advance st;
    skip_block_comment st depth
  end

(* Skip whitespace and comments; returns [true] if a [#;] datum comment was
   seen, in which case the caller must read and discard the next datum. *)
let rec skip_atmosphere st =
  if at_eof st then `Eof
  else
    match peek st with
    | c when is_whitespace c ->
        advance st;
        skip_atmosphere st
    | ';' ->
        while (not (at_eof st)) && peek st <> '\n' do
          st.idx <- st.idx + 1
        done;
        skip_atmosphere st
    | '#' when peek2 st = '|' ->
        advance st;
        advance st;
        skip_block_comment st 1;
        skip_atmosphere st
    | '#' when peek2 st = ';' ->
        advance st;
        advance st;
        `Datum_comment
    | _ -> `Datum

let named_chars =
  [
    ("newline", '\n');
    ("space", ' ');
    ("tab", '\t');
    ("nul", '\000');
    ("return", '\r');
    ("linefeed", '\n');
    ("altmode", '\027');
    ("delete", '\127');
  ]

let read_string_literal st start =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if at_eof st then raise (Read_error ("unterminated string literal", start))
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (if at_eof st then
             raise (Read_error ("unterminated string escape", start))
           else
             let c = peek st in
             advance st;
             match c with
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | '\\' -> Buffer.add_char buf '\\'
             | '"' -> Buffer.add_char buf '"'
             | '0' -> Buffer.add_char buf '\000'
             | c -> error st (Printf.sprintf "unknown string escape \\%c" c));
          go ()
      | c ->
          advance st;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Str (Buffer.contents buf, start)

let is_digit c = c >= '0' && c <= '9'
let is_sign c = c = '+' || c = '-'

(* The index of the first non-digit of [s] at or after [i]. *)
let rec digits s i =
  if i < String.length s && is_digit s.[i] then digits s (i + 1) else i

type number = Fixnum of int | Flonum of float | Fixnum_overflow | Not_a_number

(* The one decimal number grammar of the reader and [string->number]:
     [+-]? (digit+ ('.' digit* )? | '.' digit+) ([eE] [+-]? digit+)?
   and the spellings [+inf.0], [-inf.0], [+nan.0], [-nan.0].  A digit
   string with neither fraction nor exponent is a fixnum.  Every string
   the grammar accepts is one [float_of_string] accepts, so neither
   conversion below can fail except by fixnum overflow. *)
let parse_number s =
  let n = String.length s in
  let i0 = if n > 0 && is_sign s.[0] then 1 else 0 in
  let i1 = digits s i0 in
  if i1 = n && i1 > i0 then
    match int_of_string_opt s with
    | Some k -> Fixnum k
    | None -> Fixnum_overflow
  else
    let i2 = if i1 < n && s.[i1] = '.' then digits s (i1 + 1) else i1 in
    let i3 =
      if i2 < n && (s.[i2] = 'e' || s.[i2] = 'E') then
        let j = if i2 + 1 < n && is_sign s.[i2 + 1] then i2 + 2 else i2 + 1 in
        let k = digits s j in
        if k > j then k else -1
      else i2
    in
    (* the mantissa [i0, i2) holds at least one digit besides its dot *)
    let dot = if i2 > i1 then 1 else 0 in
    if i3 = n && i2 - i0 > dot then
      Flonum (float_of_string s)
    else
      match s with
      | "+inf.0" -> Flonum Float.infinity
      | "-inf.0" -> Flonum Float.neg_infinity
      | "+nan.0" | "-nan.0" -> Flonum Float.nan
      | _ -> Not_a_number

(* Only a token that starts with a digit, or with a sign or a dot and a
   digit, or is spelled like [+inf.0] or [-nan.0], can be a number; any
   other token is a symbol without a parse.  So [-.5] and [+.5] are
   symbols, as [1+] and [...] are. *)
let looks_numeric s =
  let c0 = s.[0] in
  is_digit c0
  || String.length s > 1
     && (c0 = '-' || c0 = '+' || c0 = '.')
     && (is_digit s.[1] || (c0 <> '.' && (s.[1] = 'i' || s.[1] = 'n')))

let read_token st start =
  let i0 = st.idx in
  let i = token_end st i0 in
  if i = i0 then error st "empty token";
  st.idx <- i;
  let s = String.sub st.src i0 (i - i0) in
  if looks_numeric s then
    match parse_number s with
    | Fixnum n -> Int (n, start)
    | Flonum f -> Float (f, start)
    | Fixnum_overflow ->
        raise (Read_error ("fixnum out of range: " ^ s, start))
    | Not_a_number -> Sym (s, start)
  else Sym (s, start)

let read_char_literal st start =
  (* Cursor sits after "#\\". *)
  if at_eof st then raise (Read_error ("unterminated character literal", start));
  let i0 = st.idx in
  let first = peek st in
  advance st;
  (* Multi-character names are alphabetic; a lone char may be any char. *)
  if (first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') then
    st.idx <- token_end st st.idx;
  if st.idx = i0 + 1 then Char (first, start)
  else
    let s = String.sub st.src i0 (st.idx - i0) in
    match List.assoc_opt (String.lowercase_ascii s) named_chars with
    | Some c -> Char (c, start)
    | None -> raise (Read_error ("unknown character name #\\" ^ s, start))

let quote_wrapper name start datum =
  List ([ Sym (name, start); datum ], start)

let rec read_datum st =
  match skip_atmosphere st with
  | `Eof -> error st "unexpected end of input"
  | `Datum_comment ->
      ignore (read_datum st);
      read_datum st
  | `Datum -> (
      let start = here st in
      match peek st with
      | '(' | '[' ->
          let close = if peek st = '(' then ')' else ']' in
          advance st;
          read_list st start close st.sp
      | ')' | ']' -> error st "unexpected closing parenthesis"
      | '\'' ->
          advance st;
          quote_wrapper "quote" start (read_datum st)
      | '`' ->
          advance st;
          quote_wrapper "quasiquote" start (read_datum st)
      | ',' ->
          advance st;
          if peek st = '@' then begin
            advance st;
            quote_wrapper "unquote-splicing" start (read_datum st)
          end
          else quote_wrapper "unquote" start (read_datum st)
      | '"' -> read_string_literal st start
      | '#' -> (
          match peek2 st with
          | 't' | 'f' ->
              advance st;
              let b = peek st = 't' in
              advance st;
              if not (at_eof st || is_delimiter (peek st)) then
                error st "bad boolean literal";
              Bool (b, start)
          | '\\' ->
              advance st;
              advance st;
              read_char_literal st start
          | '(' ->
              advance st;
              advance st;
              read_vector st start st.sp
          | c -> error st (Printf.sprintf "unsupported # syntax: #%c" c))
      | _ -> read_token st start)

(* The elements of the list or vector being read sit on the stack from
   [base] up. *)
and read_list st start close base =
  match skip_atmosphere st with
  | `Eof -> raise (Read_error ("unterminated list", start))
  | `Datum_comment ->
      ignore (read_datum st);
      read_list st start close base
  | `Datum ->
      if peek st = close then begin
        advance st;
        List (pop_list st base [], start)
      end
      else if (peek st = ')' || peek st = ']') && peek st <> close then
        error st "mismatched bracket"
      else if peek st = '.' && is_delimiter (peek2 st) then begin
        advance st;
        let tail = read_datum st in
        (match skip_atmosphere st with
        | `Datum when peek st = close -> advance st
        | _ -> raise (Read_error ("malformed dotted list", start)));
        if st.sp = base then
          raise (Read_error ("dotted list with no head", start));
        match tail with
        | List (elems, _) -> List (pop_list st base elems, start)
        | Dotted (elems, final, _) ->
            Dotted (pop_list st base elems, final, start)
        | _ -> Dotted (pop_list st base [], tail, start)
      end
      else begin
        push st (read_datum st);
        read_list st start close base
      end

and read_vector st start base =
  match skip_atmosphere st with
  | `Eof -> raise (Read_error ("unterminated vector literal", start))
  | `Datum_comment ->
      ignore (read_datum st);
      read_vector st start base
  | `Datum ->
      if peek st = ')' then begin
        advance st;
        Vec (pop_list st base [], start)
      end
      else begin
        push st (read_datum st);
        read_vector st start base
      end

let rec read_top st =
  match skip_atmosphere st with
  | `Eof -> pop_list st 0 []
  | `Datum_comment ->
      ignore (read_datum st);
      read_top st
  | `Datum ->
      push st (read_datum st);
      read_top st

let read_all src = read_top (make_state src)

let read_one src =
  match read_all src with
  | [ d ] -> d
  | [] -> raise (Read_error ("no datum in input", pos ~line:1 ~col:0))
  | _ :: d :: _ ->
      raise (Read_error ("more than one datum in input", pos_of d))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

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

let char_name c =
  match c with
  | '\n' -> "#\\newline"
  | ' ' -> "#\\space"
  | '\t' -> "#\\tab"
  | '\000' -> "#\\nul"
  | '\r' -> "#\\return"
  | c -> Printf.sprintf "#\\%c" c

let float_external f =
  if f <> f then "+nan.0"
  else if f = Float.infinity then "+inf.0"
  else if f = Float.neg_infinity then "-inf.0"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf d =
  match d with
  | Sym (s, _) -> Buffer.add_string buf s
  | Int (n, _) -> Buffer.add_string buf (string_of_int n)
  | Float (f, _) -> Buffer.add_string buf (float_external f)
  | Str (s, _) -> Buffer.add_string buf (escape_string s)
  | Bool (b, _) -> Buffer.add_string buf (if b then "#t" else "#f")
  | Char (c, _) -> Buffer.add_string buf (char_name c)
  | List (elems, _) ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_char buf ')'
  | Dotted (elems, final, _) ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_string buf " . ";
      write buf final;
      Buffer.add_char buf ')'
  | Vec (elems, _) ->
      Buffer.add_string buf "#(";
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          write buf e)
        elems;
      Buffer.add_char buf ')'

let to_string d =
  let buf = Buffer.create 64 in
  write buf d;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Sym (x, _), Sym (y, _) -> String.equal x y
  | Int (x, _), Int (y, _) -> x = y
  | Float (x, _), Float (y, _) -> x = y
  | Str (x, _), Str (y, _) -> String.equal x y
  | Bool (x, _), Bool (y, _) -> x = y
  | Char (x, _), Char (y, _) -> x = y
  | List (xs, _), List (ys, _) -> equal_lists xs ys
  | Dotted (xs, x, _), Dotted (ys, y, _) -> equal_lists xs ys && equal x y
  | Vec (xs, _), Vec (ys, _) -> equal_lists xs ys
  | _ -> false

and equal_lists xs ys =
  List.length xs = List.length ys && List.for_all2 equal xs ys
