(* Reader/writer unit tests and the read-write round-trip property. *)

let case = Tutil.case

let read_to_string src = Sexp.to_string (Sexp.read_one src)

let check_read name src expected =
  case name (fun () ->
      Alcotest.(check string) src expected (read_to_string src))

let check_read_error name src =
  case name (fun () ->
      match Sexp.read_all src with
      | _ -> Alcotest.failf "expected read error for %S" src
      | exception Sexp.Read_error _ -> ())

let check_pos name src (line, col) =
  case name (fun () ->
      let ds = Sexp.read_all src in
      let p = Sexp.pos_of (List.nth ds (List.length ds - 1)) in
      Alcotest.(check (pair int int)) src (line, col) (Sexp.line p, Sexp.col p))

let check_error_at name src msg (line, col) =
  case name (fun () ->
      match Sexp.read_all src with
      | _ -> Alcotest.failf "expected read error for %S" src
      | exception Sexp.Read_error (m, p) ->
          Alcotest.(check (pair string (pair int int)))
            src
            (msg, (line, col))
            (m, (Sexp.line p, Sexp.col p)))

let number =
  Alcotest.testable
    (fun fmt -> function
      | Sexp.Fixnum n -> Format.fprintf fmt "Fixnum %d" n
      | Sexp.Flonum f -> Format.fprintf fmt "Flonum %h" f
      | Sexp.Fixnum_overflow -> Format.fprintf fmt "Fixnum_overflow"
      | Sexp.Not_a_number -> Format.fprintf fmt "Not_a_number")
    (fun a b ->
      match (a, b) with
      | Sexp.Flonum x, Sexp.Flonum y ->
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | _ -> a = b)

let check_number src expected =
  case ("parse_number " ^ src) (fun () ->
      Alcotest.check number src expected (Sexp.parse_number src))

(* One decimal grammar: OCaml and C literal syntax (underscores, radix
   prefixes, hex floats, bare inf/nan, surrounding blanks) is not a
   number, so such a token reads as a symbol. *)
let number_tests =
  [
    check_read "underscore digits are a symbol" "1_000" "1_000";
    check_read "hex prefix is a symbol" "0x10" "0x10";
    check_read "negative hex prefix is a symbol" "-0x10" "-0x10";
    check_read "binary prefix is a symbol" "0b11" "0b11";
    check_read "underscore exponent is a symbol" "1e1_0" "1e1_0";
    check_read "hex float is a symbol" "0x1p3" "0x1p3";
    check_read "exponent" "1e10" "10000000000.0";
    check_read "signed exponent" "-2.5E+3" "-2500.0";
    check_read "fraction alone" ".5" "0.5";
    check_read "trailing dot" "1." "1.0";
    check_read "signed fraction alone stays a symbol" "-.5" "-.5";
    check_read "+inf.0" "+inf.0" "+inf.0";
    check_read "-inf.0" "-inf.0" "-inf.0";
    check_read "+nan.0" "+nan.0" "+nan.0";
    check_read "bare inf is a symbol" "inf" "inf";
    check_read "peculiar +i" "+i" "+i";
    check_read "ellipsis" "..." "...";
    check_read "arrow" "->x" "->x";
    check_read "exponent without digits" "1e" "1e";
    check_number "42" (Sexp.Fixnum 42);
    check_number "+17" (Sexp.Fixnum 17);
    check_number "-4611686018427387904" (Sexp.Fixnum min_int);
    check_number "4611686018427387904" Sexp.Fixnum_overflow;
    check_number "-99999999999999999999" Sexp.Fixnum_overflow;
    check_number "-.5" (Sexp.Flonum (-0.5));
    check_number "1e+2" (Sexp.Flonum 100.);
    check_number "-inf.0" (Sexp.Flonum Float.neg_infinity);
    check_number "-nan.0" (Sexp.Flonum Float.nan);
    check_number " 12" Sexp.Not_a_number;
    check_number "12 " Sexp.Not_a_number;
    check_number "nan" Sexp.Not_a_number;
    check_number "inf" Sexp.Not_a_number;
    check_number "0x1p3" Sexp.Not_a_number;
    check_number "0x10" Sexp.Not_a_number;
    check_number "1_000" Sexp.Not_a_number;
    check_number "1e1_0" Sexp.Not_a_number;
    check_number "." Sexp.Not_a_number;
    check_number "+" Sexp.Not_a_number;
    check_number "" Sexp.Not_a_number;
    check_number "1e+" Sexp.Not_a_number;
    check_number "1+" Sexp.Not_a_number;
  ]

(* Exact positions: the column counts characters since the last newline
   (a tab and a carriage return are one column each). *)
let position_tests =
  [
    check_pos "token after CRLF" "a\r\n  b" (2, 2);
    check_pos "token after a tab" "\tx" (1, 1);
    check_pos "token after a multi-line string" "\"ab\ncd\" x" (2, 4);
    check_pos "token after a multi-line block comment" "#| a\n b |# x" (2, 6);
    check_pos "token after a datum comment" "#; (a\n b) c" (2, 4);
    check_pos "token after an escaped string" "\"a\\\"b\" c" (1, 7);
    check_error_at "unterminated string position" "(a\n \"abc"
      "unterminated string literal" (2, 1);
    check_error_at "stray close paren position" "a\r\n  )"
      "unexpected closing parenthesis" (2, 2);
    check_error_at "bad char name position" "x #\\bogus"
      "unknown character name #\\bogus" (1, 2);
    check_error_at "fixnum overflow position" "(a\n 99999999999999999999)"
      "fixnum out of range: 99999999999999999999" (2, 1);
    (* A position packs its column into one immediate with the line. *)
    (let long = String.make 1_200_000 'x' in
     check_pos "token after a string of 1.2M columns"
       ("\n\"" ^ long ^ "\" y") (2, 1_200_003));
    check_error_at "unterminated list after a string of 1.2M columns"
      ("\"" ^ String.make 1_200_000 'x' ^ "\" (1 2")
      "unterminated list" (1, 1_200_003);
  ]

let unit_tests =
  [
    check_read "symbol" "foo" "foo";
    check_read "weird symbol" "call/cc" "call/cc";
    check_read "arith symbols" "1+" "1+";
    check_read "fixnum" "42" "42";
    check_read "negative fixnum" "-17" "-17";
    check_read "explicit positive" "+17" "17";
    check_read "boolean true" "#t" "#t";
    check_read "boolean false" "#f" "#f";
    check_read "character" "#\\a" "#\\a";
    check_read "newline char" "#\\newline" "#\\newline";
    check_read "space char" "#\\space" "#\\space";
    check_read "string" {|"hello"|} {|"hello"|};
    check_read "string escapes" {|"a\"b\\c\nd"|} {|"a\"b\\c\nd"|};
    check_read "empty list" "()" "()";
    check_read "proper list" "(1 2 3)" "(1 2 3)";
    check_read "brackets" "[1 2]" "(1 2)";
    check_read "nested" "((a) (b (c)))" "((a) (b (c)))";
    check_read "dotted pair" "(1 . 2)" "(1 . 2)";
    check_read "dotted list" "(1 2 . 3)" "(1 2 . 3)";
    check_read "dot then list collapses" "(1 . (2 3))" "(1 2 3)";
    check_read "vector" "#(1 2 3)" "#(1 2 3)";
    check_read "quote sugar" "'x" "(quote x)";
    check_read "quasiquote sugar" "`x" "(quasiquote x)";
    check_read "unquote sugar" ",x" "(unquote x)";
    check_read "unquote-splicing sugar" ",@x" "(unquote-splicing x)";
    check_read "nested quotes" "''x" "(quote (quote x))";
    check_read "line comment" "; hi\n42" "42";
    check_read "block comment" "#| hi |# 42" "42";
    check_read "nested block comment" "#| a #| b |# c |# 42" "42";
    check_read "datum comment" "#;(1 2) 42" "42";
    check_read "datum comment in list" "(1 #;2 3)" "(1 3)";
    case "read_all several" (fun () ->
        Alcotest.(check int) "count" 3 (List.length (Sexp.read_all "1 2 3")));
    case "read_all empty input" (fun () ->
        Alcotest.(check int) "count" 0 (List.length (Sexp.read_all " ; c\n")));
    case "positions tracked" (fun () ->
        let d = Sexp.read_one "\n  foo" in
        let p = Sexp.pos_of d in
        Alcotest.(check int) "line" 2 (Sexp.line p);
        Alcotest.(check int) "col" 2 (Sexp.col p));
    check_read_error "unterminated list" "(1 2";
    check_read_error "unterminated string" {|"abc|};
    check_read_error "unterminated block comment" "#| xx";
    check_read_error "stray close paren" ")";
    check_read_error "mismatched bracket" "(1 2]";
    check_read_error "bad char name" "#\\bogus";
    check_read_error "bad hash syntax" "#q";
    check_read_error "dotted with no head" "( . 2)";
    case "read_one on two datums" (fun () ->
        match Sexp.read_one "1 2" with
        | _ -> Alcotest.fail "expected read error"
        | exception Sexp.Read_error _ -> ());
    check_read_error "fixnum overflow" "99999999999999999999999999";
  ]

(* Round-trip property: write then read gives a structurally equal datum. *)
let gen_datum =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun n -> Sexp.Int (n, Sexp.no_pos)) small_signed_int;
        map (fun n -> Sexp.Int (-n, Sexp.no_pos)) nat;
        map
          (fun f -> Sexp.Float (f, Sexp.no_pos))
          (oneof
             [
               map (fun f -> if Float.is_finite f then f else 0.5) float;
               oneofl [ Float.infinity; Float.neg_infinity; -0.25; 1e300 ];
             ]);
        map
          (fun s -> Sexp.Sym ((if s = "" then "x" else s), Sexp.no_pos))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
        map
          (fun s -> Sexp.Sym (s, Sexp.no_pos))
          (oneofl [ "+"; "-"; "..."; "1+"; "->x"; "a.b" ]);
        map (fun b -> Sexp.Bool (b, Sexp.no_pos)) bool;
        map (fun c -> Sexp.Char (c, Sexp.no_pos)) (char_range 'a' 'z');
        map
          (fun s -> Sexp.Str (s, Sexp.no_pos))
          (string_size ~gen:(char_range ' ' '~') (int_range 0 10));
        map
          (fun s -> Sexp.Str (s, Sexp.no_pos))
          (string_size
             ~gen:(frequency [ (4, char_range ' ' '~'); (1, return '\n') ])
             (int_range 0 10));
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          ( 2,
            map
              (fun l -> Sexp.List (l, Sexp.no_pos))
              (list_size (int_range 0 4) (go (depth - 1))) );
          ( 1,
            map
              (fun l -> Sexp.Vec (l, Sexp.no_pos))
              (list_size (int_range 0 3) (go (depth - 1))) );
          ( 1,
            map2
              (fun l last ->
                match l with
                | [] -> last
                | _ -> Sexp.Dotted (l, last, Sexp.no_pos))
              (list_size (int_range 1 3) (go (depth - 1)))
              atom );
        ]
  in
  go 4

let arb_datum = QCheck.make ~print:Sexp.to_string gen_datum

let roundtrip_prop =
  QCheck.Test.make ~name:"write/read round trip" ~count:500 arb_datum (fun d ->
      Sexp.equal d (Sexp.read_one (Sexp.to_string d)))

(* Reader robustness: any string gives either a datum list or a
   [Read_error] whose position lies inside the input (at most one past
   the last character of its line), never another exception. *)
let fuzz_case =
  case "random strings read or fail with a located Read_error" (fun () ->
      let alphabet = "()[]'`,@\"\\#;|.+-0123456789eExabinf_tu/ \t\n\r\012\000" in
      let r = Random.State.make [| 20 |] in
      for _ = 1 to 10_000 do
        let n = Random.State.int r 24 in
        let src =
          String.init n (fun _ ->
              alphabet.[Random.State.int r (String.length alphabet)])
        in
        match Sexp.read_all src with
        | _ -> ()
        | exception Sexp.Read_error (msg, p) ->
            let lines = String.split_on_char '\n' src in
            if
              Sexp.line p < 1
              || Sexp.line p > List.length lines
              || Sexp.col p < 0
              || Sexp.col p > String.length (List.nth lines (Sexp.line p - 1))
            then
              Alcotest.failf "%S: %s at %d:%d lies outside the input" src msg
                (Sexp.line p) (Sexp.col p)
        | exception e ->
            Alcotest.failf "%S raised %s" src (Printexc.to_string e)
      done)

let prop_tests = [ QCheck_alcotest.to_alcotest roundtrip_prop ]

let suite =
  unit_tests @ number_tests @ position_tests @ (fuzz_case :: prop_tests)
