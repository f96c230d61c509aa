(* Numeric primitives across the four backends.

   Every row of [table] is one operator applied to literal arguments,
   with the expected result: the written value, or the rendered
   diagnostic when the call fails.  Each row runs in three forms on
   stack, closure, heap and oracle: the direct call (which the compiler
   may fold), a call through a global procedure whose parameters carry
   the arguments (the fused primitive site), and [apply] (the generic
   call path).  The error rows pin the exact type and arity messages, so
   a rewrite of the arithmetic cannot change what a user sees.

   The [inexact->exact] rows pin the fixnum range: an integral flonum
   outside [-2^62, 2^62) is an error, where [int_of_float] would return
   an unspecified fixnum.

   The NaN rows pin IEEE semantics: every comparison with a NaN is
   false, so [(= +nan.0 +nan.0)] and the sign tests of a NaN are #f.
   [eqv?] is not a numeric comparison: it compares flonums bit for bit.

   The [string->number] and [symbol?] rows pin the one decimal number
   grammar the reader and [string->number] share: OCaml and C literal
   syntax (underscores, radix prefixes, hex floats, bare [nan],
   surrounding blanks) is not a number, so [string->number] gives #f
   and the reader gives a symbol; a digit string outside the fixnum
   range is a flonum for [string->number]. *)

let case = Tutil.case

let max_int = "4611686018427387903"
let min_int = "-4611686018427387904"

let type_err who what =
  Printf.sprintf "error: [runtime] %s: expected number, got %s" who what

let arity_err who =
  Printf.sprintf "error: [runtime] %s: wrong number of arguments" who

(* A fresh table mapping 0.0 to 1 and +nan.0 to nan. *)
let zero_table =
  "(let ((h (make-hashtable))) (hashtable-set! h 0.0 1) (hashtable-set! h \
   +nan.0 'nan) h)"

(* (operator, arguments, expected) *)
let table =
  [
    (* fixnum and flonum mixes *)
    ("+", [ "1"; "2" ], "3");
    ("+", [ "1"; "2.5" ], "3.5");
    ("+", [ "2.5"; "1" ], "3.5");
    ("+", [ "1.5"; "2.5" ], "4.0");
    ("-", [ "10"; "2.5" ], "7.5");
    ("-", [ "1.5"; "0.5" ], "1.0");
    ("-", [ "3"; "5" ], "-2");
    ("*", [ "2"; "3.5" ], "7.0");
    ("*", [ "1.5"; "2" ], "3.0");
    ("*", [ "6"; "7" ], "42");
    ("<", [ "1"; "1.5" ], "#t");
    ("<", [ "2"; "1" ], "#f");
    ("=", [ "2"; "2.0" ], "#t");
    ("=", [ "2"; "3" ], "#f");
    (">", [ "2.5"; "2" ], "#t");
    ("<=", [ "2.0"; "2" ], "#t");
    (">=", [ "1"; "1.5" ], "#f");
    ("min", [ "1"; "2.0" ], "1.0");
    ("max", [ "1"; "2.0" ], "2.0");
    ("min", [ "4"; "2" ], "2");
    ("abs", [ "-5" ], "5");
    ("abs", [ "7" ], "7");
    ("abs", [ "-2.5" ], "2.5");
    ("exact->inexact", [ "5" ], "5.0");
    ("exact->inexact", [ "2.5" ], "2.5");
    ("zero?", [ "0" ], "#t");
    ("zero?", [ "0.0" ], "#t");
    ("zero?", [ "-0.0" ], "#t");
    ("zero?", [ "3" ], "#f");
    ("positive?", [ "1.5" ], "#t");
    ("positive?", [ "0" ], "#f");
    ("negative?", [ "-1" ], "#t");
    ("negative?", [ "0.0" ], "#f");
    (* zero arguments *)
    ("+", [], "0");
    ("*", [], "1");
    (* one argument *)
    ("+", [ "5" ], "5");
    ("+", [ "2.5" ], "2.5");
    ("*", [ "7" ], "7");
    ("-", [ "5" ], "-5");
    ("-", [ "2.5" ], "-2.5");
    ("-", [ "0" ], "0");
    ("-", [ "-7" ], "7");
    ("/", [ "2" ], "0.5");
    ("/", [ "1" ], "1");
    ("/", [ "4.0" ], "0.25");
    ("min", [ "3" ], "3");
    ("max", [ "2.5" ], "2.5");
    (* three or more arguments *)
    ("+", [ "1"; "2"; "3"; "4" ], "10");
    ("+", [ "1"; "2.5"; "3" ], "6.5");
    ("-", [ "10"; "1"; "2"; "3" ], "4");
    ("*", [ "1"; "2"; "3"; "4"; "5" ], "120");
    ("*", [ "2"; "0.5"; "3" ], "3.0");
    ("/", [ "60"; "2"; "3" ], "10");
    ("/", [ "60"; "2"; "8" ], "3.75");
    ("min", [ "3"; "1"; "2" ], "1");
    ("max", [ "1"; "3"; "2.0" ], "3.0");
    ("<", [ "1"; "2"; "3" ], "#t");
    ("<", [ "1"; "3"; "2" ], "#f");
    ("=", [ "1"; "1"; "1.0" ], "#t");
    ("<=", [ "1"; "1"; "2" ], "#t");
    (">=", [ "3"; "3"; "1" ], "#t");
    (">", [ "3"; "2"; "2" ], "#f");
    (* fixnum wraparound *)
    ("+", [ max_int; "1" ], min_int);
    ("-", [ min_int; "1" ], max_int);
    ("*", [ max_int; "2" ], "-2");
    ("-", [ min_int ], min_int);
    ("abs", [ min_int ], min_int);
    ("/", [ min_int; "-1" ], min_int);
    (* inexact->exact: the fixnums are the integral flonums in
       [-2^62, 2^62); outside that range the conversion is an error,
       not a wrapped or zero result *)
    ("inexact->exact", [ "3.0" ], "3");
    ("inexact->exact", [ "-4611686018427387904.0" ], min_int);
    ( "inexact->exact",
      [ "4611686018427387904.0" ],
      "error: [runtime] inexact->exact: out of fixnum range 4.61168601843e+18" );
    ( "inexact->exact",
      [ "1e300" ],
      "error: [runtime] inexact->exact: out of fixnum range 1e+300" );
    ( "inexact->exact",
      [ "-1e19" ],
      "error: [runtime] inexact->exact: out of fixnum range -1e+19" );
    ( "inexact->exact",
      [ "2.5" ],
      "error: [runtime] inexact->exact: not an integer 2.5" );
    (* the number grammar *)
    ("string->number", [ {|" 12"|} ], "#f");
    ("string->number", [ {|"nan"|} ], "#f");
    ("string->number", [ {|"0x1p3"|} ], "#f");
    ("string->number", [ {|"0x10"|} ], "#f");
    ("string->number", [ {|"1_000"|} ], "#f");
    ("string->number", [ {|"+inf.0"|} ], "+inf.0");
    ("string->number", [ {|"-17"|} ], "-17");
    ("string->number", [ {|"-.5"|} ], "-0.5");
    ("string->number", [ {|"1e3"|} ], "1000.0");
    ("string->number", [ {|"99999999999999999999"|} ], "1e+20");
    ("symbol?", [ "'1_000" ], "#t");
    ("symbol?", [ "'0x10" ], "#t");
    ("symbol?", [ "'-0x10" ], "#t");
    ("symbol?", [ "'0b11" ], "#t");
    ("symbol?", [ "'1e1_0" ], "#t");
    ("exact?", [ "1" ], "#t");
    ("exact?", [ "1.0" ], "#f");
    ("inexact?", [ "1.0" ], "#t");
    ("inexact?", [ "1" ], "#f");
    ("exact?", [ "'a" ], type_err "exact?" "symbol a");
    ("inexact?", [ "'a" ], type_err "inexact?" "symbol a");
    (* exact division *)
    ("/", [ "6"; "3" ], "2");
    ("/", [ "-6"; "3" ], "-2");
    ("/", [ "0"; "5" ], "0");
    ("/", [ "7"; "2" ], "3.5");
    ("/", [ "6"; "-4" ], "-1.5");
    ("/", [ "6.0"; "3" ], "2.0");
    ("/", [ "1"; "0.0" ], "+inf.0");
    ("/", [ "1"; "0" ], "error: [runtime] /: division by zero");
    ("/", [ "1.0"; "0" ], "error: [runtime] /: division by zero");
    ("/", [ "0" ], "error: [runtime] /: division by zero");
    (* IEEE NaN *)
    ("=", [ "+nan.0"; "+nan.0" ], "#f");
    ("<", [ "+nan.0"; "1.0" ], "#f");
    (">", [ "+nan.0"; "1.0" ], "#f");
    ("<=", [ "+nan.0"; "+nan.0" ], "#f");
    (">=", [ "1"; "+nan.0" ], "#f");
    ("<", [ "1"; "+nan.0" ], "#f");
    ("=", [ "1"; "+nan.0" ], "#f");
    ("<", [ "1"; "2"; "+nan.0" ], "#f");
    ("zero?", [ "+nan.0" ], "#f");
    ("positive?", [ "+nan.0" ], "#f");
    ("negative?", [ "+nan.0" ], "#f");
    ("max", [ "+nan.0"; "1" ], "+nan.0");
    (* eq?/eqv? compare flonums by their bits (R7RS 6.1): the two zeros
       differ and a NaN is itself, while [=] stays IEEE *)
    ("eqv?", [ "0.0"; "-0.0" ], "#f");
    ("eq?", [ "0.0"; "-0.0" ], "#f");
    ("equal?", [ "0.0"; "-0.0" ], "#f");
    ("=", [ "0.0"; "-0.0" ], "#t");
    ("eqv?", [ "1.5"; "1.5" ], "#t");
    ("eqv?", [ "1.0"; "1" ], "#f");
    ("eqv?", [ "+nan.0"; "+nan.0" ], "#t");
    ("memv", [ "+nan.0"; "(list 1 +nan.0)" ], "(+nan.0)");
    ("memv", [ "-0.0"; "(list 0.0)" ], "#f");
    (* hashtables key flonums like eqv? *)
    ("hashtable-contains?", [ zero_table; "-0.0" ], "#f");
    ("hashtable-contains?", [ zero_table; "0.0" ], "#t");
    ("hashtable-ref", [ zero_table; "+nan.0"; "'none" ], "nan");
    ( "hashtable-keys",
      [ "(let ((h (make-hashtable))) (hashtable-set! h -0.0 1) h)" ],
      "(-0.0)" );
    (* type errors, naming the offending argument *)
    ("+", [ "'a"; "1" ], type_err "+" "symbol a");
    ("+", [ "1"; "'a" ], type_err "+" "symbol a");
    ("+", [ "1"; "2"; "'a" ], type_err "+" "symbol a");
    ("+", [ "'a" ], type_err "+" "symbol a");
    ("+", [ "'a"; "'b" ], type_err "+" "symbol a");
    ("-", [ "'a" ], type_err "-" "symbol a");
    ("-", [ "1"; "\"s\"" ], type_err "-" "string \"s\"");
    ("*", [ "2"; "'b"; "'c" ], type_err "*" "symbol b");
    ("/", [ "'a"; "0" ], type_err "/" "symbol a");
    ("/", [ "1"; "'b" ], type_err "/" "symbol b");
    ("min", [ "'a"; "'b" ], type_err "min" "symbol a");
    ("max", [ "1"; "'b" ], type_err "max" "symbol b");
    ("abs", [ "'a" ], type_err "abs" "symbol a");
    ("exact->inexact", [ "'a" ], type_err "exact->inexact" "symbol a");
    ("zero?", [ "'a" ], type_err "zero?" "symbol a");
    ("positive?", [ "\"x\"" ], type_err "positive?" "string \"x\"");
    ("negative?", [ "#\\a" ], type_err "negative?" "character #\\a");
    ("sqrt", [ "'a" ], type_err "sqrt" "symbol a");
    ("floor", [ "'a" ], type_err "floor" "symbol a");
    ("expt", [ "'a"; "'b" ], type_err "expt" "symbol a");
    ("atan", [ "'a"; "'b" ], type_err "atan" "symbol b");
    (* a comparison checks its right operand first, and checks every
       argument even after a false step *)
    ("<", [ "'a"; "'b" ], type_err "<" "symbol b");
    ("<", [ "'a"; "1" ], type_err "<" "symbol a");
    ("<", [ "1"; "'a"; "'b" ], type_err "<" "symbol a");
    ("<", [ "2"; "1"; "'z" ], type_err "<" "symbol z");
    ("=", [ "'a"; "'b"; "'c" ], type_err "=" "symbol b");
    (* arity errors *)
    ("-", [], arity_err "-");
    ("/", [], arity_err "/");
    ("min", [], arity_err "min");
    ("<", [ "1" ], arity_err "<");
    ("=", [], arity_err "=");
    ("abs", [ "1"; "2" ], arity_err "abs");
    ("zero?", [], arity_err "zero?");
  ]

let backends =
  [
    ("stack", Scheme.Stack Control.default_config);
    ("closure", Scheme.Closure Control.default_config);
    ("heap", Scheme.Heap);
    ("oracle", Scheme.Oracle);
  ]

let render s src =
  match Scheme.eval ~fuel:Tutil.default_fuel s src with
  | v -> Values.write_string v
  | exception e -> (
      match Diag.of_exn e with
      | Some d -> Diag.to_string d
      | None -> raise e)

(* The three forms of one row; [n] names the row's global procedure. *)
let forms n (op, args, _) =
  let params = List.mapi (fun i _ -> Printf.sprintf "x%d" i) args in
  let f = Printf.sprintf "num-row-%d" n in
  [
    ("direct", Printf.sprintf "(%s)" (String.concat " " (op :: args)));
    ( "fused",
      Printf.sprintf "(define (%s %s) (%s)) (%s)" f (String.concat " " params)
        (String.concat " " (op :: params))
        (String.concat " " (f :: args)) );
    ( "apply",
      Printf.sprintf "(apply %s (list %s))" op (String.concat " " args) );
  ]

let table_case (bname, backend) =
  case (Printf.sprintf "numeric table [%s]" bname) (fun () ->
      let s = Scheme.create ~backend () in
      List.iteri
        (fun n ((op, args, expected) as row) ->
          List.iter
            (fun (form, src) ->
              Alcotest.(check string)
                (Printf.sprintf "%s (%s %s)" form op (String.concat " " args))
                expected (render s src))
            (forms n row))
        table)

(* A loop whose test is a NaN comparison runs the fused site with a
   flonum operand: it must take the false branch every time. *)
let nan_loop_case (bname, backend) =
  case (Printf.sprintf "NaN comparisons are false in a loop [%s]" bname)
    (fun () ->
      let s = Scheme.create ~backend () in
      Alcotest.(check string) "count" "0"
        (render s
           "(define (count-true x i acc)\n\
           \  (if (= i 0) acc\n\
           \      (count-true x (- i 1)\n\
           \        (if (or (= x x) (< x 1.0) (> x 1.0) (<= x x) (>= x x)\n\
           \                (zero? x) (positive? x) (negative? x))\n\
           \            (+ acc 1) acc))))\n\
            (count-true +nan.0 100 0)"))

let suite =
  List.map table_case backends @ List.map nan_loop_case backends
