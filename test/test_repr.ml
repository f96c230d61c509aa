(* The value representation: a fixnum is an immediate OCaml int, and
   [Rt.Fixnum] is the only constant constructor of [Rt.value], so a
   match tests [Is_long] and takes the [Fixnum] arm without comparing
   the immediate (DESIGN section 18.4).  These cases pin that codegen
   assumption on the compiler that builds them, for fixnums at both
   ends of the range and around the bounds of the shared table that
   boxed fixnums used to come from, and pin that no named constant
   ([Nil], [Void], [Eof], [Undef], [Underflow_mark]) is mistaken for a
   fixnum: immediate 0 in particular was once [Nil]. *)

let case = Tutil.case

let samples = [ min_int; -257; -1; 0; 1023; 1024; max_int ]

(* [Sys.opaque_identity] keeps the match a run-time test. *)
let is_fixnum v =
  match Sys.opaque_identity v with Rt.Fixnum -> true | _ -> false

let constants =
  [
    ("nil", Rt.nil);
    ("void", Rt.void);
    ("eof", Rt.eof);
    ("undef", Rt.undef);
    ("underflow_mark", Rt.underflow_mark);
  ]

let session () = Scheme.create ()

let fixnum_cases =
  List.map
    (fun n ->
      case (Printf.sprintf "fixnum %d takes the Fixnum arm" n) (fun () ->
          let v = Values.of_int n in
          Alcotest.(check bool) "Fixnum arm" true (is_fixnum v);
          Alcotest.(check int) "round trip" n (Values.to_int v);
          Alcotest.(check string) "printed" (string_of_int n)
            (Values.write_string v);
          Alcotest.(check string) "displayed" (string_of_int n)
            (Values.display_string v);
          (* eq?, eqv? and equal? compare fixnums by value *)
          let same = Values.of_int (Sys.opaque_identity n) in
          let other = Values.of_int (if n = max_int then n - 1 else n + 1) in
          List.iter
            (fun (pname, p) ->
              Alcotest.(check bool) (pname ^ " same") true (p v same);
              Alcotest.(check bool) (pname ^ " other") false (p v other);
              Alcotest.(check bool)
                (pname ^ " flonum") false
                (p v (Rt.Flo (float_of_int n)));
              List.iter
                (fun (cname, c) ->
                  Alcotest.(check bool) (pname ^ " " ^ cname) false (p v c))
                constants)
            [ ("eq", Values.eq); ("eqv", Values.eqv); ("equal", Values.equal) ];
          (* a hashtable key, and Scheme's own predicates, on a literal
             and on a computed copy of it *)
          let s = session () in
          let lit = string_of_int n in
          Alcotest.(check string) "hashtable key" "(found #t)"
            (Scheme.eval_string s
               (Printf.sprintf
                  "(let ((h (make-hashtable)))\n\
                  \  (hashtable-set! h %s 'found)\n\
                  \  (list (hashtable-ref h (+ %s 0) #f)\n\
                  \        (equal? (hashtable-keys h) (list %s))))"
                  lit lit lit));
          Alcotest.(check string) "eq?/eqv?/equal?" "(#t #t #t #f #f)"
            (Scheme.eval_string s
               (Printf.sprintf
                  "(let ((a %s) (b (- (+ %s 1) 1)))\n\
                  \  (list (eq? a b) (eqv? a b) (equal? a b) (null? a)\n\
                  \        (eqv? a (exact->inexact 1))))"
                  lit lit))))
    samples

let constant_cases =
  [
    case "named constants never take the Fixnum arm" (fun () ->
        List.iter
          (fun (name, c) ->
            Alcotest.(check bool) name false (is_fixnum c);
            Alcotest.(check bool) (name ^ " is not 0") false
              (Values.eq c (Values.of_int 0)))
          constants;
        Alcotest.(check (list string)) "printed"
          [ "()"; "#<void>"; "#<eof>"; "#<undefined>"; "#<underflow>" ]
          (List.map (fun (_, c) -> Values.write_string c) constants));
    case "each named constant is one block" (fun () ->
        (* the constructors take a payload no module but [Rt] can build,
           so the one block of each is the only one *)
        Alcotest.(check bool) "nil" true
          (match Rt.nil with Rt.Nil _ -> true | _ -> false);
        Alcotest.(check bool) "void" true
          (match Rt.void with Rt.Void _ -> true | _ -> false);
        Alcotest.(check bool) "eof" true
          (match Rt.eof with Rt.Eof _ -> true | _ -> false);
        Alcotest.(check bool) "undef" true
          (match Rt.undef with Rt.Undef _ -> true | _ -> false);
        Alcotest.(check bool) "underflow mark" true
          (match Rt.underflow_mark with Rt.Underflow_mark _ -> true | _ -> false);
        let s = session () in
        Alcotest.(check bool) "'() read by the reader" true
          (Scheme.eval s "'()" == Rt.nil);
        Alcotest.(check bool) "(void)" true (Scheme.eval s "(void)" == Rt.void);
        Alcotest.(check bool) "read-from-string at the end" true
          (Scheme.eval s "(read-from-string \"\")" == Rt.eof));
    case "0 is a fixnum, not the empty list" (fun () ->
        let s = session () in
        Alcotest.(check string) "predicates" "(#f #t #f #t #f)"
          (Scheme.eval_string s
             "(list (null? 0) (null? '()) (eq? 0 '()) (integer? 0) (pair? 0))"));
  ]

(* [Rt.set_slot] writes an immediate over an immediate without the
   barrier.  Every other store must still take it: a young block stored
   over an immediate in a major-heap array must be found by the next
   minor collection, or the slot dangles. *)
let barrier_cases =
  [
    case "set_slot keeps the barrier for stores that need it" (fun () ->
        let a = Array.make 1024 (Values.of_int 7) in
        Gc.full_major ();
        (* immediate over immediate: no barrier, the value lands *)
        Rt.set_slot a 1 (Values.of_int max_int);
        Alcotest.(check int) "fixnum over fixnum" max_int (Values.to_int a.(1));
        (* young block over immediate, then over a block, then an
           immediate over a block *)
        for round = 1 to 3 do
          Rt.set_slot a 2 (Values.cons (Values.of_int round) Rt.nil);
          Rt.set_slot a 3 (Values.cons (Values.of_int (-round)) Rt.nil);
          Rt.set_slot a 3 (Values.cons (Values.of_int (10 * round)) Rt.nil);
          Gc.minor ();
          Gc.compact ();
          Alcotest.(check string) "young pair over a fixnum"
            (Printf.sprintf "(%d)" round)
            (Values.write_string a.(2));
          Alcotest.(check string) "young pair over a pair"
            (Printf.sprintf "(%d)" (10 * round))
            (Values.write_string a.(3));
          Rt.set_slot a 2 (Values.of_int min_int);
          Alcotest.(check int) "fixnum over a pair" min_int (Values.to_int a.(2))
        done);
  ]

let suite = fixnum_cases @ constant_cases @ barrier_cases
