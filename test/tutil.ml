(* Shared helpers for the test suites. *)

let default_fuel = 100_000_000

(* Evaluate on a fresh stack-VM session (prelude loaded); render with
   [write]. *)
let eval_stack ?(config = Control.default_config) ?(corpus = false) src =
  let s = Scheme.create ~backend:(Scheme.Stack config) () in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel:default_fuel s src

let eval_heap ?(corpus = false) src =
  let s = Scheme.create ~backend:Scheme.Heap () in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel:default_fuel s src

let eval_closure ?(config = Control.default_config) ?(corpus = false) src =
  let s = Scheme.create ~backend:(Scheme.Closure config) () in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel:default_fuel s src

let eval_oracle ?(corpus = false) src =
  let s = Scheme.create ~backend:Scheme.Oracle () in
  if corpus then Scheme.load_corpus s;
  Scheme.eval_string ~fuel:default_fuel s src

(* A config that forces the overflow/underflow machinery constantly. *)
let tiny_config =
  { Control.default_config with seg_words = 128; hysteresis_words = 24 }

let tiny_callcc_config =
  { tiny_config with Control.overflow_policy = Control.As_callcc }

let copy_capture_config =
  { Control.default_config with Control.capture = Control.Copy_on_capture }

let case name f = Alcotest.test_case name `Quick f

(* Check that evaluating [src] on the stack VM yields [expected] (written
   representation). *)
let check_eval ?config ?corpus name src expected =
  case name (fun () ->
      Alcotest.(check string) src expected (eval_stack ?config ?corpus src))

(* Same source, checked on the stack VM (default, tiny and copy-capture
   configs), the closure backend (default and tiny), the heap VM and the
   oracle. *)
let check_all ?corpus name src expected =
  [
    case (name ^ " [stack]") (fun () ->
        Alcotest.(check string) src expected (eval_stack ?corpus src));
    case (name ^ " [stack/tiny]") (fun () ->
        Alcotest.(check string) src expected
          (eval_stack ~config:tiny_config ?corpus src));
    case (name ^ " [stack/tiny-cc]") (fun () ->
        Alcotest.(check string) src expected
          (eval_stack ~config:tiny_callcc_config ?corpus src));
    case (name ^ " [stack/copy-capture]") (fun () ->
        Alcotest.(check string) src expected
          (eval_stack ~config:copy_capture_config ?corpus src));
    case (name ^ " [closure]") (fun () ->
        Alcotest.(check string) src expected (eval_closure ?corpus src));
    case (name ^ " [closure/tiny]") (fun () ->
        Alcotest.(check string) src expected
          (eval_closure ~config:tiny_config ?corpus src));
    case (name ^ " [heap]") (fun () ->
        Alcotest.(check string) src expected (eval_heap ?corpus src));
    case (name ^ " [oracle]") (fun () ->
        Alcotest.(check string) src expected (eval_oracle ?corpus src));
  ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Expect a Scheme-level error whose message contains [substr]. *)
let check_error ?config name src substr =
  case name (fun () ->
      match eval_stack ?config src with
      | v -> Alcotest.failf "expected error, got %s" v
      | exception Rt.Scheme_error (msg, _) ->
          if not (contains ~sub:substr msg) then
            Alcotest.failf "error %S does not mention %S" msg substr)

(* Expect Shot_continuation. *)
let check_shot ?config name src =
  case name (fun () ->
      match eval_stack ?config src with
      | v -> Alcotest.failf "expected shot-continuation error, got %s" v
      | exception Rt.Shot_continuation -> ())
