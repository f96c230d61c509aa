(* Golden tests for the unified diagnostic surface (DESIGN.md §17):
   one failure per pipeline layer, rendered through the one printer
   [Diag.to_string] with the exact line:col the layer reports.

   Positions are 1-based lines and 0-based columns, as the reader
   produces them. *)

open Tutil

(* Render the diagnostic an exception converts to, the way drivers do:
   layer exceptions the frontend cannot see (compiler, verifier) are
   folded in first, then {!Diag.of_exn}. *)
let diag_of_exn ?pos = function
  | Compiler.Compile_error (msg, p) ->
      let pos = match p with Some _ -> p | None -> pos in
      Some (Diag.error ?pos Diag.Compiler msg)
  | Verify.Error msg -> Some (Diag.error ?pos Diag.Verify msg)
  | e -> Diag.of_exn ?pos e

let render ?pos e =
  match diag_of_exn ?pos e with
  | Some d -> Diag.to_string d
  | None -> Alcotest.fail "exception did not convert to a diagnostic"

let check_exn name expected f =
  case name (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected an exception"
      | exception e -> Alcotest.(check string) "diagnostic" expected (render e))

let reader_case =
  check_exn "reader error carries the offending position"
    "2:3: error: [read] unterminated string literal" (fun () ->
      Sexp.read_all "(a)\n(b \"oops)")

let expander_case =
  check_exn "expander error points at the bad form"
    "2:2: error: [expand] if: expects two or three forms" (fun () ->
      Expander.expand_string "(define x 1)\n  (if)")

let macro_case =
  check_exn "macro mismatch points at the use site"
    "2:1: error: [macro] no syntax-rules pattern matches this use" (fun () ->
      Expander.expand_string
        "(define-syntax m (syntax-rules () ((_ a) a)))\n (m 1 2)")

(* The compiler works over the position-free core AST; [compile_top]
   stamps its failures with the enclosing top-level form's span.  User
   source cannot reach a compile failure (unbound names legally become
   global references), so the exception is constructed — what is under
   test is the driver-side conversion and the shared printer. *)
let compiler_case =
  check_exn "compiler error renders with its form-level span"
    "3:4: error: [compile] compiler: unallocated binding x" (fun () ->
      raise
        (Compiler.Compile_error
           ( "compiler: unallocated binding x",
             Some (Sexp.pos ~line:3 ~col:4) )))

(* Verifier violations are properties of fused bytecode, not of a source
   span: the diagnostic drops the position prefix. *)
let verify_case =
  check_exn "verifier error renders without a position"
    "error: [verify] enter: frame_words 1 below minimum 2" (fun () ->
      raise (Verify.Error "enter: frame_words 1 below minimum 2"))

(* Runtime errors carry no position of their own; the driver supplies
   the span of the failing top-level form (per-datum evaluation). *)
let runtime_case =
  case "runtime error adopts the failing form's position" (fun () ->
      let s = Scheme.create () in
      let datums = Sexp.read_all "(define (f) (car 5))\n(+ 1\n (f))" in
      let rec go = function
        | [] -> Alcotest.fail "expected a runtime error"
        | d :: rest -> (
            match Scheme.eval_datum s d with
            | _ -> go rest
            | exception e ->
                Alcotest.(check string)
                  "diagnostic" "2:0: error: [runtime] car: expected pair, got fixnum 5"
                  (render ~pos:(Sexp.pos_of d) e))
      in
      go datums)

let shot_case =
  check_exn "shot continuation renders as a runtime diagnostic"
    "error: [runtime] one-shot continuation invoked twice" (fun () ->
      let s = Scheme.create () in
      Scheme.eval s
        "(define k2 #f)\n\
         (+ 1 (%call/1cc (lambda (k) (set! k2 k) (k 0))))\n\
         (k2 0)")

(* Lint findings are the same Diag.t, tagged with the rule slug. *)
let lint_case =
  case "lint diagnostic renders through the same printer" (fun () ->
      match Lint.lint_string "(let ((unused 1)) 2)" with
      | [ d ] ->
          Alcotest.(check string)
            "diagnostic"
            "1:7: warning: [unused-binding] binding unused is never referenced"
            (Diag.to_string d)
      | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds))

(* --expand's rendering of hygiene marks: the unprintable mark character
   prints as name#n (the counter is process-global, so only the prefix
   is pinned). *)
let mark_rendering_case =
  case "Ast.to_string renders hygiene marks as name#n" (fun () ->
      let tops =
        Expander.expand_string
          "(define-syntax swap!\n\
          \  (syntax-rules ()\n\
          \    ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))\n\
           (define x 1)\n\
           (define y 2)\n\
           (swap! x y)"
      in
      let printed = String.concat "\n" (List.map Ast.top_to_string tops) in
      if not (contains ~sub:"tmp#" printed) then
        Alcotest.failf "no marked identifier in %s" printed;
      if String.contains printed Macro.mark_char then
        Alcotest.failf "raw mark character leaked into %s" printed)

let top_pos_case =
  case "expanded tops carry their surface positions" (fun () ->
      match Expander.expand_string "(define a 1)\n  (+ a 1)" with
      | [ t1; t2 ] ->
          Alcotest.(check (pair int int))
            "define pos" (1, 0)
            (let p = Ast.top_pos t1 in
             (Sexp.line p, Sexp.col p));
          Alcotest.(check (pair int int))
            "expr pos" (2, 2)
            (let p = Ast.top_pos t2 in
             (Sexp.line p, Sexp.col p))
      | tops -> Alcotest.failf "expected 2 tops, got %d" (List.length tops))

let suite =
  [
    reader_case;
    expander_case;
    macro_case;
    compiler_case;
    verify_case;
    runtime_case;
    shot_case;
    lint_case;
    mark_rendering_case;
    top_pos_case;
  ]
