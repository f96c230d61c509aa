exception Expand_error of string * Sexp.pos

let err pos msg = raise (Expand_error (msg, pos))

(* One expansion's state, threaded explicitly through every function:
   the macro environment (shared with the session so [define-syntax]
   persists), the hygiene switch, the macro-recursion depth and what is
   left of the current top-level form's instantiation budget.  No
   process-global ambient state — concurrent sessions on different
   domains expand independently. *)
type ctx = {
  menv : Macro.menv;
  hygiene : bool;
  depth : int ref; (* shared across [let-syntax] extensions of this ctx *)
  budget : int ref; (* likewise; reset for each top-level form *)
}

let make_ctx ?(hygiene = true) ?menv () =
  {
    menv = (match menv with Some m -> m | None -> Macro.create_menv ());
    hygiene;
    depth = ref 0;
    budget = ref Macro.instantiation_budget;
  }

(* Identifiers resolve against the definition environment by source
   name: strip hygiene marks wherever a name meets a keyword or the
   global/quoted-data world.  Lexical binders keep their marks, so a
   marked binder binds exactly the identically marked references its
   own expansion introduced. *)
let strip = Macro.strip_marks

(* The macro-recursion depth: one more around each use's expansion,
   taken back by the caller on both the normal and the exceptional
   path (a handler, not a [Fun.protect] closure per use). *)
let enter_use ctx kw pos =
  incr ctx.depth;
  if !(ctx.depth) > 500 then
    err pos ("macro expansion too deep (looping?): " ^ kw)

(* One use's instantiation, charged to the top-level form's budget.  A
   use that grows without bound (its template copying the use's
   arguments more than once) ends here, at the use's position. *)
let instantiate_use ctx kw pos rules form =
  try Macro.expand_use ~hygiene:ctx.hygiene ~budget:ctx.budget rules form
  with Macro.Too_large ->
    err pos
      (Printf.sprintf
         "macro expansion too large (over %d datums in one top-level form): %s"
         Macro.instantiation_budget kw)

(* Core forms a top-level macro of the same name does not shadow. *)
let is_core = function
  | "quote" | "lambda" | "if" | "set!" | "begin" | "define" | "let" | "let*"
  | "letrec" | "letrec*" | "cond" | "case" | "and" | "or" | "when" | "unless"
  | "do" | "delay" | "assert" | "case-lambda" | "quasiquote" | "let-syntax"
  | "letrec-syntax" ->
      true
  | _ -> false

let rec datum_to_value (d : Sexp.t) : Rt.value =
  match d with
  | Sexp.Sym (s, _) -> Rt.sym (strip s)
  | Sexp.Int (n, _) -> Values.of_int n
  | Sexp.Float (f, _) -> Rt.Flo f
  | Sexp.Str (s, _) -> Rt.Str (Bytes.of_string s)
  | Sexp.Bool (b, _) -> Values.of_bool b
  | Sexp.Char (c, _) -> Rt.Char c
  | Sexp.List (elems, _) -> Values.list_to_value (List.map datum_to_value elems)
  | Sexp.Dotted (elems, final, _) ->
      List.fold_right
        (fun e acc -> Values.cons (datum_to_value e) acc)
        elems (datum_to_value final)
  | Sexp.Vec (elems, _) ->
      Rt.Vec (Array.of_list (List.map datum_to_value elems))

let sym_name = function Sexp.Sym (s, _) -> Some s | _ -> None

(* Inverse of [datum_to_value], for (eval datum): runtime values that
   have a datum representation convert back to syntax. *)
let rec value_to_datum (v : Rt.value) : Sexp.t =
  let p = Sexp.no_pos in
  match v with
  | Rt.Sym s -> Sexp.Sym (s, p)
  | Rt.Fixnum -> Sexp.Int (Values.to_int v, p)
  | Rt.Flo f -> Sexp.Float (f, p)
  | Rt.Str b -> Sexp.Str (Bytes.to_string b, p)
  | Rt.Bool b -> Sexp.Bool (b, p)
  | Rt.Char c -> Sexp.Char (c, p)
  | Rt.Nil _ -> Sexp.List ([], p)
  | Rt.Pair _ ->
      let rec go acc v =
        match v with
        | Rt.Nil _ -> Sexp.List (List.rev acc, p)
        | Rt.Pair { car; cdr } -> go (value_to_datum car :: acc) cdr
        | final -> Sexp.Dotted (List.rev acc, value_to_datum final, p)
      in
      go [] v
  | Rt.Vec a ->
      Sexp.Vec (Array.to_list (Array.map value_to_datum a), p)
  | other ->
      raise
        (Rt.Scheme_error
           ("eval: value has no syntax: " ^ Values.write_string other, []))

let fresh =
  let counter = Atomic.make 0 in
  fun prefix ->
    Printf.sprintf "%s%%e%d" prefix (Atomic.fetch_and_add counter 1)

(* Positionless datum constructors used when synthesizing expansions. *)
let p0 = Sexp.no_pos
let dsym s = Sexp.Sym (s, p0)
let dlist l = Sexp.List (l, p0)

let begin_of pos = function
  | [] -> err pos "empty body"
  | [ e ] -> e
  | es -> Ast.Begin es

(* ------------------------------------------------------------------ *)
(* Quasiquote                                                          *)
(* ------------------------------------------------------------------ *)

(* Standard nested-quasiquote expansion into calls of cons/append/
   list->vector.  [depth] counts enclosing quasiquotes. *)
let rec qq_expand (d : Sexp.t) depth : Sexp.t =
  match d with
  | Sexp.List ([ Sexp.Sym (u, _); x ], _) when strip u = "unquote" ->
      if depth = 1 then x
      else
        dlist
          [ dsym "list"; dlist [ dsym "quote"; dsym "unquote" ];
            qq_expand x (depth - 1) ]
  | Sexp.List (Sexp.Sym (u, pos) :: _, _) when strip u = "unquote" ->
      err pos "unquote: expects exactly one form"
  | Sexp.List ([ Sexp.Sym (q, _); x ], _) when strip q = "quasiquote" ->
      dlist
        [ dsym "list"; dlist [ dsym "quote"; dsym "quasiquote" ];
          qq_expand x (depth + 1) ]
  | Sexp.List ([], _) -> dlist [ dsym "quote"; d ]
  | Sexp.List (elems, pos) -> qq_expand_list elems pos depth
  | Sexp.Dotted (elems, final, pos) -> qq_expand_dotted elems final pos depth
  | Sexp.Vec (elems, pos) ->
      dlist
        [ dsym "list->vector"; qq_expand_list elems pos depth ]
  | atom -> dlist [ dsym "quote"; atom ]

and qq_expand_list elems pos depth =
  qq_expand_dotted elems (Sexp.List ([], pos)) pos depth

and qq_expand_dotted elems final _pos depth =
  match elems with
  | [ Sexp.Sym (u, _); _ ]
    when strip u = "unquote" && final = Sexp.List ([], _pos) ->
      (* (a . ,e) reads as (a unquote e): unquote in tail position. *)
      qq_expand (dlist elems) depth
  | [] -> qq_expand final depth
  | first :: rest -> (
      let rest_exp = qq_expand_dotted rest final _pos depth in
      match first with
      | Sexp.List ([ Sexp.Sym (us, _); x ], _)
        when strip us = "unquote-splicing" ->
          if depth = 1 then dlist [ dsym "append"; x; rest_exp ]
          else
            dlist
              [ dsym "cons";
                dlist
                  [ dsym "list";
                    dlist [ dsym "quote"; dsym "unquote-splicing" ];
                    qq_expand x (depth - 1) ];
                rest_exp ]
      | _ -> dlist [ dsym "cons"; qq_expand first depth; rest_exp ])

(* ------------------------------------------------------------------ *)
(* Core expansion                                                      *)
(* ------------------------------------------------------------------ *)

let parse_params pos (formals : Sexp.t) : string list * string option =
  match formals with
  | Sexp.Sym (r, _) -> ([], Some r)
  | Sexp.List (ps, _) ->
      let names =
        List.map
          (fun p ->
            match sym_name p with
            | Some s -> s
            | None -> err pos "lambda: parameter is not a symbol")
          ps
      in
      (names, None)
  | Sexp.Dotted (ps, final, _) ->
      let names =
        List.map
          (fun p ->
            match sym_name p with
            | Some s -> s
            | None -> err pos "lambda: parameter is not a symbol")
          ps
      in
      let r =
        match sym_name final with
        | Some s -> s
        | None -> err pos "lambda: rest parameter is not a symbol"
      in
      (names, Some r)
  | _ -> err pos "lambda: malformed formals"

(* Rewrite a (define ...) body form into (name, rhs-datum).  Names keep
   their marks: internal definitions are lexical binders. *)
let parse_define pos (forms : Sexp.t list) : string * Sexp.t =
  match forms with
  | [ Sexp.Sym (x, _); rhs ] -> (x, rhs)
  | [ Sexp.Sym (x, _) ] -> (x, dlist [ dsym "begin" ])
  | Sexp.List (Sexp.Sym (f, _) :: formals, fpos) :: body ->
      (f, Sexp.List (dsym "lambda" :: Sexp.List (formals, fpos) :: body, pos))
  | Sexp.Dotted (Sexp.Sym (f, _) :: formals, rest, fpos) :: body ->
      ( f,
        Sexp.List
          (dsym "lambda" :: Sexp.Dotted (formals, rest, fpos) :: body, pos) )
  | _ -> err pos "define: malformed"

(* Extend [ctx] with the (name (syntax-rules ...)) bindings of a
   [let-syntax]/[letrec-syntax] form.  The environment is copied, so
   the bindings scope over the form's body only; both keywords get the
   letrec semantics (a rule body is resolved at use time, against the
   extended copy), which is sound for let-syntax and merely more
   permissive than R5RS requires. *)
let bind_syntax ctx pos binds =
  let menv = Hashtbl.copy ctx.menv in
  List.iter
    (function
      | Sexp.List ([ Sexp.Sym (name, _); rules_form ], _) ->
          Hashtbl.replace menv (strip name) (Macro.parse_syntax_rules rules_form)
      | _ -> err pos "let-syntax: each binding is (name (syntax-rules ...))")
    binds;
  { ctx with menv }

let rec expand ctx (d : Sexp.t) : Ast.t =
  match d with
  | Sexp.Sym (s, _) -> Ast.Var s
  | Sexp.Int _ | Sexp.Float _ | Sexp.Str _ | Sexp.Bool _ | Sexp.Char _
  | Sexp.Vec _ ->
      Ast.Quote (datum_to_value d)
  | Sexp.Dotted (_, _, pos) -> err pos "unexpected dotted list in expression"
  | Sexp.List ([], pos) -> err pos "empty application"
  | Sexp.List (op :: args, pos) -> (
      match op with
      | Sexp.Sym (s, _) -> expand_form ctx d (strip s) op args pos
      | _ -> Ast.App (expand ctx op, expand_list ctx args))

(* [List.map (expand ctx)], first form first, without a closure. *)
and expand_list ctx = function
  | [] -> []
  | d :: ds ->
      let a = expand ctx d in
      a :: expand_list ctx ds

(* [kw] is the head symbol's source name (marks stripped): keywords and
   the macro table live in the definition environment.  [form] is the
   whole form, handed to a macro as its use. *)
and expand_form ctx form kw op args pos =
  match (kw, args) with
  | "quote", [ d ] -> Ast.Quote (datum_to_value d)
  | "quote", _ -> err pos "quote: expects exactly one datum"
  | "quasiquote", [ d ] -> expand ctx (qq_expand d 1)
  | "quasiquote", _ -> err pos "quasiquote: expects exactly one datum"
  | ("unquote" | "unquote-splicing"), _ -> err pos (kw ^ ": outside quasiquote")
  | "if", [ t; c ] -> Ast.If (expand ctx t, expand ctx c, Ast.Quote Rt.void)
  | "if", [ t; c; a ] -> Ast.If (expand ctx t, expand ctx c, expand ctx a)
  | "if", _ -> err pos "if: expects two or three forms"
  | "set!", [ Sexp.Sym (x, _); e ] -> Ast.Set (x, expand ctx e)
  | "set!", _ -> err pos "set!: malformed"
  | "lambda", formals :: body when body <> [] ->
      let params, rest = parse_params pos formals in
      Ast.Lambda
        { params; rest; body = expand_body ctx pos body; lname = "lambda" }
  | "lambda", _ -> err pos "lambda: malformed"
  | "begin", [] -> Ast.Quote Rt.void
  | "begin", body -> begin_of pos (expand_list ctx body)
  | "define", _ -> err pos "define: only allowed at top level or body head"
  | "let", Sexp.Sym (loop, _) :: bindings :: body ->
      expand_named_let ctx pos loop bindings body
  | "let", bindings :: body when body <> [] ->
      let names, inits = parse_bindings pos bindings in
      let lam =
        Ast.Lambda
          { params = names; rest = None; body = expand_body ctx pos body;
            lname = "let" }
      in
      Ast.App (lam, expand_list ctx inits)
  | "let", _ -> err pos "let: malformed"
  | "let*", bindings :: body when body <> [] -> (
      match parse_binding_forms pos bindings with
      | [] -> expand ctx (Sexp.List (dsym "let" :: bindings :: body, pos))
      | [ _ ] -> expand ctx (Sexp.List (dsym "let" :: bindings :: body, pos))
      | first :: rest ->
          expand ctx
            (dlist
               [ dsym "let"; dlist [ first ];
                 Sexp.List
                   (dsym "let*" :: dlist rest :: body, pos) ]))
  | "let*", _ -> err pos "let*: malformed"
  | ("letrec" | "letrec*"), bindings :: body when body <> [] ->
      let names, inits = parse_bindings pos bindings in
      expand_letrec ctx pos names inits body
  | ("letrec" | "letrec*"), _ -> err pos (kw ^ ": malformed")
  | "cond", clauses -> expand_cond ctx pos clauses
  | "case", key :: clauses -> expand_case ctx pos key clauses
  | "case", _ -> err pos "case: malformed"
  | "and", [] -> Ast.Quote (Rt.Bool true)
  | "and", [ e ] -> expand ctx e
  | "and", e :: rest ->
      Ast.If
        (expand ctx e, expand_form ctx form "and" op rest pos,
         Ast.Quote (Rt.Bool false))
  | "or", [] -> Ast.Quote (Rt.Bool false)
  | "or", [ e ] -> expand ctx e
  | "or", e :: rest ->
      let t = fresh "or" in
      Ast.App
        ( Ast.Lambda
            { params = [ t ]; rest = None;
              body =
                Ast.If
                  (Ast.Var t, Ast.Var t, expand_form ctx form "or" op rest pos);
              lname = "or" },
          [ expand ctx e ] )
  | "when", test :: body when body <> [] ->
      Ast.If
        (expand ctx test, begin_of pos (expand_list ctx body),
         Ast.Quote Rt.void)
  | "unless", test :: body when body <> [] ->
      Ast.If
        (expand ctx test, Ast.Quote Rt.void,
         begin_of pos (expand_list ctx body))
  | "do", bindings :: test_exprs :: body ->
      expand_do ctx pos bindings test_exprs body
  | "do", _ -> err pos "do: malformed"
  | "delay", [ e ] ->
      expand ctx
        (dlist [ dsym "%make-promise"; dlist [ dsym "lambda"; dlist []; e ] ])
  | "delay", _ -> err pos "delay: expects exactly one form"
  | "assert", [ e ] ->
      Ast.If
        ( expand ctx e,
          Ast.Quote Rt.void,
          Ast.App
            ( Ast.Var "error",
              [
                Ast.Quote (Rt.sym "assert");
                Ast.Quote (Rt.Str (Bytes.of_string "assertion failed"));
                Ast.Quote (datum_to_value e);
              ] ) )
  | "assert", _ -> err pos "assert: expects exactly one form"
  | "case-lambda", clauses when clauses <> [] ->
      expand_case_lambda ctx pos clauses
  | ("let-syntax" | "letrec-syntax"), Sexp.List (binds, bpos) :: body
    when body <> [] ->
      expand_body (bind_syntax ctx bpos binds) pos body
  | ("let-syntax" | "letrec-syntax"), _ -> err pos (kw ^ ": malformed")
  | "define-syntax", _ ->
      err pos "define-syntax: only supported at top level"
  | _ -> (
      match Hashtbl.find_opt ctx.menv kw with
      | Some rules -> (
          enter_use ctx kw pos;
          match
            expand ctx (instantiate_use ctx kw pos rules form)
          with
          | x ->
              decr ctx.depth;
              x
          | exception e ->
              decr ctx.depth;
              raise e)
      | None -> Ast.App (expand ctx op, expand_list ctx args))

(* Bodies: a (possibly empty) prefix of internal definitions followed by
   expressions, treated as letrec* (R5RS 5.2.2). *)
and expand_body ctx pos body =
  let rec split defs forms =
    match forms with
    | Sexp.List (Sexp.Sym (d, _) :: dforms, dpos) :: rest
      when strip d = "define" ->
        split (parse_define dpos dforms :: defs) rest
    | Sexp.List (Sexp.Sym (b, _) :: inner, _) :: rest
      when strip b = "begin"
           && List.exists
                (function
                  | Sexp.List (Sexp.Sym (d, _) :: _, _) -> strip d = "define"
                  | _ -> false)
                inner ->
        (* (begin (define ...) ...) at body head splices. *)
        split defs (inner @ rest)
    | _ -> (List.rev defs, forms)
  in
  let defs, exprs = split [] body in
  if exprs = [] then err pos "body has no expression";
  match defs with
  | [] -> begin_of pos (expand_list ctx exprs)
  | _ ->
      let names = List.map fst defs in
      let inits = List.map snd defs in
      expand_letrec ctx pos names inits exprs

and expand_letrec ctx pos names inits body =
  (* ((lambda (x ...) (set! x init) ... body) #undefined ...) *)
  let sets =
    List.map2 (fun n i -> Ast.Set (n, expand ctx i)) names inits
  in
  let body_ast = expand_body ctx pos body in
  let full =
    match sets with [] -> body_ast | _ -> Ast.Begin (sets @ [ body_ast ])
  in
  Ast.App
    ( Ast.Lambda { params = names; rest = None; body = full; lname = "letrec" },
      List.map (fun _ -> Ast.Quote Rt.undef) names )

and parse_binding_forms pos bindings =
  match bindings with
  | Sexp.List (bs, _) -> bs
  | _ -> err pos "malformed binding list"

and parse_bindings pos bindings =
  let forms = parse_binding_forms pos bindings in
  let parse = function
    | Sexp.List ([ Sexp.Sym (x, _); init ], _) -> (x, init)
    | _ -> err pos "malformed binding"
  in
  let pairs = List.map parse forms in
  (List.map fst pairs, List.map snd pairs)

and expand_named_let ctx pos loop bindings body =
  let names, inits = parse_bindings pos bindings in
  (* (letrec ((loop (lambda (names) body))) (loop inits)) *)
  let lam =
    Sexp.List
      ( dsym "lambda"
        :: dlist (List.map dsym names)
        :: body,
        pos )
  in
  let letrec_form =
    dlist
      [ dsym "letrec";
        dlist [ dlist [ dsym loop; lam ] ];
        dlist (dsym loop :: inits) ]
  in
  expand ctx letrec_form

and expand_cond ctx pos clauses =
  match clauses with
  | [] -> Ast.Quote Rt.void
  | Sexp.List (Sexp.Sym (e, _) :: body, cpos) :: rest when strip e = "else" ->
      if rest <> [] then err cpos "cond: else clause must be last";
      begin_of cpos (expand_list ctx body)
  | Sexp.List ([ test ], _) :: rest ->
      (* (cond (e) ...): value of e if true *)
      let t = fresh "t" in
      Ast.App
        ( Ast.Lambda
            { params = [ t ]; rest = None;
              body = Ast.If (Ast.Var t, Ast.Var t, expand_cond ctx pos rest);
              lname = "cond" },
          [ expand ctx test ] )
  | Sexp.List ([ test; Sexp.Sym (arrow, _); receiver ], _) :: rest
    when strip arrow = "=>" ->
      let t = fresh "t" in
      Ast.App
        ( Ast.Lambda
            { params = [ t ]; rest = None;
              body =
                Ast.If
                  ( Ast.Var t,
                    Ast.App (expand ctx receiver, [ Ast.Var t ]),
                    expand_cond ctx pos rest );
              lname = "cond" },
          [ expand ctx test ] )
  | Sexp.List (test :: body, cpos) :: rest ->
      Ast.If
        (expand ctx test, begin_of cpos (expand_list ctx body),
         expand_cond ctx pos rest)
  | _ -> err pos "cond: malformed clause"

and expand_case ctx pos key clauses =
  let k = fresh "key" in
  let rec clause_chain clauses =
    match clauses with
    | [] -> Ast.Quote Rt.void
    | Sexp.List (Sexp.Sym (e, _) :: body, cpos) :: rest when strip e = "else"
      ->
        if rest <> [] then err cpos "case: else clause must be last";
        begin_of cpos (expand_list ctx body)
    | Sexp.List (Sexp.List (datums, _) :: body, cpos) :: rest ->
        let tests =
          List.map
            (fun d ->
              Ast.App
                ( Ast.Var "eqv?",
                  [ Ast.Var k; Ast.Quote (datum_to_value d) ] ))
            datums
        in
        let test =
          match tests with
          | [] -> Ast.Quote (Rt.Bool false)
          | [ t ] -> t
          | ts ->
              List.fold_right
                (fun t acc -> Ast.If (t, Ast.Quote (Rt.Bool true), acc))
                ts
                (Ast.Quote (Rt.Bool false))
        in
        Ast.If
          (test, begin_of cpos (expand_list ctx body), clause_chain rest)
    | _ -> err pos "case: malformed clause"
  in
  Ast.App
    ( Ast.Lambda
        { params = [ k ]; rest = None; body = clause_chain clauses;
          lname = "case" },
      [ expand ctx key ] )

(* (case-lambda (formals body...) ...) dispatches on argument count:
   expands to a rest-lambda applying the first matching clause. *)
and expand_case_lambda ctx pos clauses =
  let args = fresh "args" in
  let n = fresh "n" in
  let clause_test formals =
    (* only reached for fixed or dotted formals; bare-symbol formals match
       unconditionally and are handled before this *)
    match formals with
    | Sexp.List (ps, _) ->
        dlist [ dsym "="; dsym n; Sexp.Int (List.length ps, p0) ]
    | Sexp.Dotted (ps, _, _) ->
        dlist [ dsym ">="; dsym n; Sexp.Int (List.length ps, p0) ]
    | _ -> err pos "case-lambda: malformed formals"
  in
  let rec chain = function
    | [] ->
        dlist
          [ dsym "error"; dlist [ dsym "quote"; dsym "case-lambda" ];
            Sexp.Str ("no matching clause", p0) ]
    | Sexp.List (formals :: body, cpos) :: rest ->
        let apply_clause =
          dlist
            [ dsym "apply";
              Sexp.List (dsym "lambda" :: formals :: body, cpos);
              dsym args ]
        in
        (match formals with
        | Sexp.Sym _ -> apply_clause
        | _ -> dlist [ dsym "if"; clause_test formals; apply_clause; chain rest ])
    | _ -> err pos "case-lambda: malformed clause"
  in
  expand ctx
    (dlist
       [ dsym "lambda"; dsym args;
         dlist
           [ dsym "let";
             dlist [ dlist [ dsym n; dlist [ dsym "length"; dsym args ] ] ];
             chain clauses ] ])

and expand_do ctx pos bindings test_exprs body =
  let forms = parse_binding_forms pos bindings in
  let specs =
    List.map
      (function
        | Sexp.List ([ Sexp.Sym (x, _); init ], _) -> (x, init, dsym x)
        | Sexp.List ([ Sexp.Sym (x, _); init; step ], _) -> (x, init, step)
        | _ -> err pos "do: malformed binding")
      forms
  in
  let test, exprs =
    match test_exprs with
    | Sexp.List (test :: exprs, _) -> (test, exprs)
    | _ -> err pos "do: malformed test clause"
  in
  let loop = fresh "do" in
  let names = List.map (fun (x, _, _) -> dsym x) specs in
  let inits = List.map (fun (_, i, _) -> i) specs in
  let steps = List.map (fun (_, _, s) -> s) specs in
  let result =
    match exprs with
    | [] -> dlist [ dsym "begin" ]
    | [ e ] -> e
    | es -> dlist (dsym "begin" :: es)
  in
  let again = dlist (dsym loop :: steps) in
  let loop_body =
    dlist
      [ dsym "if"; test; result;
        dlist (dsym "begin" :: (body @ [ again ])) ]
  in
  let lam = dlist [ dsym "lambda"; dlist names; loop_body ] in
  expand ctx
    (dlist
       [ dsym "letrec";
         dlist [ dlist [ dsym loop; lam ] ];
         dlist (dsym loop :: inits) ])

(* Top-level define names are global: strip marks, so a macro-defined
   global is nameable by its source name (globals are the definition
   environment either way). *)
let expand_top_in ctx (d : Sexp.t) : Ast.top =
  match d with
  | Sexp.List (Sexp.Sym (df, _) :: forms, pos) when strip df = "define" ->
      let name, rhs = parse_define pos forms in
      let name = strip name in
      let rhs_ast = expand ctx rhs in
      let rhs_ast =
        (* Name top-level lambdas after the variable for diagnostics. *)
        match rhs_ast with
        | Ast.Lambda l -> Ast.Lambda { l with lname = name }
        | other -> other
      in
      Ast.Define (name, rhs_ast, pos)
  | other -> Ast.Expr (expand ctx other, Sexp.pos_of other)

(* (define-record-type name (ctor field ...) pred (field accessor [setter])
   ...): expands to tagged-vector definitions.  The tag is a fresh pair, so
   each expansion defines a distinct type.  Top-level only. *)
let expand_record_type pos (forms : Sexp.t list) : Sexp.t list =
  match forms with
  | Sexp.Sym (tname, _)
    :: Sexp.List (Sexp.Sym (ctor, _) :: ctor_fields, _)
    :: Sexp.Sym (pred, _)
    :: field_specs ->
      let field_name = function
        | Sexp.List (Sexp.Sym (f, _) :: _, _) -> f
        | _ -> err pos "define-record-type: malformed field spec"
      in
      let fields = List.map field_name field_specs in
      let index_of f =
        match List.find_index (String.equal f) fields with
        | Some i -> i + 1
        | None -> err pos ("define-record-type: unknown field " ^ f)
      in
      let tag = "%record-tag-" ^ tname in
      let nslots = List.length fields + 1 in
      let def_tag =
        dlist
          [ dsym "define"; dsym tag;
            dlist [ dsym "list"; dlist [ dsym "quote"; dsym tname ] ] ]
      in
      let ctor_args =
        List.map
          (fun a ->
            match sym_name a with
            | Some s -> s
            | None -> err pos "define-record-type: constructor args")
          ctor_fields
      in
      let def_ctor =
        (* allocate all slots, then fill the constructed ones *)
        let v = "%r" in
        dlist
          [ dsym "define";
            dlist (dsym ctor :: List.map dsym ctor_args);
            dlist
              ([ dsym "let";
                 dlist
                   [ dlist
                       [ dsym v;
                         dlist
                           [ dsym "make-vector"; Sexp.Int (nslots, p0);
                             Sexp.Bool (false, p0) ] ] ] ]
              @ [ dlist
                    [ dsym "vector-set!"; dsym v; Sexp.Int (0, p0); dsym tag ]
                ]
              @ List.map
                  (fun a ->
                    dlist
                      [ dsym "vector-set!"; dsym v;
                        Sexp.Int (index_of a, p0); dsym a ])
                  ctor_args
              @ [ dsym v ]) ]
      in
      let def_pred =
        dlist
          [ dsym "define"; dlist [ dsym pred; dsym "%v" ];
            dlist
              [ dsym "and";
                dlist [ dsym "vector?"; dsym "%v" ];
                dlist
                  [ dsym "="; dlist [ dsym "vector-length"; dsym "%v" ];
                    Sexp.Int (nslots, p0) ];
                dlist
                  [ dsym "eq?";
                    dlist [ dsym "vector-ref"; dsym "%v"; Sexp.Int (0, p0) ];
                    dsym tag ] ] ]
      in
      let field_defs =
        List.concat_map
          (fun spec ->
            match spec with
            | Sexp.List (Sexp.Sym (f, _) :: rest, _) ->
                let idx = Sexp.Int (index_of f, p0) in
                let guard body =
                  dlist
                    [ dsym "if"; dlist [ dsym pred; dsym "%v" ]; body;
                      dlist
                        [ dsym "error"; dlist [ dsym "quote"; dsym tname ];
                          Sexp.Str ("not a " ^ tname, p0); dsym "%v" ] ]
                in
                let acc =
                  match rest with
                  | Sexp.Sym (getter, _) :: _ ->
                      [ dlist
                          [ dsym "define";
                            dlist [ dsym getter; dsym "%v" ];
                            guard
                              (dlist [ dsym "vector-ref"; dsym "%v"; idx ]) ]
                      ]
                  | _ -> err pos "define-record-type: field needs accessor"
                in
                let set =
                  match rest with
                  | [ _; Sexp.Sym (setter, _) ] ->
                      [ dlist
                          [ dsym "define";
                            dlist [ dsym setter; dsym "%v"; dsym "%x" ];
                            guard
                              (dlist
                                 [ dsym "vector-set!"; dsym "%v"; idx;
                                   dsym "%x" ]) ]
                      ]
                  | [ _ ] -> []
                  | _ -> err pos "define-record-type: malformed field spec"
                in
                acc @ set
            | _ -> err pos "define-record-type: malformed field spec")
          field_specs
      in
      def_tag :: def_ctor :: def_pred :: field_defs
  | _ -> err pos "define-record-type: malformed"

(* Top-level (begin ...) splices (R5RS 5.1), so definitions inside it are
   top-level definitions. *)
let rec expand_tops_in ctx (d : Sexp.t) : Ast.top list =
  match d with
  | Sexp.List (Sexp.Sym (b, _) :: forms, _)
    when strip b = "begin" && forms <> [] ->
      List.concat_map (expand_tops_in ctx) forms
  | Sexp.List (Sexp.Sym (drt, _) :: forms, pos)
    when strip drt = "define-record-type" ->
      List.concat_map (expand_tops_in ctx) (expand_record_type pos forms)
  | Sexp.List ([ Sexp.Sym (ds, _); Sexp.Sym (name, _); rules_form ], _)
    when strip ds = "define-syntax" ->
      Hashtbl.replace ctx.menv (strip name)
        (Macro.parse_syntax_rules rules_form);
      []
  | Sexp.List (Sexp.Sym (ds, _) :: _, pos) when strip ds = "define-syntax" ->
      err pos "define-syntax: expected (define-syntax name (syntax-rules ...))"
  | Sexp.List (Sexp.Sym (kw0, _) :: _, pos) -> (
      let kw = strip kw0 in
      match Hashtbl.find_opt ctx.menv kw with
      | Some rules when not (is_core kw) -> (
          (* top-level macro use may expand into definitions *)
          enter_use ctx kw pos;
          match
            expand_tops_in ctx (instantiate_use ctx kw pos rules d)
          with
          | x ->
              decr ctx.depth;
              x
          | exception e ->
              decr ctx.depth;
              raise e)
      | _ -> [ expand_top_in ctx d ])
  | _ -> [ expand_top_in ctx d ]

(* Each top-level form starts with a full instantiation budget. *)
let expand_top_form ctx d =
  ctx.budget := Macro.instantiation_budget;
  expand_tops_in ctx d

let expand_program ?hygiene ?menv datums =
  let ctx = make_ctx ?hygiene ?menv () in
  List.concat_map (expand_top_form ctx) datums

let expand_string ?hygiene ?menv src =
  expand_program ?hygiene ?menv (Sexp.read_all src)

let expand_tops ?hygiene ?menv d = expand_tops_in (make_ctx ?hygiene ?menv ()) d
let expand ?hygiene ?menv d = expand (make_ctx ?hygiene ?menv ()) d
