(* Source-level lint over reader output (DESIGN.md §16).

   The pass runs on [Sexp.t] datums — before expansion — because the
   reader is the only layer that carries source positions; the walker
   therefore understands the surface binding forms structurally
   (lambda/let/let*/letrec/named let/do/case-lambda/define) instead of
   reusing [Ast.t], which is position-free.

   Three rule families:

   - [multi-shot-1cc]: a continuation bound by a literal
     [(call/1cc (lambda (k) ...))] (or [%call/1cc]) that is invoked on
     more than one path of the receiver body is a definite shot-record
     error (the paper's one-shot restriction) — reported as an error.
     A continuation that both escapes as a value and is invoked in the
     receiver body is a possible multi-shot — reported as a warning.
     Escape-only captures (the engine/error-handler idiom: the
     continuation is stored and invoked elsewhere, once) and invocations
     inside nested lambdas (whose call counts are unknowable statically)
     are not flagged.

   - [fused-prim-set]: [set!] of a global currently bound to a pure
     primitive deoptimizes every inline-cached call site the peephole
     layer compiled against that binding — legal, but almost always a
     performance bug.  Lexically-bound and program-redefined names are
     exempt.

   - [unused-binding]: a [let]/[let*]/[letrec]/named-let/[do] binding
     that is never referenced.  Lambda parameters are exempt (arity is
     interface, not implementation), as are names starting with [_] or
     [%]. *)

(* Lint reports in the pipeline-wide diagnostic currency (DESIGN.md
   §17): a lint finding is a [Diag.t] whose layer is [Lint] and whose
   [rule] slug names the rule family, rendered by the one shared
   printer. *)
type severity = Diag.severity = Error | Warning
type diagnostic = Diag.t

let to_string = Diag.to_string

(* Standard pure primitives assumed fusable when no global table is
   supplied (matching the prelude's bindings); with [?globals] the
   actual binding is consulted instead. *)
let default_fused =
  [
    "+"; "-"; "*"; "quotient"; "remainder"; "="; "<"; ">"; "<="; ">=";
    "abs"; "zero?"; "not"; "null?"; "eq?"; "eqv?"; "equal?"; "car"; "cdr";
    "cons"; "pair?"; "length"; "list"; "append"; "reverse"; "vector-ref";
    "vector-set!"; "vector-length"; "make-vector"; "vector?"; "vector";
    "string-length"; "string-ref"; "substring"; "string-append"; "symbol?";
    "string?"; "number?"; "procedure?"; "boolean?"; "char?"; "list-tail";
    "memq"; "member"; "assq"; "assoc";
  ]

type var = { v_name : string; v_pos : Sexp.pos; mutable v_used : bool }

type st = {
  mutable diags : diagnostic list;
  globals : Globals.t option;
  redefined : (string, unit) Hashtbl.t; (* toplevel (define name ...) *)
}

let report st pos severity rule message =
  st.diags <- Diag.make ~severity ~rule ~pos Diag.Lint message :: st.diags

let bound env name = List.mem_assoc name env

let use env name =
  match List.assoc_opt name env with Some v -> v.v_used <- true | None -> ()

let new_var name pos = { v_name = name; v_pos = pos; v_used = false }

let exempt name =
  String.length name = 0 || name.[0] = '_' || name.[0] = '%'

let report_unused st vars =
  List.iter
    (fun v ->
      if (not v.v_used) && not (exempt v.v_name) then
        report st v.v_pos Warning "unused-binding"
          (Printf.sprintf "binding %s is never referenced" v.v_name))
    vars

let fused_prim st name =
  match st.globals with
  | Some g -> (
      match Globals.lookup_opt g name with
      | Some (Rt.Prim { Rt.pfn = Rt.Pure _; _ }) -> true
      | _ -> false)
  | None -> List.mem name default_fused

(* ---------------- one-shot continuation analysis ---------------- *)

(* Count definite invocations of [k] in the receiver body: sequences
   add, exclusive conditional arms take the maximum, loop bodies count
   like straight-line code (a direct invocation aborts the loop, so
   iteration cannot re-reach it), nested lambdas contribute nothing
   (their call counts are unknown).  Any appearance of [k] outside
   operator position marks it escaped.  Counts saturate at 2. *)
let analyze_k kname body =
  let escaped = ref false in
  let cap n = min n 2 in
  let rec counts depth ds = cap (List.fold_left (fun a d -> a + count depth d) 0 ds)
  and count depth (d : Sexp.t) =
    match d with
    | Sexp.Sym (n, _) when String.equal n kname ->
        escaped := true;
        0
    | Sexp.Sym _ | Sexp.Int _ | Sexp.Float _ | Sexp.Str _ | Sexp.Bool _
    | Sexp.Char _ | Sexp.Vec _ | Sexp.Dotted _ ->
        0
    | Sexp.List ([], _) -> 0
    | Sexp.List (Sexp.Sym (head, _) :: rest, _) -> special depth head rest d
    | Sexp.List (items, _) -> counts depth items
  (* Does this binder list rebind [kname]?  If so the subtree below it
     refers to a different variable. *)
  and rebinds names = List.exists (String.equal kname) names
  and formals_names = function
    | Sexp.Sym (n, _) -> [ n ]
    | Sexp.List (ps, _) ->
        List.filter_map (function Sexp.Sym (n, _) -> Some n | _ -> None) ps
    | Sexp.Dotted (ps, Sexp.Sym (r, _), _) ->
        r :: List.filter_map (function Sexp.Sym (n, _) -> Some n | _ -> None) ps
    | _ -> []
  and binding_names bindings =
    match bindings with
    | Sexp.List (bs, _) ->
        List.filter_map
          (function
            | Sexp.List (Sexp.Sym (n, _) :: _, _) -> Some n
            | _ -> None)
          bs
    | _ -> []
  and special depth head rest d =
    match (head, rest) with
    | "quote", _ -> 0
    | ("lambda" | "delay"), formals :: body ->
        if head = "lambda" && rebinds (formals_names formals) then 0
        else (
          ignore
            (counts (depth + 1)
               (if head = "lambda" then body else formals :: body));
          0)
    | "case-lambda", clauses ->
        List.iter
          (function
            | Sexp.List (formals :: body, _) ->
                if not (rebinds (formals_names formals)) then
                  ignore (counts (depth + 1) body)
            | _ -> ())
          clauses;
        0
    | "if", [ t; c ] -> cap (count depth t + count depth c)
    | "if", [ t; c; a ] ->
        cap (count depth t + max (count depth c) (count depth a))
    | ("cond" | "case"), clauses ->
        let clauses =
          if head = "case" then
            match clauses with
            | key :: cls ->
                ignore (count depth key);
                (* clause heads are datum lists, not expressions *)
                List.map
                  (function
                    | Sexp.List (_ :: body, p) -> Sexp.List (body, p)
                    | c -> c)
                  cls
            | [] -> []
          else clauses
        in
        cap
          (List.fold_left
             (fun m c ->
               match c with
               | Sexp.List (items, _) ->
                   let items =
                     List.filter
                       (function Sexp.Sym (("else" | "=>"), _) -> false | _ -> true)
                       items
                   in
                   max m (counts depth items)
               | _ -> m)
             0 clauses)
    | ("and" | "or"), es ->
        (* short-circuit: at most one arm's invocation is definite *)
        cap (List.fold_left (fun m e -> max m (count depth e)) 0 es)
    | "do", bindings :: restforms ->
        let names = binding_names bindings in
        let inits =
          match bindings with
          | Sexp.List (bs, _) ->
              List.concat_map
                (function
                  | Sexp.List (_ :: init :: _, _) -> [ init ]
                  | _ -> [])
                bs
          | _ -> []
        in
        let c_inits = counts depth inits in
        if rebinds names then c_inits
        else
          (* a direct invocation aborts the loop, so iteration cannot
             re-reach it: the body counts like a straight-line sequence *)
          cap (c_inits + counts depth restforms)
    | ("let" | "let*" | "letrec" | "letrec*"), Sexp.Sym (nm, _) :: bindings :: body
      ->
        (* named let *)
        let names = nm :: binding_names bindings in
        let inits =
          match bindings with
          | Sexp.List (bs, _) ->
              List.concat_map
                (function Sexp.List (_ :: init :: _, _) -> [ init ] | _ -> [])
                bs
          | _ -> []
        in
        let c_inits = counts depth inits in
        if rebinds names then c_inits
        else
          (* as with [do]: a direct invocation aborts the loop, so the
             named-let body counts like a straight-line sequence *)
          cap (c_inits + counts depth body)
    | ("let" | "let*" | "letrec" | "letrec*"), bindings :: body ->
        let names = binding_names bindings in
        let inits =
          match bindings with
          | Sexp.List (bs, _) ->
              List.concat_map
                (function Sexp.List (_ :: init :: _, _) -> [ init ] | _ -> [])
                bs
          | _ -> []
        in
        let c_inits = counts depth inits in
        cap (c_inits + if rebinds names then 0 else counts depth body)
    | "set!", [ Sexp.Sym (n, _); rhs ] ->
        if String.equal n kname then ignore (count depth rhs)
        else ();
        count depth rhs
    | "quasiquote", _ -> 0 (* unquoted invocations are too rare to chase *)
    | ("define" | "define-syntax" | "define-record-type"), _ -> 0
    | _, _ -> (
        (* application or simple special form; [k] or [apply k] in
           operator position is an invocation *)
        match d with
        | Sexp.List (Sexp.Sym (h, _) :: args, _)
          when String.equal h kname ->
            cap ((if depth = 0 then 1 else 0) + counts depth args)
        | Sexp.List
            (Sexp.Sym ("apply", _) :: Sexp.Sym (h, _) :: args, _)
          when String.equal h kname ->
            cap ((if depth = 0 then 1 else 0) + counts depth args)
        | Sexp.List (items, _) -> counts depth items
        | _ -> 0)
  in
  let c = counts 0 body in
  (c, !escaped)

let check_call1cc st op pos (receiver : Sexp.t) =
  match receiver with
  | Sexp.List (Sexp.Sym ("lambda", _) :: Sexp.List ([ Sexp.Sym (k, _) ], _) :: body, _)
    ->
      let invocations, escaped = analyze_k k body in
      if invocations >= 2 then
        report st pos Error "multi-shot-1cc"
          (Printf.sprintf
             "continuation %s captured by %s is invoked on more than one \
              path; one-shot continuations may be invoked at most once"
             k op)
      else if escaped && invocations = 1 then
        report st pos Warning "multi-shot-1cc"
          (Printf.sprintf
             "continuation %s captured by %s escapes and is also invoked \
              here; invoking the stored continuation again would raise a \
              shot-continuation error"
             k op)
  | _ -> ()

(* ---------------- main walker ---------------- *)

let rec walk st env (d : Sexp.t) =
  match d with
  | Sexp.Sym (name, _) -> use env name
  | Sexp.Int _ | Sexp.Float _ | Sexp.Str _ | Sexp.Bool _ | Sexp.Char _
  | Sexp.Vec _ | Sexp.Dotted _ ->
      ()
  | Sexp.List ([], _) -> ()
  | Sexp.List (Sexp.Sym (head, _) :: rest, pos) when not (bound env head) ->
      special st env head rest pos
  | Sexp.List (items, _) -> List.iter (walk st env) items

and walk_body st env forms = List.iter (walk st env) forms

and formals_env formals =
  match formals with
  | Sexp.Sym (n, p) -> [ (n, new_var n p) ]
  | Sexp.List (ps, _) ->
      List.filter_map
        (function Sexp.Sym (n, p) -> Some (n, new_var n p) | _ -> None)
        ps
  | Sexp.Dotted (ps, rest, _) ->
      (match rest with Sexp.Sym (n, p) -> [ (n, new_var n p) ] | _ -> [])
      @ List.filter_map
          (function Sexp.Sym (n, p) -> Some (n, new_var n p) | _ -> None)
          ps
  | _ -> []

and walk_quasi st env (d : Sexp.t) =
  match d with
  | Sexp.List ([ Sexp.Sym (("unquote" | "unquote-splicing"), _); e ], _) ->
      walk st env e
  | Sexp.List (items, _) | Sexp.Vec (items, _) ->
      List.iter (walk_quasi st env) items
  | _ -> ()

and let_bindings bindings =
  match bindings with
  | Sexp.List (bs, _) ->
      List.filter_map
        (function
          | Sexp.List ([ Sexp.Sym (n, p); init ], _) -> Some (n, p, init)
          | _ -> None)
        bs
  | _ -> []

and special st env head rest pos =
  match (head, rest) with
  | "quote", _ -> ()
  | "quasiquote", [ q ] -> walk_quasi st env q
  | ("define-syntax" | "syntax-rules" | "define-record-type"), _ -> ()
  | "lambda", formals :: body ->
      let params = formals_env formals in
      walk_body st (params @ env) body
  | "case-lambda", clauses ->
      List.iter
        (function
          | Sexp.List (formals :: body, _) ->
              walk_body st (formals_env formals @ env) body
          | _ -> ())
        clauses
  | "define", Sexp.List (Sexp.Sym (n, _) :: params, ppos) :: body ->
      if env = [] then Hashtbl.replace st.redefined n ();
      let formals =
        match params with
        | [] -> Sexp.List ([], ppos)
        | _ -> Sexp.List (params, ppos)
      in
      walk_body st (formals_env formals @ env) body
  | "define", Sexp.Dotted (Sexp.Sym (n, _) :: params, restp, ppos) :: body ->
      if env = [] then Hashtbl.replace st.redefined n ();
      walk_body st (formals_env (Sexp.Dotted (params, restp, ppos)) @ env) body
  | "define", [ Sexp.Sym (n, _); e ] ->
      if env = [] then Hashtbl.replace st.redefined n ();
      walk st env e
  | "set!", [ Sexp.Sym (n, npos); rhs ] ->
      if bound env n then use env n
      else if fused_prim st n && not (Hashtbl.mem st.redefined n) then
        report st npos Warning "fused-prim-set"
          (Printf.sprintf
             "set! of %s deoptimizes every inline-cached call site compiled \
              against its standard primitive binding"
             n);
      walk st env rhs
  | ("let" | "let*" | "letrec" | "letrec*"), Sexp.Sym (nm, nmp) :: bindings :: body
    ->
      (* named let *)
      let bs = let_bindings bindings in
      List.iter (fun (_, _, init) -> walk st env init) bs;
      let vars =
        (nm, new_var nm nmp) :: List.map (fun (n, p, _) -> (n, new_var n p)) bs
      in
      walk_body st (vars @ env) body;
      report_unused st (List.map snd vars)
  | "let", bindings :: body ->
      let bs = let_bindings bindings in
      List.iter (fun (_, _, init) -> walk st env init) bs;
      let vars = List.map (fun (n, p, _) -> (n, new_var n p)) bs in
      walk_body st (vars @ env) body;
      report_unused st (List.map snd vars)
  | "let*", bindings :: body ->
      let bs = let_bindings bindings in
      let env', vars =
        List.fold_left
          (fun (env, vars) (n, p, init) ->
            walk st env init;
            let v = new_var n p in
            ((n, v) :: env, v :: vars))
          (env, []) bs
      in
      walk_body st env' body;
      report_unused st vars
  | ("letrec" | "letrec*"), bindings :: body ->
      let bs = let_bindings bindings in
      let vars = List.map (fun (n, p, _) -> (n, new_var n p)) bs in
      let env' = vars @ env in
      List.iter (fun (_, _, init) -> walk st env' init) bs;
      walk_body st env' body;
      report_unused st (List.map snd vars)
  | "do", bindings :: rest ->
      let bs =
        match bindings with
        | Sexp.List (specs, _) ->
            List.filter_map
              (function
                | Sexp.List (Sexp.Sym (n, p) :: init :: steps, _) ->
                    Some (n, p, init, steps)
                | _ -> None)
              specs
        | _ -> []
      in
      List.iter (fun (_, _, init, _) -> walk st env init) bs;
      let vars = List.map (fun (n, p, _, _) -> (n, new_var n p)) bs in
      let env' = vars @ env in
      List.iter (fun (_, _, _, steps) -> walk_body st env' steps) bs;
      walk_body st env' rest;
      report_unused st (List.map snd vars)
  | "cond", clauses ->
      List.iter
        (function
          | Sexp.List (items, _) ->
              List.iter
                (function
                  | Sexp.Sym (("else" | "=>"), _) -> ()
                  | e -> walk st env e)
                items
          | _ -> ())
        clauses
  | "case", key :: clauses ->
      walk st env key;
      List.iter
        (function
          | Sexp.List (_datums :: body, _) -> walk_body st env body
          | _ -> ())
        clauses
  | ("call/1cc" | "%call/1cc"), [ receiver ] ->
      check_call1cc st head pos receiver;
      walk st env receiver
  | _, forms ->
      (* if / when / unless / begin / and / or / assert / applications of
         globals: every sub-form is an expression *)
      walk_body st env forms

let program ?globals (tops : Sexp.t list) : diagnostic list =
  let st = { diags = []; globals; redefined = Hashtbl.create 16 } in
  (* First pass: record toplevel redefinitions so a [set!] after a
     program-local [define] of the same name is not misread as a
     deoptimizing assignment to the standard primitive. *)
  List.iter
    (function
      | Sexp.List
          (Sexp.Sym ("define", _) :: Sexp.List (Sexp.Sym (n, _) :: _, _) :: _, _)
      | Sexp.List (Sexp.Sym ("define", _) :: Sexp.Sym (n, _) :: _, _) ->
          Hashtbl.replace st.redefined n ()
      | _ -> ())
    tops;
  List.iter (walk st []) tops;
  let pos_of (d : Diag.t) =
    match d.Diag.pos with
    | Some p -> p
    | None -> { Sexp.line = 0; col = 0 }
  in
  List.sort
    (fun a b ->
      match compare (pos_of a).Sexp.line (pos_of b).Sexp.line with
      | 0 -> compare (pos_of a).Sexp.col (pos_of b).Sexp.col
      | c -> c)
    st.diags

let lint_string ?globals src = program ?globals (Sexp.read_all src)
