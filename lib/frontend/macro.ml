exception Macro_error of string * Sexp.pos

let err pos msg = raise (Macro_error (msg, pos))
let p0 : Sexp.pos = { Sexp.line = 0; col = 0 }

(* ------------------------------------------------------------------ *)
(* Hygiene marks                                                       *)
(* ------------------------------------------------------------------ *)

(* Rename-based hygiene: every expansion of a macro use gets a fresh
   mark, appended to the name of every template-introduced identifier
   (a template symbol that is not a pattern variable).  The mark
   character cannot appear in a symbol the reader produces, so marked
   names can neither capture nor be captured by use-site identifiers of
   the same source name: a marked binder binds exactly the identically
   marked references the same expansion introduced.  Wherever an
   identifier is instead resolved against the definition environment —
   keyword dispatch, syntax-rules literals, global references, quoted
   data, top-level define names — [strip_marks] recovers the source
   name.  (Macro definition sites are top level, so their "definition
   environment" for free identifiers is the global one; that is what
   makes strip-at-resolution equivalent to the renaming semantics.) *)
let mark_char = '\x01'

let strip_marks s =
  match String.index_opt s mark_char with
  | None -> s
  | Some i -> String.sub s 0 i

let mark_counter = Atomic.make 0

(* [mark_char] followed by the counter's decimal digits. *)
let fresh_mark () =
  let n = Atomic.fetch_and_add mark_counter 1 in
  let rec width n = if n < 10 then 2 else 1 + width (n / 10) in
  let b = Bytes.make (width n) mark_char in
  let rec fill i n =
    Bytes.set b i (Char.chr (48 + (n mod 10)));
    if n >= 10 then fill (i - 1) (n / 10)
  in
  fill (Bytes.length b - 1) n;
  Bytes.unsafe_to_string b

type rule = { pat : Sexp.t; tmpl : Sexp.t }
type rules = { literals : string list; rules : rule list }
type menv = (string, rules) Hashtbl.t

let create_menv () : menv = Hashtbl.create 16

(* A pattern variable binds either one form or, under an ellipsis, a list
   of bindings (one level per ellipsis). *)
type binding = Single of Sexp.t | Multi of binding list

(* Pattern variables and literals are strings: compare them as strings,
   not through the polymorphic [compare] of [List.mem]/[List.assoc_opt]. *)
let rec mem (s : string) = function
  | [] -> false
  | x :: rest -> String.equal x s || mem s rest

let rec assoc_opt (v : string) = function
  | [] -> None
  | (k, b) :: rest -> if String.equal k v then Some b else assoc_opt v rest

let is_ellipsis = function
  | Sexp.Sym (s, _) -> strip_marks s = "..."
  | _ -> false

let parse_syntax_rules (d : Sexp.t) : rules =
  match d with
  | Sexp.List (Sexp.Sym (sr, _) :: Sexp.List (lits, _) :: rl, pos)
    when strip_marks sr = "syntax-rules" ->
      let literals =
        List.map
          (function
            | Sexp.Sym (s, _) -> s
            | _ -> err pos "syntax-rules: literals must be symbols")
          lits
      in
      let rules =
        List.map
          (function
            | Sexp.List ([ pat; tmpl ], _) -> { pat; tmpl }
            | _ -> err pos "syntax-rules: each rule is (pattern template)")
          rl
      in
      if rules = [] then err pos "syntax-rules: no rules";
      { literals; rules }
  | _ -> err (Sexp.pos_of d) "define-syntax: expected (syntax-rules ...)"

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

(* Pattern variables appearing in a pattern (for empty-ellipsis binding). *)
let rec pattern_vars literals (p : Sexp.t) acc =
  match p with
  | Sexp.Sym (s, _) when strip_marks s = "_" || strip_marks s = "..." -> acc
  | Sexp.Sym (s, _) -> if mem s literals then acc else s :: acc
  | Sexp.List (ps, _) | Sexp.Vec (ps, _) ->
      List.fold_left (fun acc p -> pattern_vars literals p acc) acc ps
  | Sexp.Dotted (ps, final, _) ->
      pattern_vars literals final
        (List.fold_left (fun acc p -> pattern_vars literals p acc) acc ps)
  | _ -> acc

exception No_match

let rec match_pat literals (p : Sexp.t) (f : Sexp.t) bindings =
  match p with
  | Sexp.Sym (s, _) when strip_marks s = "_" -> bindings
  | Sexp.Sym (s, _) when mem s literals -> (
      (* Literals match by source name: the definition environment of
         both the macro and the use site is the global one, so a marked
         [else] introduced by another expansion still means [else]. *)
      match f with
      | Sexp.Sym (s', _) when strip_marks s = strip_marks s' -> bindings
      | _ -> raise No_match)
  | Sexp.Sym (s, _) -> (s, Single f) :: bindings
  | Sexp.Int (n, _) -> (
      match f with Sexp.Int (m, _) when n = m -> bindings | _ -> raise No_match)
  | Sexp.Float (n, _) -> (
      match f with
      | Sexp.Float (m, _) when n = m -> bindings
      | _ -> raise No_match)
  | Sexp.Bool (b, _) -> (
      match f with
      | Sexp.Bool (b', _) when b = b' -> bindings
      | _ -> raise No_match)
  | Sexp.Char (c, _) -> (
      match f with
      | Sexp.Char (c', _) when c = c' -> bindings
      | _ -> raise No_match)
  | Sexp.Str (s, _) -> (
      match f with
      | Sexp.Str (s', _) when s = s' -> bindings
      | _ -> raise No_match)
  | Sexp.List (ps, _) -> (
      match f with
      | Sexp.List (fs, _) -> match_seq literals ps None fs bindings
      | _ -> raise No_match)
  | Sexp.Dotted (ps, ptail, _) -> (
      match f with
      | Sexp.List (fs, pos) ->
          match_seq literals ps (Some ptail) fs
            ~improper_tail:(Sexp.List ([], pos))
            bindings
      | Sexp.Dotted (fs, ftail, _) ->
          match_seq literals ps (Some ptail) fs ~improper_tail:ftail bindings
      | _ -> raise No_match)
  | Sexp.Vec (ps, _) -> (
      match f with
      | Sexp.Vec (fs, _) -> match_seq literals ps None fs bindings
      | _ -> raise No_match)

(* Match a sequence of patterns [ps] (with optional dotted-tail pattern)
   against forms [fs].  At most one ellipsis: ps = pre @ [pe; "..."] @ post. *)
and match_seq literals ps ptail ?improper_tail fs bindings =
  let rec split_at_ellipsis pre = function
    | pe :: e :: post when is_ellipsis e -> Some (List.rev pre, pe, post)
    | p :: rest -> split_at_ellipsis (p :: pre) rest
    | [] -> None
  in
  match split_at_ellipsis [] ps with
  | None ->
      (* fixed-length *)
      let rec go ps fs bindings =
        match (ps, fs) with
        | [], [] -> (
            match (ptail, improper_tail) with
            | None, _ -> bindings
            | Some pt, Some ft -> match_pat literals pt ft bindings
            | Some pt, None -> match_pat literals pt (Sexp.List ([], p0)) bindings)
        | p :: ps', f :: fs' -> go ps' fs' (match_pat literals p f bindings)
        | _ -> raise No_match
      in
      (match (ptail, fs) with
      | None, _ -> go ps fs bindings
      | Some _, _ ->
          (* dotted pattern: fixed prefix, tail gets the rest *)
          let np = List.length ps in
          if List.length fs < np then raise No_match
          else
            let rec take n l = if n = 0 then ([], l) else
              match l with x :: r -> let a, b = take (n-1) r in (x :: a, b)
              | [] -> raise No_match
            in
            let prefix, rest = take np fs in
            let bindings =
              List.fold_left2
                (fun b p f -> match_pat literals p f b)
                bindings ps prefix
            in
            let tail_form =
              match (rest, improper_tail) with
              | [], Some ft -> ft
              | [], None -> Sexp.List ([], p0)
              | _, Some (Sexp.List ([], _)) | _, None -> Sexp.List (rest, p0)
              | _, Some ft -> Sexp.Dotted (rest, ft, p0)
            in
            match ptail with
            | Some pt -> match_pat literals pt tail_form bindings
            | None -> raise No_match)
  | Some (pre, pe, post) ->
      let npre = List.length pre and npost = List.length post in
      if List.length fs < npre + npost then raise No_match;
      let rec take n l =
        if n = 0 then ([], l)
        else
          match l with
          | x :: r ->
              let a, b = take (n - 1) r in
              (x :: a, b)
          | [] -> raise No_match
      in
      let fpre, rest = take npre fs in
      let nmid = List.length rest - npost in
      let fmid, fpost = take nmid rest in
      let bindings =
        List.fold_left2 (fun b p f -> match_pat literals p f b) bindings pre
          fpre
      in
      (* each repetition binds pe's variables once; collect per variable *)
      let reps =
        List.map (fun f -> match_pat literals pe f []) fmid
      in
      let evars = List.sort_uniq String.compare (pattern_vars literals pe []) in
      let bindings =
        List.fold_left
          (fun b v ->
            let slices =
              List.map
                (fun rep ->
                  match assoc_opt v rep with
                  | Some x -> x
                  | None -> raise No_match)
                reps
            in
            (v, Multi slices) :: b)
          bindings evars
      in
      let bindings =
        List.fold_left2 (fun b p f -> match_pat literals p f b) bindings post
          fpost
      in
      (match (ptail, improper_tail) with
      | None, _ -> bindings
      | Some pt, Some ft -> match_pat literals pt ft bindings
      | Some pt, None -> match_pat literals pt (Sexp.List ([], p0)) bindings)

(* ------------------------------------------------------------------ *)
(* Template instantiation                                              *)
(* ------------------------------------------------------------------ *)

let rec template_vars (t : Sexp.t) acc =
  match t with
  | Sexp.Sym (s, _) when strip_marks s = "..." -> acc
  | Sexp.Sym (s, _) -> s :: acc
  | Sexp.List (ts, _) | Sexp.Vec (ts, _) ->
      List.fold_left (fun acc t -> template_vars t acc) acc ts
  | Sexp.Dotted (ts, final, _) ->
      template_vars final
        (List.fold_left (fun acc t -> template_vars t acc) acc ts)
  | _ -> acc

(* Instantiate a template: pattern variables substitute the matched
   use-site forms (keeping their own positions); everything the template
   itself contributes is stamped with the use-site position [upos] (so
   downstream errors point at the macro use, not 0:0 or the definition)
   and, when [mark] is non-empty, template-introduced identifiers get
   the expansion's mark appended. *)
let rec instantiate upos mark bindings (t : Sexp.t) : Sexp.t =
  match t with
  | Sexp.Sym (s, _) -> (
      match assoc_opt s bindings with
      | Some (Single f) -> f
      | Some (Multi _) ->
          err upos ("syntax-rules: pattern variable " ^ s
                   ^ " used without enough ellipses")
      | None ->
          if mark = "" || strip_marks s = "..." then Sexp.Sym (s, upos)
          else Sexp.Sym (s ^ mark, upos))
  | Sexp.List (ts, _) -> Sexp.List (instantiate_seq upos mark bindings ts, upos)
  | Sexp.Vec (ts, _) -> Sexp.Vec (instantiate_seq upos mark bindings ts, upos)
  | Sexp.Dotted (ts, final, _) -> (
      let heads = instantiate_seq upos mark bindings ts in
      let tail = instantiate upos mark bindings final in
      match tail with
      | Sexp.List (more, _) -> Sexp.List (heads @ more, upos)
      | Sexp.Dotted (more, f, _) -> Sexp.Dotted (heads @ more, f, upos)
      | atom -> Sexp.Dotted (heads, atom, upos))
  | Sexp.Int (n, _) -> Sexp.Int (n, upos)
  | Sexp.Float (f, _) -> Sexp.Float (f, upos)
  | Sexp.Str (s, _) -> Sexp.Str (s, upos)
  | Sexp.Bool (b, _) -> Sexp.Bool (b, upos)
  | Sexp.Char (c, _) -> Sexp.Char (c, upos)

and instantiate_seq upos mark bindings ts =
  match ts with
  | t :: e :: rest when is_ellipsis e ->
      (* expand t once per slice of its Multi-bound variables, stepping
         through every variable's slice list together *)
      let cols =
        List.filter_map
          (fun v ->
            match assoc_opt v bindings with
            | Some (Multi l) -> Some (v, l)
            | _ -> None)
          (List.sort_uniq String.compare (template_vars t []))
      in
      let slices =
        match cols with
        | [] ->
            err upos "syntax-rules: ellipsis template has no pattern variable"
        | (_, l) :: _ -> List.length l
      in
      if List.exists (fun (_, l) -> List.length l <> slices) cols then
        err upos "syntax-rules: mismatched ellipsis lengths";
      let rec each_slice = function
        | [] | (_, []) :: _ -> []
        | cols ->
            let bindings' =
              List.fold_left
                (fun b (v, l) -> (v, List.hd l) :: b)
                bindings cols
            in
            let x = instantiate upos mark bindings' t in
            x :: each_slice (List.map (fun (v, l) -> (v, List.tl l)) cols)
      in
      let expansions = each_slice cols in
      expansions @ instantiate_seq upos mark bindings rest
  | t :: rest ->
      instantiate upos mark bindings t :: instantiate_seq upos mark bindings rest
  | [] -> []

let expand_use ?(hygiene = true) (r : rules) (form : Sexp.t) : Sexp.t =
  let pos = Sexp.pos_of form in
  let args =
    match form with
    | Sexp.List (_ :: args, _) -> args
    | _ -> err pos "macro use must be a list form"
  in
  let mark = if hygiene then fresh_mark () else "" in
  let rec try_rules = function
    | [] -> err pos "no syntax-rules pattern matches this use"
    | { pat; tmpl } :: rest -> (
        let pat_args, ptail =
          match pat with
          | Sexp.List (_ :: ps, _) -> (ps, None)
          | Sexp.Dotted (_ :: ps, t, _) -> (ps, Some t)
          | _ -> err (Sexp.pos_of pat) "syntax-rules: pattern must be a list"
        in
        match match_seq r.literals pat_args ptail args [] with
        | bindings -> instantiate pos mark bindings tmpl
        | exception No_match -> try_rules rest)
  in
  try_rules r.rules
