exception Macro_error of string * Sexp.pos

let err pos msg = raise (Macro_error (msg, pos))
let p0 = Sexp.no_pos

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


(* [strip_marks s = source], without building the stripped copy.
   [source] has no mark. *)
let rec same_prefix a b i n =
  i = n || (a.[i] = b.[i] && same_prefix a b (i + 1) n)

let has_source_name source s =
  let n = String.length source in
  String.length s >= n
  && (String.length s = n || s.[n] = mark_char)
  && same_prefix source s 0 n

let is_ellipsis = function
  | Sexp.Sym (s, _) -> has_source_name "..." s
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Compiled rules                                                      *)
(* ------------------------------------------------------------------ *)

(* [parse_syntax_rules] compiles each rule once, at definition, into a
   pattern program and a template program: every symbol is classified
   (and its marks stripped) there, not again at every use.  A use
   matches the pattern program into slot arrays and runs the template
   program over them. *)

(* The matched value of a pattern variable under one ellipsis or more:
   the forms themselves at depth 1, one value per repetition deeper.
   A variable at depth 0 is a bare [Sexp.t] in its own array. *)
type seqv = Forms of Sexp.t list | Nest of seqv list

(* [left] is how many more datums the instantiations that share it may
   produce (see [spend]). *)
type env = { forms : Sexp.t array; seqs : seqv array; left : int ref }

type pat =
  | Any  (* [_], or a misplaced [...] under an ellipsis: binds nothing *)
  | Lit of string  (* a literal, by source name *)
  | Var of int  (* a pattern variable's slot *)
  | Datum of Sexp.t  (* a number, boolean, character or string *)
  | Plist of pseq
  | Pvec of pseq
  | Pdotted of pseq * pat

(* One list level: fixed [pre] patterns, then at most one ellipsis. *)
and pseq = { pre : pat list; ell : ell option }

and ell = {
  rep : pat;
  vars : int array;  (* the slots [rep] binds, each once *)
  nested : bool array;  (* whether [rep] binds that slot under an ellipsis *)
  post : pat list;
  npost : int;
  shared : int;
      (* [rep]'s slot when it is a bare variable and [post] is empty,
         so the matched tail itself is the binding; else [-1] *)
}

type tmpl =
  | Tvar of int  (* a pattern variable bound to one form *)
  | Tshallow of string  (* a variable used without enough ellipses *)
  | Tsym of string  (* a template-introduced name, marked per use *)
  | Tdots of string  (* an unbound [...] off ellipsis position: never marked *)
  | Tconst of Sexp.t  (* restamped with the use's position *)
  | Tlist of telem list
  | Tvec of telem list
  | Tdotted of telem list * tmpl

and telem =
  | One of tmpl
  | Splice of int  (* [v ...] with [v] bound to forms: the bound list *)
  | Each of tmpl * col array  (* a subtemplate once per repetition *)
  | No_var  (* an ellipsis subtemplate with no variable to step *)

(* A variable the subtemplate steps through: [deep] when each step is
   itself a repetition (set in [seqs]), else a form (set in [forms]). *)
and col = { slot : int; deep : bool }

type rule =
  | Rule of { args : pseq; tail : pat option; tmpl : tmpl }
  | Bad_pattern of Sexp.pos  (* raised when the rule is tried *)

type rules = { nslots : int; rules : rule list }
type menv = (string, rules) Hashtbl.t

let create_menv () : menv = Hashtbl.create 16

(* ---- compiling a rule ---- *)

(* A pattern variable: its raw name (marks included), its slot, and its
   ellipsis depth at its last occurrence in matching order (the
   occurrence whose binding a use keeps).  [last] numbers that
   occurrence, counting every occurrence of the rule's pattern. *)
type pvar = {
  name : string;
  index : int;
  mutable depth : int;
  mutable last : int;
}

type pstate = {
  literals : string list;
  mutable pvars : pvar list;
  mutable clock : int;
}

(* Pattern variables and literals are strings: compare them as strings,
   not through the polymorphic [compare] of [List.mem]. *)
let rec mem (s : string) = function
  | [] -> false
  | x :: rest -> String.equal x s || mem s rest

let rec find_var s = function
  | [] -> None
  | v :: rest -> if String.equal v.name s then Some v else find_var s rest

let occurrence st s depth =
  st.clock <- st.clock + 1;
  match find_var s st.pvars with
  | Some v ->
      v.depth <- depth;
      v.last <- st.clock;
      v.index
  | None ->
      let index = List.length st.pvars in
      st.pvars <- { name = s; index; depth; last = st.clock } :: st.pvars;
      index

(* [depth] counts the ellipses around [p]. *)
let rec compile_pat st depth (p : Sexp.t) : pat =
  match p with
  | Sexp.Sym (s, _) ->
      if has_source_name "_" s then Any
      else if mem s st.literals then Lit (strip_marks s)
      else if depth > 0 && has_source_name "..." s then Any
      else Var (occurrence st s depth)
  | Sexp.Int _ | Sexp.Float _ | Sexp.Bool _ | Sexp.Char _ | Sexp.Str _ ->
      Datum p
  | Sexp.List (ps, _) -> Plist (compile_pseq st depth ps)
  | Sexp.Vec (ps, _) -> Pvec (compile_pseq st depth ps)
  | Sexp.Dotted (ps, t, _) ->
      let sq = compile_pseq st depth ps in
      Pdotted (sq, compile_pat st depth t)

(* ps = pre @ [p; ...] @ post, split at the first ellipsis. *)
and compile_pseq st depth ps =
  let rec split pre = function
    | p :: e :: post when is_ellipsis e -> Some (List.rev pre, p, post)
    | p :: rest -> split (p :: pre) rest
    | [] -> None
  in
  match split [] ps with
  | None -> { pre = List.map (compile_pat st depth) ps; ell = None }
  | Some (pre, p, post) ->
      let pre = List.map (compile_pat st depth) pre in
      let before = st.clock in
      let rep = compile_pat st (depth + 1) p in
      (* [rep] binds the variables last seen in it, under a further
         ellipsis when that occurrence is deeper than [rep] itself. *)
      let vs =
        Array.of_list (List.filter (fun v -> v.last > before) st.pvars)
      in
      let post = List.map (compile_pat st depth) post in
      let shared = match (rep, post) with Var i, [] -> i | _ -> -1 in
      {
        pre;
        ell =
          Some
            {
              rep;
              vars = Array.map (fun v -> v.index) vs;
              nested = Array.map (fun v -> v.depth > depth + 1) vs;
              post;
              npost = List.length post;
              shared;
            };
      }

(* The variables a subtemplate at template depth [depth] steps through:
   those bound under more ellipses than surround it. *)
let columns st depth (t : Sexp.t) =
  let rec go (t : Sexp.t) cols =
    match t with
    | Sexp.Sym (s, _) when not (has_source_name "..." s) -> (
        match find_var s st.pvars with
        | Some v
          when v.depth > depth
               && not (List.exists (fun c -> c.slot = v.index) cols) ->
            { slot = v.index; deep = v.depth - depth >= 2 } :: cols
        | _ -> cols)
    | Sexp.List (ts, _) | Sexp.Vec (ts, _) ->
        List.fold_left (fun c t -> go t c) cols ts
    | Sexp.Dotted (ts, t, _) ->
        go t (List.fold_left (fun c t -> go t c) cols ts)
    | _ -> cols
  in
  go t []

let rec compile_tmpl st depth (t : Sexp.t) : tmpl =
  match t with
  | Sexp.Sym (s, _) -> (
      match find_var s st.pvars with
      | Some v when v.depth > depth ->
          Tshallow
            ("syntax-rules: pattern variable " ^ s
           ^ " used without enough ellipses")
      | Some v -> Tvar v.index
      | None -> if has_source_name "..." s then Tdots s else Tsym s)
  | Sexp.List (ts, _) -> Tlist (compile_telems st depth ts)
  | Sexp.Vec (ts, _) -> Tvec (compile_telems st depth ts)
  | Sexp.Dotted (ts, t, _) ->
      let heads = compile_telems st depth ts in
      Tdotted (heads, compile_tmpl st depth t)
  | Sexp.Int _ | Sexp.Float _ | Sexp.Str _ | Sexp.Bool _ | Sexp.Char _ ->
      Tconst t

and compile_telems st depth ts =
  match ts with
  | t :: e :: rest when is_ellipsis e ->
      let elem =
        match (t, columns st depth t) with
        | _, [] -> No_var
        | Sexp.Sym _, [ { slot; deep = false } ] -> Splice slot
        | _, cols -> Each (compile_tmpl st (depth + 1) t, Array.of_list cols)
      in
      elem :: compile_telems st depth rest
  | t :: rest ->
      let t = compile_tmpl st depth t in
      One t :: compile_telems st depth rest
  | [] -> []

(* A rule's pattern is the use form minus its keyword.  A malformed
   pattern, like a malformed template, is reported only when a use
   reaches it. *)
let compile_rule literals (pat : Sexp.t) (tmpl : Sexp.t) =
  let st = { literals; pvars = []; clock = 0 } in
  let rule =
    match pat with
    | Sexp.List (_ :: ps, _) ->
        let args = compile_pseq st 0 ps in
        Rule { args; tail = None; tmpl = compile_tmpl st 0 tmpl }
    | Sexp.Dotted (_ :: ps, t, _) ->
        let args = compile_pseq st 0 ps in
        let tail = compile_pat st 0 t in
        Rule { args; tail = Some tail; tmpl = compile_tmpl st 0 tmpl }
    | _ -> Bad_pattern (Sexp.pos_of pat)
  in
  (rule, List.length st.pvars)

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
            | Sexp.List ([ pat; tmpl ], _) -> (pat, tmpl)
            | _ -> err pos "syntax-rules: each rule is (pattern template)")
          rl
      in
      if List.is_empty rules then err pos "syntax-rules: no rules";
      let compiled =
        List.map (fun (pat, tmpl) -> compile_rule literals pat tmpl) rules
      in
      {
        nslots = List.fold_left (fun n (_, k) -> max n k) 0 compiled;
        rules = List.map fst compiled;
      }
  | _ -> err (Sexp.pos_of d) "define-syntax: expected (syntax-rules ...)"

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

exception No_match

(* The improper tail of a proper use, where no list form supplies one. *)
let nil0 = Sexp.List ([], p0)

let same_datum (p : Sexp.t) (f : Sexp.t) =
  match (p, f) with
  | Sexp.Int (n, _), Sexp.Int (m, _) -> n = m
  | Sexp.Float (n, _), Sexp.Float (m, _) -> n = m
  | Sexp.Bool (b, _), Sexp.Bool (b', _) -> b = b'
  | Sexp.Char (c, _), Sexp.Char (c', _) -> c = c'
  | Sexp.Str (s, _), Sexp.Str (s', _) -> String.equal s s'
  | _ -> false

(* Matching writes each variable's slot; on a repeated variable the
   last occurrence in matching order wins, as its static depth says. *)
let rec match_pat env (p : pat) (f : Sexp.t) =
  match p with
  | Any -> ()
  | Var i -> env.forms.(i) <- f
  | Lit name -> (
      (* Literals match by source name: the definition environment of
         both the macro and the use site is the global one, so a marked
         [else] introduced by another expansion still means [else]. *)
      match f with
      | Sexp.Sym (s, _) when has_source_name name s -> ()
      | _ -> raise No_match)
  | Datum d -> if not (same_datum d f) then raise No_match
  | Plist sq -> (
      match f with
      | Sexp.List (fs, _) -> match_seq env sq fs
      | _ -> raise No_match)
  | Pvec sq -> (
      match f with
      | Sexp.Vec (fs, _) -> match_seq env sq fs
      | _ -> raise No_match)
  | Pdotted (sq, t) -> (
      match f with
      | Sexp.List (fs, pos) -> match_dotted env sq t fs (Sexp.List ([], pos))
      | Sexp.Dotted (fs, ft, _) -> match_dotted env sq t fs ft
      | _ -> raise No_match)

(* Match [ps] against a prefix of [fs]; the rest of [fs]. *)
and match_pre env ps fs =
  match (ps, fs) with
  | [], _ -> fs
  | p :: ps, f :: fs ->
      match_pat env p f;
      match_pre env ps fs
  | _ :: _, [] -> raise No_match

and match_seq env sq fs =
  let rest = match_pre env sq.pre fs in
  match sq.ell with
  | None -> ( match rest with [] -> () | _ :: _ -> raise No_match)
  | Some e -> match_ell env e rest

(* [ft] is the form's improper tail: the end of a dotted form, or an
   empty list for a proper one. *)
and match_dotted env sq t fs ft =
  let rest = match_pre env sq.pre fs in
  match sq.ell with
  | None ->
      let tail =
        match (rest, ft) with
        | [], _ -> ft
        | _, Sexp.List ([], _) -> Sexp.List (rest, p0)
        | _ -> Sexp.Dotted (rest, ft, p0)
      in
      match_pat env t tail
  | Some e ->
      match_ell env e rest;
      match_pat env t ft

(* [fs] holds the repetitions and then exactly [e.npost] forms. *)
and match_ell env e fs =
  if e.shared >= 0 then env.seqs.(e.shared) <- Forms fs
  else begin
    let nmid = List.length fs - e.npost in
    if nmid < 0 then raise No_match;
    let k = Array.length e.vars in
    let facc = Array.make k [] and nacc = Array.make k [] in
    (* Right to left, so each variable's repetitions cons up in order. *)
    let rec reps n fs =
      if n = 0 then fs
      else
        match fs with
        | f :: r ->
            let post = reps (n - 1) r in
            match_pat env e.rep f;
            for j = 0 to k - 1 do
              let i = e.vars.(j) in
              if e.nested.(j) then nacc.(j) <- env.seqs.(i) :: nacc.(j)
              else facc.(j) <- env.forms.(i) :: facc.(j)
            done;
            post
        | [] -> raise No_match
    in
    let post = reps nmid fs in
    for j = 0 to k - 1 do
      env.seqs.(e.vars.(j)) <-
        (if e.nested.(j) then Nest nacc.(j) else Forms facc.(j))
    done;
    ignore (match_pre env e.post post)
  end

(* ------------------------------------------------------------------ *)
(* Template instantiation                                              *)
(* ------------------------------------------------------------------ *)

let seq_length = function Forms l -> List.length l | Nest l -> List.length l

(* Instantiation counts what it produces: each datum it builds and each
   list element it places in a list it builds (a matched form copied
   into a new list counts; a matched tail shared whole does not).  The
   count is charged against [env.left], shared by every use within one
   top-level form, so a runaway macro stops long before memory does. *)
let instantiation_budget = 1_000_000

exception Too_large

let spend env k =
  let left = env.left in
  left := !left - k;
  if !left < 0 then raise Too_large

(* Instantiate a template: pattern variables substitute the matched
   use-site forms (keeping their own positions); everything the template
   itself contributes is stamped with the use-site position [upos] (so
   downstream errors point at the macro use, not 0:0 or the definition)
   and, when [mark] is non-empty, template-introduced identifiers get
   the expansion's mark appended. *)
let rec instantiate env upos mark (t : tmpl) : Sexp.t =
  match t with
  | Tvar i -> env.forms.(i)
  | Tshallow msg -> err upos msg
  | Tconst ((Sexp.Sym _ | Sexp.List _ | Sexp.Dotted _ | Sexp.Vec _) as d) -> d
  | _ -> (
      spend env 1;
      match t with
      | Tsym s ->
          if mark = "" then Sexp.Sym (s, upos) else Sexp.Sym (s ^ mark, upos)
      | Tdots s -> Sexp.Sym (s, upos)
      | Tconst (Sexp.Int (n, _)) -> Sexp.Int (n, upos)
      | Tconst (Sexp.Float (f, _)) -> Sexp.Float (f, upos)
      | Tconst (Sexp.Str (s, _)) -> Sexp.Str (s, upos)
      | Tconst (Sexp.Bool (b, _)) -> Sexp.Bool (b, upos)
      | Tconst (Sexp.Char (c, _)) -> Sexp.Char (c, upos)
      | Tlist es -> Sexp.List (instantiate_seq env upos mark es, upos)
      | Tvec es -> Sexp.Vec (instantiate_seq env upos mark es, upos)
      | Tdotted (es, final) -> (
          let heads = instantiate_seq env upos mark es in
          let tail = instantiate env upos mark final in
          match tail with
          | Sexp.List (more, _) -> Sexp.List (append env heads more, upos)
          | Sexp.Dotted (more, f, _) ->
              Sexp.Dotted (append env heads more, f, upos)
          | atom -> Sexp.Dotted (heads, atom, upos))
      | Tvar _ | Tshallow _ | Tconst _ -> assert false)

(* [xs @ ys], charged for the copy of [xs]. *)
and append env xs ys =
  match ys with
  | [] -> xs
  | _ ->
      spend env (List.length xs);
      xs @ ys

(* An ellipsis element is instantiated before the elements after it,
   and a plain element after them: which of two template errors a use
   reports depends on this order, so it is kept. *)
and instantiate_seq env upos mark es =
  match es with
  | [] -> []
  | One t :: rest ->
      let tl = instantiate_seq env upos mark rest in
      spend env 1;
      instantiate env upos mark t :: tl
  | No_var :: _ ->
      err upos "syntax-rules: ellipsis template has no pattern variable"
  | Splice i :: rest -> (
      let l = match env.seqs.(i) with Forms l -> l | Nest _ -> assert false in
      (* [Sexp.t] is immutable: a list that ends the template is the
         matched tail itself, shared. *)
      match rest with
      | [] -> l
      | _ -> append env l (instantiate_seq env upos mark rest))
  | Each (t, cols) :: rest -> (
      let xs = each env upos mark t cols in
      match rest with
      | [] -> xs
      | _ -> append env xs (instantiate_seq env upos mark rest))

(* [t] once per repetition, stepping every column together. *)
and each env upos mark t cols =
  let k = Array.length cols in
  let orig = Array.map (fun c -> env.seqs.(c.slot)) cols in
  let n = seq_length orig.(0) in
  for j = 1 to k - 1 do
    if seq_length orig.(j) <> n then
      err upos "syntax-rules: mismatched ellipsis lengths"
  done;
  let fcur = Array.map (function Forms l -> l | Nest _ -> []) orig in
  let ncur = Array.map (function Nest l -> l | Forms _ -> []) orig in
  let rec go i =
    if i = n then []
    else begin
      for j = 0 to k - 1 do
        let c = cols.(j) in
        if c.deep then (
          match ncur.(j) with
          | v :: r ->
              env.seqs.(c.slot) <- v;
              ncur.(j) <- r
          | [] -> ())
        else
          match fcur.(j) with
          | f :: r ->
              env.forms.(c.slot) <- f;
              fcur.(j) <- r
          | [] -> ()
      done;
      let x = instantiate env upos mark t in
      spend env 1;
      x :: go (i + 1)
    end
  in
  let xs = go 0 in
  Array.iteri (fun j c -> if c.deep then env.seqs.(c.slot) <- orig.(j)) cols;
  xs

let no_seq = Forms []

(* The first rule that matches. *)
let rec try_rules env pos mark args = function
  | [] -> err pos "no syntax-rules pattern matches this use"
  | Bad_pattern p :: _ -> err p "syntax-rules: pattern must be a list"
  | Rule { args = sq; tail; tmpl } :: rest -> (
      match
        match tail with
        | None -> match_seq env sq args
        | Some t -> match_dotted env sq t args nil0
      with
      | () -> instantiate env pos mark tmpl
      | exception No_match -> try_rules env pos mark args rest)

let expand_use ?(hygiene = true) ~budget (r : rules) (form : Sexp.t) : Sexp.t =
  let pos = Sexp.pos_of form in
  let args =
    match form with
    | Sexp.List (_ :: args, _) -> args
    | _ -> err pos "macro use must be a list form"
  in
  let mark = if hygiene then fresh_mark () else "" in
  let env =
    { forms = Array.make r.nslots nil0; seqs = Array.make r.nslots no_seq;
      left = budget }
  in
  try_rules env pos mark args r.rules
