(* Property fuzzer for the static verifier: random small programs are
   compiled under every optimizer-stage combination, the verifier must
   accept every resulting code object, and every bytecode backend must
   agree on the program's result when run with verification enabled.

   The seed is fixed: a failure reproduces exactly, and the corpus of
   generated programs is identical on every run.  The generator is a
   compact version of [Test_diff]'s: closed, terminating programs over
   arithmetic, let/lambda binding, conditionals, pairs, and one-shot
   escapes, plus the shapes that reach every instruction body the
   dispatch loops share with the closure templates: assigned variables a
   closure captures (boxes), named closures over enclosing variables
   (free variables, their pushes and nested captures), and a top-level
   [define] and [set!] (global cells).  A third case runs each program
   again with [call/1cc] replaced by [call/cc]: the paper's one-shot
   continuations are a use restriction on [call/cc], so a program that
   ends without a shot error must give the same result. *)

let case = Tutil.case
let seed = 0x5eed1e55
let program_count = 60

let counter = ref 0

let fresh prefix =
  incr counter;
  Printf.sprintf "%s%d" prefix !counter

let choose st xs = List.nth xs (Random.State.int st (List.length xs))

let rec gen_int st env depth =
  if depth = 0 then leaf st env
  else
    match Random.State.int st 13 with
    | 0 | 1 -> leaf st env
    | 2 | 3 ->
        Printf.sprintf "(%s %s %s)"
          (choose st [ "+"; "-"; "*" ])
          (gen_int st env (depth - 1))
          (gen_int st env (depth - 1))
    | 4 ->
        Printf.sprintf "(if %s %s %s)"
          (gen_bool st env (depth - 1))
          (gen_int st env (depth - 1))
          (gen_int st env (depth - 1))
    | 5 ->
        let x = fresh "v" in
        Printf.sprintf "(let ((%s %s)) %s)" x
          (gen_int st env (depth - 1))
          (gen_int st (x :: env) (depth - 1))
    | 6 ->
        let x = fresh "p" in
        Printf.sprintf "((lambda (%s) %s) %s)" x
          (gen_int st (x :: env) (depth - 1))
          (gen_int st env (depth - 1))
    | 7 ->
        let k = fresh "k" in
        Printf.sprintf "(call/1cc (lambda (%s) (%s %s)))" k k
          (gen_int st env (depth - 1))
    | 10 ->
        (* An assigned variable a closure reads: box forms in the [let],
           a free box read in the [lambda]. *)
        let x = fresh "b" and f = fresh "f" in
        Printf.sprintf "(let ((%s %s)) (let ((%s (lambda () %s))) (set! %s %s) (+ %s (%s))))"
          x (gen_int st env (depth - 1)) f x x
          (gen_int st (x :: env) (depth - 1))
          x f
    | 11 ->
        (* A closure assigning a variable it captures: a free box set. *)
        let x = fresh "b" and g = fresh "g" and y = fresh "y" in
        Printf.sprintf
          "(let ((%s %s)) (let ((%s (lambda (%s) (set! %s (+ %s %s)) %s))) (%s %s)))"
          x (gen_int st env (depth - 1)) g y x x y x g
          (gen_int st (x :: env) (depth - 1))
    | 12 ->
        (* A curried closure over the enclosing variables: free reads and
           pushes in both lambdas, and [Cap_free] when the inner one
           reads a variable bound outside the outer one. *)
        let f = fresh "c" and p = fresh "p" in
        Printf.sprintf "(let ((%s (lambda (%s) (lambda () (+ %s %s))))) ((%s %s)))"
          f p
          (choose st (p :: env))
          (gen_int st (p :: env) (depth - 1))
          f
          (gen_int st env (depth - 1))
    | 8 ->
        Printf.sprintf "(car (cons %s %s))"
          (gen_int st env (depth - 1))
          (gen_int st env (depth - 1))
    | _ ->
        Printf.sprintf "(cdr (cons %s %s))"
          (gen_int st env (depth - 1))
          (gen_int st env (depth - 1))

and leaf st env =
  match env with
  | [] -> string_of_int (Random.State.int st 21 - 10)
  | _ ->
      if Random.State.int st 3 = 0 then choose st env
      else string_of_int (Random.State.int st 21 - 10)

and gen_bool st env depth =
  if depth = 0 then choose st [ "#t"; "#f" ]
  else
    Printf.sprintf "(%s %s %s)"
      (choose st [ "<"; "="; ">" ])
      (gen_int st env (depth - 1))
      (gen_int st env (depth - 1))

(* One program: an expression, or one preceded by a top-level [define]
   and [set!] of a fresh global it may read. *)
let gen_program st =
  let depth = 2 + Random.State.int st 4 in
  if Random.State.int st 3 = 0 then
    let g = fresh "g" in
    Printf.sprintf "(define %s %s) (set! %s %s) %s" g
      (gen_int st [] (depth - 1))
      g
      (gen_int st [ g ] (depth - 1))
      (gen_int st [ g ] depth)
  else gen_int st [] depth

let programs =
  lazy
    (let st = Random.State.make [| seed |] in
     List.init program_count (fun _ -> gen_program st))

let stage_combos =
  [
    ("full", true, true);
    ("no-regalloc", true, false);
    ("no-peephole", false, true);
  ]

(* Compile-and-verify, no session: exercises the verifier on the bare
   compiler output for every combo. *)
let verify_accepts_case =
  case "verifier accepts every generated program under every combo" (fun () ->
      let g = Globals.create () in
      Prims.install g;
      List.iter
        (fun src ->
          List.iter
            (fun (cl, peephole, regalloc) ->
              match
                Verify.verify_program
                  (Compiler.compile_string
                     ~options:
                       { Compiler.default_options with peephole; regalloc }
                     g src)
              with
              | () -> ()
              | exception Verify.Error m ->
                  Alcotest.failf "verifier rejected [%s] %s: %s" cl src m)
            stage_combos)
        (Lazy.force programs))

(* Sessions with verification enabled: every backend × combo must agree
   on every generated program's value. *)
let sessions =
  lazy
    (List.concat_map
       (fun (bl, backend) ->
         List.map
           (fun (cl, peephole, regalloc) ->
             ( Printf.sprintf "%s/%s" bl cl,
               Scheme.create ~backend
                 ~options:
                   {
                     Compiler.default_options with
                     peephole;
                     regalloc;
                     verify = true;
                   }
                 () ))
           stage_combos)
       [
         ("stack", Scheme.Stack Control.default_config);
         ("stack-tiny", Scheme.Stack Tutil.tiny_config);
         ("closure", Scheme.Closure Control.default_config);
         ("heap", Scheme.Heap);
       ])

let run_on s src =
  match Scheme.eval_string ~fuel:3_000_000 s src with
  | v -> "value " ^ v
  | exception Rt.Scheme_error _ -> "<scheme error>"
  | exception Rt.Shot_continuation -> "<shot continuation>"

let backends_agree_case =
  case "all backends agree on generated programs under verification"
    (fun () ->
      List.iter
        (fun src ->
          match Lazy.force sessions with
          | [] -> assert false
          | (l0, s0) :: rest ->
              let expected = run_on s0 src in
              List.iter
                (fun (l, s) ->
                  let got = run_on s src in
                  if got <> expected then
                    Alcotest.failf "%s and %s disagree on %s: %s vs %s" l0 l
                      src expected got)
                rest)
        (Lazy.force programs))

(* The generated corpus reaches every instruction whose body the loops
   and the closure templates share (compiled with the default stages). *)
let shapes_case =
  case "generated programs reach every shared instruction body" (fun () ->
      let g = Globals.create () in
      Prims.install g;
      let seen = Hashtbl.create 16 in
      let note name = Hashtbl.replace seen name () in
      List.iter
        (fun src ->
          List.iter
            (fun top ->
              List.iter
                (fun (c : Rt.code) ->
                  Array.iter
                    (function
                      | Rt.Box_init _ -> note "box-init"
                      | Rt.Box_ref _ -> note "box-ref"
                      | Rt.Box_set _ -> note "box-set"
                      | Rt.Free_ref _ -> note "free-ref"
                      | Rt.Free_box_ref _ -> note "free-box-ref"
                      | Rt.Free_box_set _ -> note "free-box-set"
                      | Rt.Free_push _ -> note "free-push"
                      | Rt.Global_ref _ -> note "global-ref"
                      | Rt.Global_set _ -> note "global-set"
                      | Rt.Global_define _ -> note "global-define"
                      | Rt.Global_push _ -> note "global-push"
                      | Rt.Make_closure (_, caps) ->
                          note "make-closure";
                          if
                            Array.exists
                              (function Rt.Cap_free _ -> true | _ -> false)
                              caps
                          then note "cap-free"
                      | _ -> ())
                    c.Rt.instrs)
                (Bytecode.collect_codes [] top))
            (Compiler.compile_string g src))
        (Lazy.force programs);
      List.iter
        (fun name ->
          Alcotest.(check bool) name true (Hashtbl.mem seen name))
        [
          "box-init"; "box-ref"; "box-set"; "free-ref"; "free-box-ref";
          "free-box-set"; "free-push"; "global-ref"; "global-set";
          "global-define"; "global-push"; "make-closure"; "cap-free";
        ])

(* [src] with every [call/1cc] made a [call/cc]. *)
let as_multishot src =
  let one = "call/1cc" in
  let b = Buffer.create (String.length src) in
  let n = String.length src and k = String.length one in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub src !i k = one then begin
      Buffer.add_string b "call/cc";
      i := !i + k
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

let oneshot_as_multishot_case =
  case "call/1cc as call/cc keeps every result without a shot error"
    (fun () ->
      List.iter
        (fun src ->
          let multi = as_multishot src in
          List.iter
            (fun (l, s) ->
              match run_on s src with
              | "<shot continuation>" -> ()
              | one ->
                  let got = run_on s multi in
                  if got <> one then
                    Alcotest.failf "%s: %s gives %s but %s gives %s" l src one
                      multi got)
            (Lazy.force sessions))
        (Lazy.force programs))

let suite =
  [
    verify_accepts_case;
    backends_agree_case;
    shapes_case;
    oneshot_as_multishot_case;
  ]
