(* Property fuzzer for the static verifier: random small programs are
   compiled under every optimizer-stage combination, the verifier must
   accept every resulting code object, and every bytecode backend must
   agree on the program's result when run with verification enabled.

   The seed is fixed: a failure reproduces exactly, and the corpus of
   generated programs is identical on every run.  The generator is a
   compact version of [Test_diff]'s: closed, terminating programs over
   arithmetic, let/lambda binding, conditionals, pairs, and one-shot
   escapes. *)

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
    match Random.State.int st 10 with
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

let programs =
  lazy
    (let st = Random.State.make [| seed |] in
     List.init program_count (fun _ ->
         gen_int st [] (2 + Random.State.int st 4)))

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

let suite = [ verify_accepts_case; backends_agree_case ]
