(* schemer: run Scheme files or a REPL on any of the three backends, with
   every control-representation knob exposed as a flag.

     dune exec bin/schemer.exe -- [FILE...]            run files
     dune exec bin/schemer.exe                         REPL
     dune exec bin/schemer.exe -- --backend heap ...   heap-frame VM
     dune exec bin/schemer.exe -- --backend closure .. template-compiled VM
     dune exec bin/schemer.exe -- --seg-words 256 --overflow callcc ...
     dune exec bin/schemer.exe -- --stats -e '(fib 20)'
     dune exec bin/schemer.exe -- --disassemble -e '(lambda (x) x)' *)

open Cmdliner

let read_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* Every user-facing failure goes through the one diagnostic surface
   (DESIGN.md §17): convert the layer exceptions {!Diag.of_exn} cannot
   see (the compiler and verifier sit above [frontend] in the library
   graph), then render with the shared printer.  [pos] is the span of
   the top-level form being processed, used when the exception carries
   none of its own. *)
let diag_of_exn ?pos = function
  | Compiler.Compile_error (msg, p) ->
      let pos = match p with Some _ -> p | None -> pos in
      Some (Diag.error ?pos Diag.Compiler msg)
  | Verify.Error msg -> Some (Diag.error ?pos Diag.Verify msg)
  | e -> Diag.of_exn ?pos e

(* Print the diagnostic for [e] on stderr; false if [e] is not a
   pipeline failure (the caller re-raises).  Standard output is flushed
   first, so the diagnostic follows the program output it came after. *)
let report_exn ?pos e =
  match diag_of_exn ?pos e with
  | Some d ->
      flush stdout;
      Printf.eprintf "%s\n%!" (Diag.to_string d);
      true
  | None -> false

(* --lint: read and lint, never execute.  Diagnostics print to stdout as
   file:line:col: severity: [rule] message; any diagnostic (or read
   error) makes the exit status 1. *)
let run_lint ~exprs ~files =
  let count = ref 0 in
  let lint_src label src =
    match Lint.lint_string src with
    | ds ->
        List.iter
          (fun d ->
            incr count;
            Printf.printf "%s:%s\n" label (Lint.to_string d))
          ds
    | exception (Sexp.Read_error _ as e) -> (
        incr count;
        match Diag.of_exn e with
        | Some d -> Printf.printf "%s:%s\n" label (Diag.to_string d)
        | None -> assert false)
  in
  List.iter (fun f -> lint_src f (read_file f)) files;
  List.iteri
    (fun i e -> lint_src (Printf.sprintf "<expr %d>" (i + 1)) e)
    exprs;
  if !count = 0 then 0 else 1

let run_session ~backend ~scheme_winders ~corpus ~stats_flag ~disassemble
    ~expand_only ~optimize ~peephole ~regalloc ~verify ~hygiene ~exprs ~files
    ~interactive =
  let stats = Stats.create () in
  let s =
    Scheme.create ~backend ~stats ~scheme_winders ~optimize ~peephole ~regalloc
      ~verify ~hygiene ()
  in
  (* --expand keeps its own macro environment so a [define-syntax] in an
     earlier file/-e chunk is visible to later ones, as in evaluation. *)
  let expand_menv = Macro.create_menv () in
  if corpus then Scheme.load_corpus s;
  let dump_output () =
    let out = Scheme.take_output s in
    if out <> "" then print_string out
  in
  (* The chunk is read here and evaluated one top-level datum at a time
     ({!Scheme.eval_datum}), so every failure — runtime errors included —
     is reported against the source position of the form that raised it.
     Earlier forms of a chunk therefore execute before a later form's
     compile error surfaces.  A reported diagnostic in file/-e input
     makes the exit status 1 (REPL errors don't — the session goes on). *)
  let failed = ref false in
  let eval_chunk ~echo src =
    match Sexp.read_all src with
    | exception e -> if report_exn e then failed := true
    | datums -> (
        try
          if disassemble then
            List.iter
              (fun code -> print_string (Bytecode.disassemble_deep code))
              (Compiler.compile_string ~optimize ~peephole ~regalloc ~verify
                 ~hygiene (Scheme.globals s) src)
          else if expand_only then
            List.iter
              (fun d ->
                List.iter
                  (fun top -> print_endline (Ast.top_to_string top))
                  (Expander.expand_tops ~hygiene ~menv:expand_menv d))
              datums
          else
            let rec go = function
              | [] -> ()
              | d :: rest -> (
                  match Scheme.eval_datum s d with
                  | v ->
                      dump_output ();
                      if echo && rest = [] && v <> Rt.Void then
                        print_endline (Values.write_string v);
                      go rest
                  | exception e ->
                      dump_output ();
                      if report_exn ~pos:(Sexp.pos_of d) e then failed := true
                      else raise e)
            in
            go datums
        with e -> if report_exn e then failed := true else raise e)
  in
  List.iter (fun file -> eval_chunk ~echo:false (read_file file)) files;
  List.iter (fun e -> eval_chunk ~echo:true e) exprs;
  let batch_failed = !failed in
  if interactive then begin
    print_endline
      "schemer repl -- segmented-stack Scheme with one-shot continuations";
    print_endline "(exit with ctrl-d; continuation lines prompt with ..)";
    (* crude balance check: parens/brackets outside strings and comments *)
    let balance s =
      let depth = ref 0 and in_str = ref false and esc = ref false in
      String.iter
        (fun c ->
          if !in_str then
            if !esc then esc := false
            else if c = '\\' then esc := true
            else if c = '"' then in_str := false
            else ()
          else
            match c with
            | '"' -> in_str := true
            | '(' | '[' -> incr depth
            | ')' | ']' -> decr depth
            | _ -> ())
        s;
      !depth
    in
    let rec loop () =
      print_string "> ";
      match read_line () with
      | exception End_of_file -> print_newline ()
      | line when String.trim line = "" -> loop ()
      | line ->
          let rec complete acc =
            if balance acc > 0 then begin
              print_string ".. ";
              match read_line () with
              | exception End_of_file -> acc
              | more -> complete (acc ^ "\n" ^ more)
            end
            else acc
          in
          eval_chunk ~echo:true (complete line);
          loop ()
    in
    loop ()
  end;
  if stats_flag then begin
    flush stdout;
    Printf.eprintf "\n-- machine counters --\n";
    List.iter
      (fun (name, v) ->
        if v <> 0 then Printf.eprintf "%-18s %d\n" name v)
      (Stats.to_rows stats)
  end;
  if batch_failed then 1 else 0

let backend_conv =
  Arg.enum
    [
      ("stack", `Stack);
      ("closure", `Closure);
      ("heap", `Heap);
      ("oracle", `Oracle);
    ]

let overflow_conv =
  Arg.enum [ ("call1cc", Control.As_call1cc); ("callcc", Control.As_callcc) ]

let promotion_conv =
  Arg.enum [ ("eager", Control.Eager); ("shared-flag", Control.Shared_flag) ]

let capture_conv =
  Arg.enum [ ("seal", Control.Seal); ("copy", Control.Copy_on_capture) ]

let main backend_kind seg_words copy_bound overflow hysteresis seal_disp
    no_cache promotion capture scheme_winders corpus stats_flag disassemble
    expand_only no_hygiene optimize no_peephole no_regalloc verify lint exprs
    files =
  let config =
    {
      Control.default_config with
      Control.seg_words;
      copy_bound;
      overflow_policy = overflow;
      hysteresis_words = hysteresis;
      oneshot_seal =
        (match seal_disp with
        | None -> Control.Whole_segment
        | Some n -> Control.Seal_displacement n);
      cache_enabled = not no_cache;
      promotion;
      capture;
    }
  in
  let backend =
    match backend_kind with
    | `Stack -> Scheme.Stack config
    | `Closure -> Scheme.Closure config
    | `Heap -> Scheme.Heap
    | `Oracle -> Scheme.Oracle
  in
  let interactive = exprs = [] && files = [] in
  let hygiene = not no_hygiene in
  match Control.validate config with
  | Some (field, minimum, given) ->
      (* [validate] names each bound after its option, with
         underscores. *)
      Printf.eprintf "error: --%s must be at least %d, got %d\n%!"
        (String.map (function '_' -> '-' | c -> c) field)
        minimum given;
      1
  | None when lint -> run_lint ~exprs ~files
  | None ->
      run_session ~backend ~scheme_winders ~corpus ~stats_flag ~disassemble
        ~expand_only ~optimize ~peephole:(not no_peephole)
        ~regalloc:(not no_regalloc) ~verify ~hygiene ~exprs ~files ~interactive

let cmd =
  let backend =
    Arg.(
      value
      & opt backend_conv `Stack
      & info [ "backend" ]
          ~doc:
            "Execution backend: stack (the paper's segmented-stack VM), \
             closure (the same machine driven by template-compiled OCaml \
             closures -- identical semantics and counters, faster \
             dispatch), heap (heap-frame baseline), or oracle (CPS \
             reference interpreter).  All --seg-words/--overflow/... knobs \
             apply to stack and closure.")
  in
  let seg_words =
    Arg.(
      value
      & opt int Control.default_config.Control.seg_words
      & info [ "seg-words" ] ~doc:"Stack segment size in words.")
  in
  let copy_bound =
    Arg.(
      value
      & opt int Control.default_config.Control.copy_bound
      & info [ "copy-bound" ]
          ~doc:"Copy bound for multi-shot invocation (words).")
  in
  let overflow =
    Arg.(
      value
      & opt overflow_conv Control.As_call1cc
      & info [ "overflow" ]
          ~doc:"Overflow policy: call1cc (implicit call/1cc) or callcc.")
  in
  let hysteresis =
    Arg.(
      value
      & opt int Control.default_config.Control.hysteresis_words
      & info [ "hysteresis" ]
          ~doc:"Words copied up on one-shot overflow (anti-bounce).")
  in
  let seal_disp =
    Arg.(
      value
      & opt (some int) None
      & info [ "seal-displacement" ]
          ~doc:
            "Seal one-shot captures at this many words of headroom instead \
             of encapsulating the whole segment.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the segment cache.")
  in
  let promotion =
    Arg.(
      value
      & opt promotion_conv Control.default_config.Control.promotion
      & info [ "promotion" ] ~doc:"Promotion strategy: eager or shared-flag.")
  in
  let capture =
    Arg.(
      value
      & opt capture_conv Control.Seal
      & info [ "capture" ]
          ~doc:
            "call/cc capture strategy: seal (the paper's zero-copy              segmented stack) or copy (eager copy-on-capture baseline).")
  in
  let scheme_winders =
    Arg.(
      value & flag
      & info [ "scheme-winders" ]
          ~doc:
            "Load the historical Scheme-level dynamic-wind implementation \
             (%winders list + wrapper closures) instead of the native \
             winder protocol; for differential testing.")
  in
  let corpus =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:"Preload the benchmark corpus (tak, fib, threads, ...).")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print machine counters on exit (stderr).")
  in
  let disassemble =
    Arg.(
      value & flag
      & info [ "disassemble" ]
          ~doc:"Print bytecode instead of evaluating.")
  in
  let expand_only =
    Arg.(
      value & flag
      & info [ "expand" ]
          ~doc:
            "Print the expanded core forms (one per line) instead of \
             evaluating; hygiene-marked identifiers render as name#n.")
  in
  let no_hygiene =
    Arg.(
      value & flag
      & info [ "no-hygiene" ]
          ~doc:
            "Turn off hygienic syntax-rules expansion (template-introduced \
             identifiers get no fresh marks), reproducing the historical \
             textual expansion; for differential testing.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Enable the AST optimizer (constant folding; assumes standard              bindings).")
  in
  let no_peephole =
    Arg.(
      value & flag
      & info [ "no-peephole" ]
          ~doc:
            "Disable the bytecode peephole pass (superinstruction fusion and \
             inline-cached primitive calls).")
  in
  let no_regalloc =
    Arg.(
      value & flag
      & info [ "no-regalloc" ]
          ~doc:
            "Disable the register-lowering stage of the peephole pass \
             (operand-addressed primitive calls and fused returns), keeping \
             the push-based encoding; for differential testing.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run the static bytecode verifier over every compiled code \
             object (abstract-interpretation initialization checks plus the \
             optimizer's structural fusion contracts); abort with a \
             diagnostic on any violation.  Code that (eval datum) compiles \
             at run time is neither fused nor verified.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Lint the program source instead of executing it: multi-shot \
             call/1cc diagnostics, set! of fused primitives and unused \
             bindings.  Exit status 1 if any diagnostic fires.")
  in
  let exprs =
    Arg.(
      value & opt_all string []
      & info [ "e"; "eval" ] ~docv:"EXPR" ~doc:"Evaluate $(docv).")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Files to run.")
  in
  let term =
    Term.(
      const main $ backend $ seg_words $ copy_bound $ overflow $ hysteresis
      $ seal_disp $ no_cache $ promotion $ capture $ scheme_winders $ corpus
      $ stats_flag $ disassemble $ expand_only $ no_hygiene $ optimize
      $ no_peephole $ no_regalloc $ verify $ lint $ exprs $ files)
  in
  Cmd.v
    (Cmd.info "schemer" ~version:"1.0"
       ~doc:
         "Scheme with one-shot continuations on a segmented control stack \
          (Bruggeman/Waddell/Dybvig, PLDI'96)")
    term

let () = exit (Cmd.eval' cmd)
