(* One diagnostic type from reader to runtime (DESIGN.md §17).

   Every layer of the pipeline reports failures in its own currency —
   the reader raises [Sexp.Read_error], the expander [Expand_error], the
   macro matcher [Macro_error], the compiler [Compile_error], the
   verifier [Verify.Error], the machines [Rt.Scheme_error] — but the
   user sees exactly one surface: a [Diag.t] rendered by [to_string] as

     line:col: severity: [tag] message

   where [tag] is the lint rule slug when one exists and the layer name
   otherwise.  Layers that cannot know a source position (a runtime
   error deep in a call chain, a verifier violation over fused bytecode)
   drop the [line:col:] prefix unless the driver supplies the position
   of the top-level form being processed ([of_exn ?pos]).

   The converters live where the dependency order allows: this module
   sees the reader, the expander/macro layer and the runtime; the
   compiler and verifier sit above [frontend] in the library graph, so
   the driver (bin/schemer.ml) folds their exceptions in before falling
   back to {!of_exn}. *)

type severity = Error | Warning

type layer =
  | Reader
  | Expander
  | Macro
  | Compiler
  | Verify
  | Lint
  | Runtime

type t = {
  severity : severity;
  layer : layer;
  rule : string option; (* stable slug, e.g. "multi-shot-1cc" (lint) *)
  pos : Sexp.pos option;
  message : string;
}

let layer_name = function
  | Reader -> "read"
  | Expander -> "expand"
  | Macro -> "macro"
  | Compiler -> "compile"
  | Verify -> "verify"
  | Lint -> "lint"
  | Runtime -> "runtime"

let severity_name = function Error -> "error" | Warning -> "warning"

let make ?(severity = Error) ?rule ?pos layer message =
  { severity; layer; rule; pos; message }

let error ?rule ?pos layer message = make ~severity:Error ?rule ?pos layer message

let to_string d =
  let tag = match d.rule with Some r -> r | None -> layer_name d.layer in
  let body =
    Printf.sprintf "%s: [%s] %s" (severity_name d.severity) tag d.message
  in
  match d.pos with
  | Some p -> Printf.sprintf "%d:%d: %s" (Sexp.line p) (Sexp.col p) body
  | None -> body

let of_exn ?pos exn =
  match exn with
  | Sexp.Read_error (msg, p) -> Some (error ~pos:p Reader msg)
  | Expander.Expand_error (msg, p) -> Some (error ~pos:p Expander msg)
  | Macro.Macro_error (msg, p) -> Some (error ~pos:p Macro msg)
  | Rt.Scheme_error (msg, irritants) ->
      let message =
        match irritants with
        | [] -> msg
        | vs -> msg ^ " " ^ String.concat " " (List.map Values.write_string vs)
      in
      Some (error ?pos Runtime message)
  | Rt.Shot_continuation ->
      Some (error ?pos Runtime "one-shot continuation invoked twice")
  | _ -> None
