(** Compile-once shared prelude image.

    The prelude sources are expanded, compiled, validated, verified and
    executed exactly once per configuration key — (scheme_winders,
    optimize, peephole, regalloc), where regalloc counts only when
    peephole is on — on a throwaway stack machine; the
    resulting global-slot delta is copied into each session's global
    table at create time.  Compiled code is session-independent
    (slot-indexed globals, process-shared primitives), so the codes,
    the closure values in the delta, and the closure backend's
    eagerly-compiled templates are shared read-only by every session,
    including sessions on separate domains. *)

type t

val get :
  scheme_winders:bool -> optimize:bool -> peephole:bool -> regalloc:bool -> t
(** The image for one configuration, building and caching it on first
    request (mutex-guarded: safe from any domain). *)

val install : t -> Globals.t -> unit
(** Copy the image's global-slot delta into [g] — the whole per-session
    cost of loading the prelude. *)

val builds : unit -> int
(** How many distinct images this process has built — the compile-once
    pin: it must not grow with session count. *)
