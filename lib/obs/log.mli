(** Leveled structured logging: one JSON object per line (JSONL), safe
    to call from any thread.

    Record shape (see docs/OBSERVABILITY.md):
    [{"ts":"<ISO 8601 UTC>","mono_ns":<ns since logger creation>,
      "level":"info","msg":"...", <extra fields>}] *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

type field =
  | S of string
  | I of int
  | F of float
  | B of bool
  | J of string
      (** Pre-rendered JSON embedded verbatim — e.g. a trace span tree. *)

type t

(** Discards everything; [enabled] is always [false], so call sites pay
    only a branch. *)
val null : t

(** Log to an existing channel (not closed by {!close}). *)
val to_channel : ?level:level -> out_channel -> t

(** Append to [path], creating it if needed. Raises [Sys_error] if the
    file cannot be opened. *)
val open_file : ?level:level -> string -> t

val set_level : t -> level -> unit
val level : t -> level

(** [true] when a record at this level would be written — guard any
    expensive field construction with this. *)
val enabled : t -> level -> bool

val log : t -> level -> ?fields:(string * field) list -> string -> unit
val debug : t -> ?fields:(string * field) list -> string -> unit
val info : t -> ?fields:(string * field) list -> string -> unit
val warn : t -> ?fields:(string * field) list -> string -> unit
val error : t -> ?fields:(string * field) list -> string -> unit

(** Flush (and close, for {!open_file} sinks) the output. *)
val close : t -> unit

(** Token-bucket-of-one rate limiter — at most one admitted event per
    [min_interval_s]; used by the tail-retention record. *)
module Limiter : sig
  type t

  val create : min_interval_s:float -> t

  (** [Some n] admits the event, where [n] is the number of events
      suppressed since the last admitted one; [None] suppresses it. *)
  val admit : t -> now:float -> int option
end

(** Route the [logs] library (used by lib/core's PIB/PALO debug
    tracing) into this sink as JSONL records with a ["src"] field, and
    align the [Logs] level with the sink's. *)
val install_logs_reporter : t -> unit
