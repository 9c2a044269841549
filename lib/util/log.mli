(** Leveled structured logging as NDJSON lines.

    Every record is one JSON object on one line —
    [{"ts":…,"level":"info","msg":…,…fields}] — written to stderr by
    default or to the file [FUSECU_LOG_FILE] names; never to stdout, so
    enabling logging cannot perturb the byte-deterministic response
    stream of the planning service or the golden CLI transcripts
    (DESIGN.md §6b).

    The level starts from the [FUSECU_LOG] environment variable
    ([debug], [info], [warn], [error] or [off]; unset means off) and can
    be overridden programmatically ({!set_level}) or by the [--log-level]
    CLI flag. [FUSECU_LOG_FILE] redirects output to a file at first use.

    Thread-safe: one mutex serializes line emission, so records from
    concurrent connection threads or pool domains never interleave
    mid-line. Timestamps come from the {!Trace} clock, so log records
    and trace spans share a timebase. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> (level option, string) result
(** Case-insensitive; [Ok None] for ["off"]/["none"], [Error] otherwise
    on unknown names. ["warning"] is accepted for [Warn]. *)

val set_level : level option -> unit
(** [None] disables logging entirely. Overrides [FUSECU_LOG]. *)

val current_level : unit -> level option

val enabled : level -> bool
(** Would a record at this level be emitted? *)

val set_sink : (string -> unit) -> unit
(** Redirect complete NDJSON lines to an arbitrary consumer (tests). *)

val set_shard : int -> unit
(** Tag every subsequent record with a [shard] field. The router calls
    this in each forked backend (and exports [FUSECU_LOG_SHARD] for
    exec'd descendants, read at first use) so merged stderr from a
    fleet stays attributable per shard. *)

val debug : ?fields:(string * Json.t) list -> string -> unit

val info : ?fields:(string * Json.t) list -> string -> unit

val warn : ?fields:(string * Json.t) list -> string -> unit

val error : ?fields:(string * Json.t) list -> string -> unit

val msg : level -> ?fields:(string * Json.t) list -> string -> unit
(** Emit one record if [level] is enabled: [ts] (seconds, collector
    clock), [level], [pid], [shard] (when set), [msg], then [fields] in
    the given order. *)
