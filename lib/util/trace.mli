(** In-process structured tracing: request-scoped trace IDs and nested
    spans collected into a bounded ring buffer, exportable as Chrome
    trace-event JSON ([chrome://tracing] / Perfetto).

    Tracing is {e opt-in and invisible to program output}: when
    collection is off (the default) {!with_span} runs its body directly
    — one atomic load of overhead — and nothing is ever written to
    stdout, so instrumented code paths (the DSE engine, the planning
    service) keep their byte-deterministic responses whether or not a
    profile is being recorded (DESIGN.md §6b).

    Spans are recorded at completion into a fixed-capacity ring (oldest
    events are overwritten; {!dropped} counts the overwritten ones). All
    recording is mutex-serialized, so spans closed concurrently on
    several pool domains cannot tear the buffer.

    The timebase is a pluggable clock returning seconds ({!set_clock}).
    The default is [Unix.gettimeofday]; tests install a synthetic
    counter to get deterministic golden output. *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["enumerate"], ["evaluate"], ["merge"] *)
  ts_us : float;  (** span start, microseconds on the collector clock *)
  dur_us : float;  (** span duration in microseconds, [>= 0] *)
  tid : int;  (** domain id of the recording domain *)
  depth : int;  (** nesting depth within this domain, outermost = 1 *)
  args : (string * Json.t) list;
}

(** {1 Collection control} *)

val start : ?capacity:int -> unit -> unit
(** Enable collection into a fresh ring of [capacity] events (default
    65536, clamped to [>= 1]). Resets previously collected events and
    the drop count. *)

val stop : unit -> unit
(** Disable collection. Already-recorded events remain readable. *)

val is_enabled : unit -> bool

val clear : unit -> unit
(** Drop all recorded events (collection state is unchanged). *)

val set_clock : (unit -> float) -> unit
(** Replace the collector clock (seconds since an arbitrary epoch). The
    default is wall clock; install a monotonic source when available, or
    a synthetic counter in tests. The clock may be called concurrently
    from several domains and must be safe to do so. *)

val now : unit -> float
(** Read the collector clock (works even when collection is off — also
    the shared timestamp source for {!Log}). *)

(** {1 Spans} *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat ~args name f] runs [f ()] and, when collection is
    enabled, records a completed span around it ([cat] defaults to
    ["span"]). The span is recorded even when [f] raises. Spans nest:
    each domain tracks its own depth, so concurrent domains do not see
    each other's nesting. *)

val new_trace_id : unit -> int
(** Fresh process-unique id ([>= 1]) for tagging a request or batch so
    its spans can be correlated across stages. *)

(** {1 Reading} *)

val events : unit -> event list
(** Snapshot of the ring in recording order (oldest first). *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since {!start}/{!clear}. *)

(** {1 Export} *)

val to_chrome_json : ?pid:int -> ?process_name:string -> unit -> Json.t
(** The collected events as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}], phase ["X"] complete events, timestamps
    in microseconds), loadable in [chrome://tracing] and Perfetto.
    [pid] defaults to the fixed lane 1 (single-process profiles keep
    their golden shape); pass the real process id — and a [process_name]
    lane title, emitted as a [process_name] metadata event — when the
    file will be merged with other processes' traces
    ({!merge_chrome}). *)

val export : ?pid:int -> ?process_name:string -> string -> unit
(** Write {!to_chrome_json} to a file. *)

val merge_chrome : Json.t list -> (Json.t, string) result
(** Merge parsed Chrome trace objects (one per process of a routed
    fleet) into a single timeline: lane-title metadata events first,
    then all complete events interleaved by start timestamp (stable, so
    equal timestamps keep per-file recording order). Every process
    records on the same wall clock, so no timestamp fixup is applied.
    [Error] when an input lacks a [traceEvents] array. *)
