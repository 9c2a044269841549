(** Request metrics for the planning service: monotonic (only ever
    incremented) named counters plus log2-bucketed latency histograms.

    Counters are the {e deterministic} half — request counts, cache
    hits/misses/evictions, error counts — and are what the in-band
    [{"op":"stats"}] response reports, so that serve output stays
    byte-identical across runs and domain counts. Latency histograms are
    wall-clock dependent and only appear in the full {!to_json} dump
    written at shutdown (behind [--metrics]).

    All operations are thread-safe (a single mutex; the service's
    sequential drain phase does almost all the updating, workers only
    record latencies). *)

type t

val create : unit -> t

val buckets : int
(** Number of log2 histogram bins (1 µs doubling up to one final open
    bin). Shared by every histogram, so bucket-wise merging across
    processes ({!Fleet}) is always aligned. *)

type histogram = {
  mutable count : int;
  mutable total_s : float;
  bins : int array;  (** {!buckets} slots; see {!bucket_of_seconds} *)
}

val bucket_of_seconds : float -> int
(** Bin index ([0 .. buckets-1]) an observation of this many seconds
    lands in: bin [i] spans [[2^i, 2^(i+1)) µs]; the last bin is open. *)

val incr : ?by:int -> t -> string -> unit
(** Bump a named counter (created at zero on first use). [by] defaults
    to 1 and must be [>= 0] — counters are monotonic. *)

val get : t -> string -> int
(** Current value of a counter (0 when never incremented). *)

val observe : t -> string -> float -> unit
(** Record one latency observation, in seconds, into the named
    histogram. *)

val set_gauge : t -> string -> float -> unit
(** Set a named gauge to an instantaneous value (created on first use).
    Unlike counters, gauges may move in either direction — they report
    point-in-time state such as cache occupancy or uptime ticks. *)

val gauges : t -> (string * float) list
(** Snapshot of all gauges, sorted by name. *)

val counters : t -> (string * int) list
(** Snapshot of all counters, sorted by name (deterministic). *)

val counters_json : t -> Fusecu_util.Json.t
(** The deterministic counters as a JSON object (keys sorted). *)

val histogram_json : count:int -> total_s:float -> int array -> Fusecu_util.Json.t
(** The sparse encoding of one histogram ([bins] has {!buckets} slots):
    [{"count";"total_s";"buckets":[{"le_us";"n"}]}] listing non-empty
    bins only, [le_us] the bin's upper bound in µs ([2^(i+1)]) and
    [null] for the final open bin. {!Fleet.parse_histogram} is its
    inverse. *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram) list;
  gauges : (string * float) list;
}
(** Every metric family, each sorted by name. A registry's snapshot is
    taken under one lock acquisition, so a concurrent update cannot tear
    it (e.g. a request counted whose latency is missing). *)

val snapshot_members : snapshot -> (string * Fusecu_util.Json.t) list
(** The members of {!to_json}'s object. *)

val to_json : t -> Fusecu_util.Json.t
(** Full dump of the {!snapshot}: counters, latency histograms and (when
    any exist) gauges. Each histogram reports [count], [total_s] and
    log2 buckets [{"le_us": upper, "n": count}] covering 1 µs .. ~17 min
    (observations above the last bound land in a final open bucket).
    Not deterministic — wall-clock data. *)

val prometheus : ?prefix:string -> snapshot -> snapshot list -> string
(** Prometheus text exposition (format 0.0.4) of one process's snapshot
    and, for a fleet, one snapshot per shard (shard order). One
    [# TYPE] line per family over all of them: counters as counter,
    gauges as gauge, and each latency histogram as a [_seconds]
    histogram with cumulative [_bucket{le="..."}] lines (the log2 µs
    bins converted to seconds; the open bin maps to [+Inf]), plus
    [_sum] and [_count]. The first snapshot's series are unlabeled and
    each shard's carry [{shard="i"}] (before [le] on buckets). [prefix]
    (default ["fusecu_"]) is prepended to every metric name; names are
    sanitized to the Prometheus charset [a-zA-Z0-9_:]. *)

val to_prometheus : ?prefix:string -> t -> string
(** {!prometheus} of this registry's {!snapshot} alone. *)
