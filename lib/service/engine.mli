(** The batched planning executor behind the [serve] subcommand.

    The engine drains newline-delimited {!Protocol} requests, serves
    repeats out of the canonicalizing plan {!Cache}, fans uncached work
    across {!Fusecu_util.Pool} worker domains, and emits one response
    line per request {e in request order}, so the output stream is
    byte-deterministic regardless of [FUSECU_DOMAINS], batch size or
    cache configuration (see DESIGN.md §5 for why canonicalization
    preserves this).

    Batch lifecycle: requests accumulate until the batch is full, a
    control request ([stats] / [shutdown]) arrives, or the input ends;
    a flush then runs three phases —

    + {b lookup} (sequential, request order): canonicalize, probe the
      cache; misses are deduplicated into a unique work list (a repeat
      of an in-flight key {e coalesces} onto the first occurrence);
    + {b compute} (parallel): the unique work list runs on the pool via
      [parallel_map], which preserves ordering. An [intra] / [fuse] /
      [chain] miss is the closed-form principle plan alone, with no
      search after it; a [nest] miss is a {!Fusecu_dse.Nest_bnb}
      search;
    + {b drain} (sequential, request order): successful outcomes are
      inserted into the cache, every outcome is mapped back through
      {!Protocol.apply_transform} and serialized.

    Because the cache is only touched in the sequential phases, its
    hit/miss/eviction counters — and therefore the [stats] response —
    are deterministic too. Control requests act as batch barriers, so a
    [stats] response reflects exactly the requests before it in the
    stream. *)

open Fusecu_util

(** Uncached [intra] / [fuse] / [chain] computes always serve the
    closed-form principle plan, with no search after it; the plan is
    exact on every lattice the protocol offers (DESIGN.md §4d says
    where that is checked). The type and the [mapper] field have no
    effect and nothing reads them: they remain only because the
    benchmark harness still names [Mapper_principles], and go when it
    stops doing so. *)
type mapper = Mapper_principles

type config = {
  cache_enabled : bool;
  cache_entries : int;  (** total LRU capacity across shards *)
  cache_shards : int;
  pool : Pool.t option;  (** [None]: the process-global pool *)
  slow_log_ms : float option;
      (** when set, any single compute taking at least this many
          milliseconds emits a [Log.warn] record (op, cache key,
          duration, trace id). [None] disables the slow log. *)
  mapper : mapper;  (** no effect, see {!type-mapper} *)
}

val default_config : unit -> config
(** Cache on, capacity from [FUSECU_CACHE_ENTRIES] (default 4096,
    clamped to [>= 0]), 8 shards, global pool, slow log off. *)

type t

val create : ?metrics:Metrics.t -> ?store:Store.t -> config -> t
(** When [store] is given and the cache is enabled, its recovered
    entries ({!Store.recovered}) warm-load the cache — via [add] only,
    so hit/miss counters start at zero and responses stay byte-identical
    to a cold start — and every plan inserted into the cache thereafter
    is also appended to the store (write-behind; the sequential drain
    phase never blocks on disk). The engine does not own the store's
    lifecycle: the caller closes it after the engine stops. *)

val store : t -> Store.t option

val cache_snapshot : t -> (string * Protocol.outcome) list
(** Consistent (key, outcome) image of the live cache
    ({!Cache.fold_entries}), for {!Store.compact}. *)

val metrics : t -> Metrics.t

val cache_stats : t -> Cache.stats

val uptime_ticks : t -> int
(** Logical uptime: the number of request lines this engine has seen
    (calls, rejects and control requests alike). Deterministic for a
    given request stream — invariant to batch size, domain count and
    cache settings — so safe to report in golden-compared [stats]
    responses, unlike wall-clock uptime. *)

val stats_result : t -> Json.t
(** The deterministic [stats] payload: cache counters (plus per-shard
    occupancy, hit rate and coalesced count), the metrics counters, and
    {!uptime_ticks}. *)

val metrics_result : t -> Json.t
(** The full (non-deterministic) [metrics] payload: refreshes the
    point-in-time gauges ([cache_entries], [uptime_ticks]) and returns
    {!Metrics.to_json} — counters, gauges and wall-clock latency
    histograms. *)

val prometheus : t -> string
(** Same snapshot as {!metrics_result}, rendered as Prometheus text
    exposition ({!Metrics.to_prometheus}). This is what the
    [--metrics-addr] TCP exporter serves. *)

val compute : t -> Protocol.call
  -> (Protocol.outcome, Protocol.error_code * string) result
(** Run one (already canonical) call against the planners. Exposed for
    the benchmark harness; normal traffic goes through {!run}. *)

type stop_reason =
  | Drained  (** [next] returned [None] (end of input) *)
  | Shutdown  (** an in-band [shutdown] request was served *)

val run :
  t ->
  ?batch:int ->
  next:(unit -> string option) ->
  emit:(string -> unit) ->
  unit ->
  stop_reason
(** Drain request lines from [next] (until it returns [None] or a
    [shutdown] request) and hand each response line to [emit]. [batch]
    (default 64, min 1) bounds how many requests a flush covers. The
    return value says {e why} the loop stopped, so transports can react
    to an in-band [shutdown] without re-parsing emitted responses. *)

val handle_lines : t -> ?batch:int -> string list -> string list
(** Convenience wrapper over {!run} for tests and fixture replay. *)
