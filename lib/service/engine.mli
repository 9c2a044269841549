(** The batched planning executor behind the [serve] subcommand.

    The engine answers newline-delimited {!Protocol} requests, serves
    repeats out of the canonicalizing plan {!Cache}, fans uncached work
    across {!Fusecu_util.Pool} worker domains, and emits one response
    line per request {e in request order}, so the output stream is
    byte-deterministic regardless of [FUSECU_DOMAINS], batch size or
    cache configuration (see DESIGN.md §5 for why canonicalization
    preserves this).

    A batch is the list of lines a caller hands to {!answer}: the
    engine keeps no batch size and no state between calls. The server
    hands it the lines that have arrived, at most [--batch] of them, so
    no request waits for input that has not arrived. Within the list, a
    control request ([stats] / [metrics] / [shutdown]) or a
    [plan_model] first flushes the requests before it; a flush runs
    three phases —

    + {b lookup} (sequential, request order): canonicalize, probe the
      cache; misses are deduplicated into a unique work list (a repeat
      of an in-flight key {e coalesces} onto the first occurrence);
    + {b compute} (parallel): the unique work list runs on the pool via
      [parallel_map], which preserves ordering; the process-global pool
      is taken only for two computes or more, so an all-hit server
      starts no worker domain. An [intra] / [fuse] /
      [chain] miss is the closed-form principle plan alone, with no
      search after it; a [nest] miss is a {!Fusecu_dse.Nest_bnb}
      search;
    + {b drain} (sequential, request order): successful outcomes are
      inserted into the cache and the store, and every outcome is
      mapped back through {!Protocol.apply_transform} and replied.

    An answer is computed as its printed text ({!Protocol.outcome}):
    {!compute} runs the planner and hands its result to the op's
    builder in {!Protocol} ({!Protocol.intra_outcome} and the others),
    which prints the wire [result] members once. A cache entry holds
    that text,
    whether it was computed or recovered from the store, and a reply
    splices it after the request's id and problem echo. A transposed
    [intra] reply relabels the text ({!Protocol.apply_transform}); the
    entry keeps the relabelled text once a hit has asked for it, and a
    miss relabels it at most once for the replies of its batch.

    Because the cache is only touched in the sequential phases, its
    hit/miss/eviction counters — and therefore the [stats] response —
    are a function of the request lines and of where the batches end,
    and the kept text is a pure function of the outcome and the
    orientation. On a pipe or a socket the batches end where the input
    paused, so [stats] stays outside the determinism contract
    (DESIGN.md §6c). Control requests act as batch barriers, so a
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
(** Cache on with 4096 entries, 8 shards, global pool, slow log off.
    It reads no environment variable: [serve --cache-entries] and
    [route --cache-entries] override the capacity. *)

type t

val create : ?metrics:Metrics.t -> ?store:Store.t -> config -> t
(** When [store] is given and the cache is enabled, its recovered
    entries ({!Store.recovered}) warm-load the cache through
    {!Cache.load}, which counts nothing, so responses stay byte-identical
    to a cold start; and every plan inserted into the cache thereafter is
    also appended to the store. The engine writes nothing: the server
    flushes the store after each write of a batch's replies, and an
    in-process caller ({!handle_lines}) closes it after the engine stops,
    which writes what is pending. *)

val store : t -> Store.t option

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
(** Run one (already canonical) call against the planners; the answer
    is the planner's result printed by the op's builder in {!Protocol}.
    Exposed for the benchmark harness; normal traffic goes through
    {!answer}. *)

type stop_reason =
  | Drained  (** every line was answered *)
  | Shutdown  (** an in-band [shutdown] request was served *)

val answer : t -> emit:(string -> unit) -> string list -> stop_reason
(** Answer [lines] as one batch, handing each response line to [emit]
    before returning, unless an in-band [shutdown] stops it: the lines
    after that one are not answered. The return value says {e why} it
    stopped, so transports can react to a [shutdown] without re-parsing
    emitted responses. Blank lines get no response. *)

val handle_lines : t -> ?batch:int -> string list -> string list
(** {!answer} over [lines] [batch] lines at a time (default 64, min 1),
    as the server cuts input that arrives whole; for tests and fixture
    replay. *)
