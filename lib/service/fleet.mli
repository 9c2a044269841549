(** Fleet-level aggregation of per-shard observability snapshots.

    The router's backends are separate processes, so aggregation works
    on the serialized wire shapes — {!Engine} [stats] payloads and
    {!Metrics.to_json} dumps — not on live [Metrics.t] values. Counters
    sum, histograms merge bucket-wise (every process shares the
    {!Metrics.buckets} log2 bin layout), gauges sum, and every merged
    object keeps sorted keys, so fleet responses are exactly as
    deterministic as their inputs. Malformed or schema-mismatched
    snapshots are refused with [Error], never guessed at. *)

module Json = Fusecu_util.Json

(** {1 Histograms} *)

val empty_hist : unit -> Metrics.histogram

val parse_histogram : Json.t -> (Metrics.histogram, string) result
(** Inverse of {!Metrics.histogram_json}: the dense decoding of the
    sparse wire histogram. [Error] on a bound that is not a bin bound of
    the shared layout, a negative count, or a bucket sum disagreeing
    with [count]. *)

val merge_histograms : Metrics.histogram -> Metrics.histogram -> Metrics.histogram
(** Bucket-wise sum; [count] and [total_s] add. *)

(** {1 In-band fan-out merges} *)

val merge_stats : uptime_ticks:int -> Json.t list -> (Json.t, string) result
(** Merge per-shard [stats] result payloads (shard order): cache
    hits/misses/evictions/entries/capacity/coalesced sum,
    [shard_entries] concatenate, [hit_rate] is recomputed through
    {!Cache.hit_rate} on the summed totals, counters union-sum.
    [uptime_ticks] is the {e router's} own request-line count — the
    fleet's logical clock stays a pure function of client request count,
    whereas summing backend ticks would count every fanned-out control
    line N times. The full per-shard payloads are preserved under a
    trailing ["shards"] key. *)

val merge_metrics : uptime_ticks:int -> Json.t list -> (Json.t, string) result
(** Merge per-shard {!Metrics.to_json} dumps: counters union-sum,
    latency histograms bucket-wise, gauges union-sum except
    [uptime_ticks], which is replaced by the router's count (same
    argument as {!merge_stats}). A family a dump lacks counts as empty.
    Per-shard dumps preserved under ["shards"]. *)

(** {1 Prometheus exposition} *)

val fleet_prometheus :
  ?prefix:string -> router:Json.t -> Json.t list -> (string, string) result
(** Fleet text exposition: {!Metrics.prometheus} of the router's own
    metrics dump, unlabeled, and one scraped dump per shard (shard
    order), labeled [{shard="i"}]. *)
