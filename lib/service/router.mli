(** The sharding front end ([route] subcommand): consistent-hashes each
    request's canonical cache key onto one of N backend sockets (each an
    ordinary [serve --socket] server), forwards the raw NDJSON lines,
    and reassembles responses in request order.

    {b Determinism.} Response bytes for a call depend only on the call
    (canonicalization runs on every request; cache state decides whether
    a plan is recomputed, never what it is), so the reassembled
    transcript is byte-identical for every shard count and across
    cold/warm stores. [stats]/[metrics] are the exception — their
    counters are per-process — so they fan out to every backend and the
    router emits the {!Fleet} merge (counters summed, histograms
    bucket-wise, per-shard payloads under a ["shards"] key); a 1-shard
    tier passes the single backend's control responses through verbatim,
    reproducing the single-server transcript exactly, control lines
    included. The fleet's [uptime_ticks] is the router's own request-line
    count, a pure function of client traffic. Cross-shard-count
    comparisons still exclude control lines (counters are shard-count
    dependent). [shutdown] is broadcast to every backend; the client
    sees backend 0's (byte-identical) ack. Blank input lines are
    skipped, exactly as an unrouted server skips them.

    {b Trace propagation.} Each routable call is stamped with a trace
    context ["r<trace>.<seq>"] in the ["tc"] envelope member
    ({!Protocol.with_tc} — a textual splice, so no other byte changes).
    Backends attach it to their spans and echo it on responses; the
    router strips the exact echo before emitting. Routed output is
    therefore byte-identical whether or not tracing, logging or a
    metrics registry is enabled anywhere in the fleet.

    {b Placement.} The ring hashes backend indices, not socket paths
    ({!Fusecu_util.Hash.fnv1a64_positive} through SplitMix64's 64-bit
    finalizer, a constant 64 virtual nodes per backend), so a key's
    shard is a pure function of the shard count ({!shard_of_key}) —
    stable across restarts, which is what lets each shard's persistent
    store stay authoritative for its keys.

    {b Plumbing.} One [select] loop on the calling thread: no threads
    and no locks. Each backend has one buffer of unsent requests,
    written when the backend is writable, and its answers are read in
    every turn; the client is not read while a backend holds 64 KiB
    unsent. Client output is written once per turn. A backend's
    liveness deadline runs only while it owes answers; a backend that
    closed while owing nothing (a shard's idle timeout) is reopened by
    the next request routed to it. *)

type config = {
  idle_timeout : float;
      (** how long a backend that owes answers may go without
          delivering one; [<= 0.] disables the bound *)
  max_line : int;  (** longest accepted backend response line *)
}

val default_config : config
(** 30 s, 1 MiB. *)

val run :
  ?config:config ->
  ?metrics:Metrics.t ->
  backends:string list ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
(** Connect to the backend sockets, then route the lines read from
    [input] until its end (or an in-band [shutdown], which is
    broadcast), writing one response line per request line to [output],
    in request order. A backend that closes or misses its deadline while
    it owes answers yields a [bad_request] error line for each of them
    rather than wedging the stream. When [metrics] is given the router
    maintains its own registry — [router_requests],
    [router_routed_bytes] (total and per shard), [router_fanouts],
    [router_backend_errors] counters; per-backend
    [router_inflight_shard_i] and [router_reassembly_depth] gauges —
    all off the response path. Raises [Failure] when a backend socket
    cannot be connected, [Invalid_argument] on an empty backend list. *)

val shard_of_key : shards:int -> string -> int
(** [shard_of_key ~shards key] is the index of the backend that a
    [shards]-backend router sends a call whose canonical cache key is
    [key] ({!Protocol.cache_key}). *)

(** {1 Out-of-band scraping} *)

val scrape_metrics : ?timeout:float -> string -> (Fusecu_util.Json.t, string) result
(** Open a fresh connection to a backend socket, send a {e quiet}
    metrics request ([{"op":"metrics","quiet":true}]) and return the
    dump payload. Quiet scrapes move no counter and no tick, so polling
    concurrently with a golden replay cannot perturb any deterministic
    byte. *)

val fleet_prometheus_render :
  ?prefix:string -> metrics:Metrics.t -> sockets:string list -> unit -> string
(** Render the fleet Prometheus exposition for the [--metrics-addr]
    exporter: scrape every backend ({!scrape_metrics}), merge with the
    router's own registry, label shard series with [{shard="i"}]
    ({!Fleet.fleet_prometheus}). A shard that fails to scrape
    contributes no series for that pass (and bumps
    [router_scrape_errors]); an unrenderable fleet yields a comment
    line, never an exception. *)

(** {1 Spawning a local shard fleet} *)

type child = { pid : int; socket : string }

val wait_for_socket : ?timeout:float -> string -> bool
(** Poll until [path] exists as a socket (a forked shard has bound it)
    or the timeout elapses. *)

val spawn_shard :
  ?batch:int ->
  ?trace:string ->
  make_engine:(int -> Engine.t) ->
  socket:string ->
  server_config:Server.socket_config ->
  int ->
  child
(** Fork a shard process serving [socket]: the child builds its engine
    via [make_engine i] (shard index — e.g. to open a per-shard store),
    runs {!Server.serve_socket} until shutdown, closes the engine's
    store, and exits. The child tags its log records with the shard
    index ({!Fusecu_util.Log.set_shard}; [FUSECU_LOG_SHARD] is exported
    for exec'd descendants). When [trace] names a file, the child
    collects spans for its whole life and exports them there as a
    Chrome trace on exit, under its real pid with a ["shard-i"] process
    lane — ready for {!Fusecu_util.Trace.merge_chrome}. *)

val stop_children : child list -> unit
(** SIGTERM then reap every child (each drains gracefully — PR 3's
    signal handling). *)
