(** A fixed-size pool of OCaml 5 domains for data-parallel folds over
    integer index ranges.

    The pool exists so that the DSE hot paths (schedule-space search,
    buffer sweeps, workload evaluation) can split their iteration space
    into chunks and evaluate the chunks on several cores, while keeping
    results {e bit-identical} to the sequential path: per-chunk partial
    results are combined with a caller-supplied [merge] in ascending
    chunk order, so a deterministic [merge] yields a deterministic total
    regardless of which domain ran which chunk, or in which order the
    chunks finished.

    Built on [Domain], [Mutex] and [Condition] from the standard library
    only — no external dependencies. Worker domains are spawned once at
    pool creation and reused across parallel regions; a pool of size 1
    spawns nothing and runs every region inline. Nested or concurrent
    regions on the same pool degrade gracefully to inline sequential
    execution instead of deadlocking. *)

type t

val create : int -> t
(** [create n] spawns [n - 1] worker domains ([n >= 1]; the submitting
    caller acts as the [n]-th worker). The pool is registered with
    [at_exit] so stray pools do not prevent program termination;
    {!shutdown} is idempotent. Raises [Invalid_argument] when [n < 1]. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool must not be
    used afterwards. *)

val size : t -> int
(** Number of workers, including the submitting caller. *)

val sequential : t
(** A pool of size 1: every region runs inline on the caller, nothing is
    ever spawned. Useful as an explicit [?pool] argument to force the
    sequential path (baselines, determinism tests). *)

val default_size : unit -> int
(** Pool size used for the implicit global pool: the [FUSECU_DOMAINS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()], clamped to [\[1, 64\]]. *)

val get_global : unit -> t
(** The lazily-created process-wide pool (size {!default_size}); used by
    every parallel entry point when no explicit [?pool] is given. *)

val set_global_size : int -> unit
(** Replace the global pool with one of the given size (shutting the old
    one down). Intended for benchmarks and tests that compare domain
    counts at runtime. *)

val parallel_fold :
  ?pool:t ->
  ?label:string ->
  ?chunks:int ->
  lo:int ->
  hi:int ->
  fold:(int -> int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  'a ->
  'a
(** [parallel_fold ?pool ?label ?chunks ~lo ~hi ~fold ~merge init]
    splits the half-open range [\[lo, hi)] into [chunks] contiguous
    sub-ranges (default [4 x size], for load balancing), evaluates
    [fold sub_lo sub_hi] for each — possibly on different domains — and
    combines the partial results left to right:
    [merge (... (merge init p0) ...) p_last].

    [label] (default ["parallel"]) names the per-chunk {!Trace} spans
    (category ["pool"]) recorded while trace collection is enabled; it
    has no effect on results.

    Determinism contract: if [merge] is associative with [init] as a
    left identity, the result is independent of the chunk count and of
    the pool, so the parallel result equals the sequential
    [merge init (fold lo hi)].

    An exception raised by [fold] is re-raised in the caller (the one
    from the lowest-numbered chunk, if several chunks fail) after all
    chunks have settled. Returns [init] when [hi <= lo]. *)

val parallel_map :
  ?pool:t -> ?label:string -> ?chunks:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f arr] is [Array.map f arr] with the elements
    evaluated in parallel chunks; ordering of the result is preserved.
    Same exception behaviour (and [label] meaning) as {!parallel_fold}. *)

(** {1 Observability}

    Lightweight per-worker accounting, always on (a clock read and two
    float adds per chunk): worker 0 is the submitting caller, workers
    [1 .. size-1] are the spawned domains. [wait_s] accumulates, for
    each region, the delay between job submission and the worker's
    first chunk start (queue wait); [run_s] is time spent inside chunk
    bodies. Inline fallback regions (sequential pools, nested regions)
    are charged to worker 0. None of this affects scheduling or
    results. *)

type worker_stat = { worker : int; chunks : int; run_s : float; wait_s : float }

val stats : t -> int * worker_stat list
(** [(jobs, per-worker)] since creation; [jobs] counts parallel regions
    (inline fallbacks included). *)
