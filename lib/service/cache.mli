(** A sharded, bounded, LRU plan cache keyed by canonical request
    strings ({!Protocol.canonicalize}).

    Sharding: keys hash to one of [shards] independent sub-caches, each
    behind its own mutex, so concurrent lookups from worker domains only
    contend when they collide on a shard. Capacity is global and divided
    evenly across shards (rounded up); each shard evicts its own
    least-recently-used entry when it overflows, so the bound is
    per-shard [ceil (capacity / shards)] and the total never exceeds
    [shards * ceil (capacity / shards)].

    Recency is an intrusive doubly-linked list per shard: every entry is
    a list node, moved to the front on each hit and insert, so the back
    is the least recently used entry. A hit relinks its node and
    allocates nothing, and an insert into a full shard unlinks the back:
    eviction is O(1), whatever the shard size (capacity comes from
    [--cache-entries]).

    Determinism: hit/miss/eviction behaviour depends only on the
    sequence of [find]/[add] calls. The service engine performs all
    cache access in its sequential drain phase, in request order, so
    cache statistics are byte-identical across [FUSECU_DOMAINS]
    settings. *)

type 'a t

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [capacity] is the total entry bound ([>= 0]; 0 means the cache
    stores nothing and every [find] misses). [shards] defaults to 8 and
    is clamped to [\[1, capacity\]] when [capacity > 0]. *)

val capacity : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; refreshes the entry's recency on hit and bumps the hit or
    miss counter. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; evicts the shard's LRU entry first when the
    shard is full. A no-op when [capacity = 0]. *)

val load : 'a t -> ('b -> 'a) -> (string * 'b) list -> unit
(** [load t f entries] on an empty [t] leaves what [add t k (f v)] of
    every entry in order leaves — per shard, the newest entries while
    the shard has room, in the same recency order — and counts no
    eviction, hit or miss; entries {!add} would evict are skipped, and
    [f] sees only the kept ones. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : 'a t -> stats
(** Consistent snapshot: all shard locks are held for the duration of
    the read (acquired and released in index order), so concurrent
    [add]s can never produce a torn view — [entries] is bounded by the
    capacity invariant and counters from one instant. *)

val shard_occupancy : 'a t -> int list
(** Entry count of each shard, in shard order, under the same
    all-shards snapshot as {!stats}. Deterministic for a given sequence
    of [find]/[add] calls (sharding is full-string FNV-1a,
    {!Fusecu_util.Hash.fnv1a64_positive}, and the engine drains
    sequentially), so safe to report in [stats] responses compared
    against goldens. *)

val fold_entries : 'a t -> (string -> 'a -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over every (key, value) pair under the all-shards snapshot, in
    unspecified order. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when no lookups have happened. *)
