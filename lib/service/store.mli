(** The persistent plan store: an append-only, CRC-framed NDJSON log of
    [(canonical cache key, outcome)] records, so plan caches survive
    restarts and warm instantly.

    {b Format.} One record per line:
    [CCCCCCCC {"k":<cache key>,"o":{"op":<op>,<result fields>}}\n] where
    [CCCCCCCC] is the lowercase hex CRC-32 ({!Fusecu_util.Hash.crc32})
    of the payload after the single separating space, and the outcome
    is {!Protocol.outcome_to_json}: the op name followed by the outcome
    fields of the wire [result], printed by the deterministic compact
    JSON printer. For example
    [{"k":"r|8|8|8|524288","o":{"op":"regime","regime":"large",
    "thresholds":{...},"classes":["Three-NRA"]}}].

    {b Upgrade.} Stores written before the outcome payload became the
    wire shape hold tagged [{"t":...}] outcomes. Their first record
    fails to decode, so the whole file is dropped as a damaged tail on
    the first open: truncated, counted in [dropped_records] and logged
    at warn level. The store caches deterministic answers, so the only
    cost is recomputing them; no decoder for the old format is kept.

    {b Recovery invariant.} Records are valid up to the first damaged
    one (short frame, bad hex, CRC mismatch, unparseable payload, or a
    torn final append without its newline); everything from the first
    damage onward is dropped — append-only writing means every earlier
    byte is intact, and framing after a damaged record cannot be
    trusted. The damaged tail is also truncated from the file on open so
    subsequent appends never graft onto a torn fragment. Later records
    win on duplicate keys (re-computation after LRU eviction supersedes
    the old record).

    {b Write-behind.} {!append} only enqueues; a dedicated flusher
    thread batches frames to the append-mode fd, so the engine's
    sequential drain phase never blocks on disk. {!flush} waits for the
    queue to empty (tests and compaction); {!close} drains and joins.

    {b Compaction.} {!compact} writes one record per live entry to
    [path ^ ".tmp"] and atomically renames it over the log, then reopens
    the append fd on the new inode — a reader or a crash sees either the
    old log or the new one, never a half-written file. *)

type t

type recovery = {
  entries : (string * Protocol.outcome) list;
      (** first-seen key order, later duplicates folded in *)
  records : int;  (** valid records read, before dedup *)
  dropped_records : int;  (** line-shaped fragments in the damaged tail *)
  dropped_bytes : int;
}

val open_ : path:string -> (t, string) result
(** Recover [path] (created if absent), truncate any damaged tail, and
    start the flusher thread. *)

val recovered : t -> recovery
(** What {!open_} found — feed [entries] to {!Cache.add} to warm-load. *)

val set_metrics : t -> Metrics.t -> unit
(** Attach an instrumentation sink (the engine wires its own registry at
    {!Engine.create}). Registers the recovery counters
    [store_records_loaded], [store_dropped_records] and
    [store_torn_tail_bytes] — {e only} the nonzero ones, so a cold fresh
    store leaves the deterministic counter set (and with it the golden
    [stats] line) untouched — and makes the flusher maintain the
    [store_queue_depth] gauge plus [store_flush_batch] /
    [store_append_seconds] histograms. None of these appear on any
    response path except the non-golden [metrics] dump, so
    instrumentation cannot perturb transcripts. *)

val frame : string -> Protocol.outcome -> string
(** [frame key outcome]: the record line of [(key, outcome)], newline
    included, as {!append} and {!compact} write it. *)

val append : t -> string -> Protocol.outcome -> unit
(** Enqueue one record for the flusher; never blocks on disk. Silently
    dropped after {!close} (shutdown races are benign: the store is a
    cache of recomputable plans, not a system of record). The outcome
    is printed ({!Protocol.result_members}) on the caller's thread; the
    flusher adds the key, the CRC and the newline. *)

val append_members : t -> string -> op:string -> string -> unit
(** [append_members t key ~op members] is {!append} of an outcome of op
    [op] already printed as [members] by {!Protocol.result_members}: a
    caller that also replies with the outcome prints it once. *)

val flush : t -> unit
(** Block until every enqueued record has been written to the fd. *)

val appended : t -> int
(** Records written by the flusher since {!open_}. *)

val compact : t -> (string * Protocol.outcome) list -> (unit, string) result
(** Atomically replace the log with exactly [entries] (e.g. from
    {!Cache.fold_entries}). Drains the queue first. *)

val close : t -> unit
(** Drain, join the flusher, close the fd. *)
