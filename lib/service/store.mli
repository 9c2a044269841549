(** The persistent plan store: an append-only, CRC-framed NDJSON log of
    [(canonical cache key, outcome)] records, so plan caches survive
    restarts and warm instantly.

    {b Format.} One record per line:
    [CCCCCCCC {"k":<cache key>,"o":{"op":<op>,<members>}}\n] where
    [CCCCCCCC] is the lowercase hex CRC-32 ({!Fusecu_util.Hash.crc32})
    of the payload after the single separating space, and [<op>] and
    [<members>] are the {!Protocol.outcome}: the op name and the printed
    members of the wire [result], spliced in as they are. For example
    [{"k":"r|8|8|8|524288","o":{"op":"regime","regime":"large",
    "thresholds":{...},"classes":["Three-NRA"]}}].

    {b Recovery decodes nothing.} A record's frame, CRC and JSON are
    checked, and its payload must be a key and an ["o"] object that
    starts with a planning op's ["op"] and has members after it; the
    recovered outcome is that op (one shared string per op) and the
    members sliced out of the payload. A reply built from it is the
    bytes a fresh compute gives, because the record holds the text the
    compute printed.

    {b Upgrade.} Stores written before the outcome payload became the
    wire shape hold tagged [{"t":...}] outcomes. Their first record
    has no ["op"], so the whole file is dropped as a damaged tail on
    the first open: truncated, counted in [dropped_records] and logged
    at warn level. The store caches deterministic answers, so the only
    cost is recomputing them.

    {b Recovery invariant.} Records are valid up to the first damaged
    one (short frame, bad hex, CRC mismatch, unparseable payload, a
    payload that is not a planning op's record, or a torn final append
    without its newline); everything from the first damage onward is
    dropped — append-only writing means every earlier byte is intact,
    and framing after a damaged record cannot be trusted. The damaged
    tail is also truncated from the file on open so subsequent appends
    never graft onto a torn fragment. Later records
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
(** Enqueue one record for the flusher; never blocks on disk and prints
    nothing: the flusher frames the outcome's text. Silently dropped
    after {!close} (shutdown races are benign: the store is a cache of
    recomputable plans, not a system of record). *)

val flush : t -> unit
(** Block until every enqueued record has been written to the fd. *)

val appended : t -> int
(** Records written by the flusher since {!open_}. *)

val compact : t -> (string * Protocol.outcome) list -> (unit, string) result
(** Atomically replace the log with exactly [entries] (e.g. from
    {!Cache.fold_entries}). Drains the queue first. *)

val close : t -> unit
(** Drain, join the flusher, close the fd. *)
