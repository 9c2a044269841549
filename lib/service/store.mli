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

    {b Write point.} {!append} only records the pair and never waits on
    a disk write. {!flush} frames every pending record and writes them
    with one [write]; flushes are serialized, so the file keeps append
    order. The server flushes right after each write of a batch's
    replies, before its connection reads again: no reply waits for the
    store, a batch's records are in the file before its connection reads
    another request, and a kill -9 loses at most the records of the
    batches whose replies were being written. {!close} flushes too, which
    covers in-process callers such as {!Engine.handle_lines}.

    {b A failed write} logs one warn line (path and error), counts
    [store_write_errors], and drops that write's records and every later
    append; {!flush} and {!close} return normally. Nothing is appended
    after a possibly torn write, so the next {!open_} truncates it like
    any torn tail.

    {b No compaction.} The log grows by one record per recompute (a plan
    evicted from the cache and asked for again); recovery keeps the last
    record per key. *)

type t

type recovery = {
  entries : (string * Protocol.outcome) list;
      (** first-seen key order, later duplicates folded in *)
  records : int;  (** valid records read, before dedup *)
  dropped_records : int;  (** line-shaped fragments in the damaged tail *)
  dropped_bytes : int;
}

val open_ : path:string -> (t, string) result
(** Recover [path] (created if absent) and truncate any damaged tail. *)

val recovered : t -> recovery
(** What {!open_} found — hand [entries] to {!Cache.load} to warm-load. *)

val set_metrics : t -> Metrics.t -> unit
(** Attach an instrumentation sink (the engine wires its own registry at
    {!Engine.create}). Registers the recovery counters
    [store_records_loaded], [store_dropped_records] and
    [store_torn_tail_bytes] — {e only} the nonzero ones, so a cold fresh
    store leaves the deterministic counter set (and with it the golden
    [stats] line) untouched. Each write then adds one observation to the
    [store_flush_batch] and [store_append_seconds] histograms, and a
    failed write counts [store_write_errors], which a working store never
    registers. *)

val frame : string -> Protocol.outcome -> string
(** [frame key outcome]: the record line of [(key, outcome)], newline
    included, as {!flush} writes it. *)

val append : t -> string -> Protocol.outcome -> unit
(** Record one pair for the next {!flush}; never waits on a disk write.
    Dropped after a failed write or {!close}. *)

val flush : t -> unit
(** Write every pending record, framed, with one [write]; waits for a
    flush already writing. Raises nothing on a failed write. *)

val appended : t -> int
(** Records written since {!open_}. *)

val close : t -> unit
(** {!flush}, then close the file. *)
