(** The planning service's typed request/response protocol (schema
    version 1).

    Requests are newline-delimited JSON objects:
    {v
    {"op":"intra","v":1,"id":1,"m":1024,"k":768,"l":768,
     "buffer":"512KB","mode":"divisors"}
    v}
    covering the planner entry points [intra], [fuse], [regime],
    [eval], [chain], [plan_model] and [nest], plus the control
    operations [stats], [metrics] and [shutdown].
    Common fields: ["op"] (required), ["v"] (schema version, optional,
    must be 1 when present), ["id"] (any JSON value, echoed verbatim in
    the response, defaults to [null]), ["buffer"] (bytes as an integer
    or a {!Fusecu_util.Units.parse_bytes} string, default 512 KiB),
    ["elt_bytes"] (default 1) and ["mode"] (["exact"] / ["divisors"] /
    ["pow2"], default ["divisors"] — the CLI's default lattice).
    [intra], [fuse], [chain] and [nest] calls whose worst-case traffic
    ({!Fusecu_loopnest.Cost.max_total}, {!Fusecu_nest.Nest.max_total})
    does not fit in an [int] are rejected as [bad_request].

    Responses are one JSON object per request, in request order:
    [{"id":...,"ok":true,"op":...,"result":{...}}] on success,
    [{"id":...,"ok":false,"error":{"code":...,"message":...}}]
    otherwise. Error codes are a closed enum ({!error_code}) so clients
    can dispatch without string matching on messages.

    An answer is held only as text: an {!outcome} is the op name and
    the printed members of its [result], built once from the planner's
    result by this module ({!intra_outcome} and the others), so
    replies, store records and cache entries splice it and no decoder
    exists. The one rewrite of an answer is {!apply_transform}'s M↔L
    relabelling of an [intra] answer.

    {1 Canonicalization}

    [intra] and [regime] requests are canonicalized before keying the
    plan cache {e and before computing} (so responses are bit-identical
    whether or not the cache is enabled): the operator is transposed to
    [M <= L] ([M x K x L] and [L x K x M] are the same problem — the
    matmul cost model is symmetric under exchanging the roles of [A]
    and [B]; see {!Fusecu_tensor.Matmul.transpose} and DESIGN.md §5),
    and the buffer is keyed by its {e element} capacity, the only
    buffer property the element-denominated planners observe. The
    resulting plan is mapped back through {!apply_transform} (tile
    sizes, loop order, and dataflow labels swap [M] with [L] and [A]
    with [B]). [fuse] and [chain] have no established symmetry and key
    on their exact shape; [eval] keys on (model, buffer bytes,
    elt_bytes, mode) since byte traffic depends on the element width. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
module Json = Fusecu_util.Json

val version : int

(** {1 Requests} *)

type nest_kind = Fusecu_nest.Lower.kind =
  | N_matmul of { m : int; k : int; l : int }
  | N_conv2d of Conv.t
  | N_batched_mm of { b : int; m : int; k : int; l : int }
  | N_grouped_mm of { groups : int; heads : int; m : int; k : int; l : int }
  | N_attention of { seq_q : int; seq_k : int; d : int; dv : int }
      (** fused score x value pair: Q(seq_q,d) K(seq_k,d) V(seq_k,dv),
          scores internal (Principle-4 fused) *)

type call =
  | Intra of { op : Matmul.t; buffer : Buffer.t; mode : Mode.t }
  | Fuse of { op : Matmul.t; l2 : int; buffer : Buffer.t; mode : Mode.t }
      (** producer [op], consumer [C x D(L, l2)] — the CLI's [fuse] *)
  | Regime of { op : Matmul.t; buffer : Buffer.t }
  | Eval of { model : string; buffer : Buffer.t; elt_bytes : int; mode : Mode.t }
      (** [model] is stored lowercase (zoo lookup is case-insensitive) *)
  | Chain of { m : int; ks : int list; buffer : Buffer.t; mode : Mode.t }
  | Plan_model of {
      model : string;
      layers : int;
      buffer : Buffer.t;
      elt_bytes : int;
      mode : Mode.t;
    }
      (** whole-model partition into fusion groups ([layers] stacked
          copies of the model's encoder layer, default 1, max 64).
          Handled sequentially by the engine; each group is priced
          through the shared plan cache under its ordinary [intra] /
          [chain] key, so the model-level answer both reuses and seeds
          the per-operator entries. *)
  | Nest of { kind : nest_kind; buffer : Buffer.t; mode : Mode.t }
      (** exact schedule search over the projective loop-nest IR
          (wire op ["nest"], field ["kind"] one of [matmul],
          [conv2d], [batched_mm], [grouped_mm], [attention]); ["mode"]
          selects the tiling lattice as for the matmul ops. conv2d
          shapes are validated with {!Fusecu_tensor.Conv.validate}
          and rejected as [bad_request] before reaching the engine. *)

type request =
  | Call of call
  | Stats  (** in-band deterministic counters snapshot *)
  | Metrics_req of { quiet : bool }
      (** full metrics dump — counters, gauges and wall-clock latency
          histograms ({!Metrics.to_json}). Unlike [stats] the payload is
          {e not} deterministic, so it never appears in golden
          transcripts. [quiet] (wire field ["quiet"], default [false])
          marks an out-of-band scrape — e.g. the Prometheus exporter
          polling over a side connection — that must not advance
          [uptime_ticks] or any request counter, so scraping cannot
          perturb the deterministic counters. *)
  | Shutdown  (** stop the server after responding *)

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Bad_request  (** missing / ill-typed / out-of-range field *)
  | Unsupported_version
  | Unknown_op
  | Unknown_model
  | Infeasible  (** the planner returned an error (e.g. buffer too small) *)

val error_code_to_string : error_code -> string

type reject = { id : Json.t; code : error_code; message : string }

val parse_line : string -> (Json.t * string option * request, reject) result
(** Parse one request line into its echoed [id], the trace context
    stamped by the router (the ["tc"] envelope member, [None] when
    absent — old clients never send it) and the typed request. On
    reject, the [id] is recovered from the malformed object when
    possible. *)

val op_name : call -> string

val nest_kind_name : nest_kind -> string

val nest_kind_dims : nest_kind -> (string * int) list
(** Wire/cache field order of a kind's dimensions (fixed). *)

val nest_of_kind : nest_kind -> Fusecu_nest.Nest.t
(** The kind's lowering into the projective loop-nest IR. *)

(** {1 Canonicalization and cache keys} *)

type transform = Identity | Transpose_ml

val canonicalize : call -> call * transform
(** The cache-canonical form of a call and the transform that maps
    results on the canonical call back to the original orientation. *)

val cache_key : call -> string
(** Deterministic cache key of an (already canonical) call. *)

(** {1 Answers} *)

type outcome = { op : string; members : string }
(** An answer as the wire prints it: the planning op's name and the
    printed members of its [result] after the problem echo, compact,
    in their fixed order and without braces, e.g. [op = "regime"] and
    [members = {|"regime":"large","thresholds":{...},"classes":[...]|}].
    The builders below print it once from a planner result; a reply, a
    store record ({!Store}) and a cache entry splice the text, and
    nothing decodes it. *)

val outcome : string -> (string * Json.t) list -> outcome
(** [outcome op fields]: the outcome of op [op] whose result members
    are [fields], printed in order. Every builder below is one call of
    it. *)

(** The answer of each planning op, built from its planner's result.
    These decide which fields an answer has and in which order. *)

val intra_outcome : Intra.plan -> outcome

val fuse_outcome : Fused.pair -> Fusion.decision -> outcome

val regime_outcome : Regime.t -> Regime.thresholds -> outcome

val eval_outcome :
  (Fusecu_arch.Platform.t * (Fusecu_arch.Perf.eval, string) result) list -> outcome
(** One row per platform: its five cells, or only the error. *)

val chain_outcome : Fusecu_tensor.Chain.t -> Multi_fusion.decision -> outcome

val nest_outcome : Fusecu_nest.Nest.t -> Fusecu_nest.Search.result -> outcome

val plan_model_outcome :
  Fusecu_workloads.Graph.t -> Fusecu_planner.Partition.t -> outcome

val traffic : outcome -> (int, string) result
(** The traffic an [intra] answer (["ma"]) or any other answer
    (["traffic"]) reports, read back from its text: what a
    [plan_model] prices each fusion group by. *)

val planning_op : string -> string option
(** The name of a planning op ([intra], [fuse], [regime], [eval],
    [chain], [plan_model] or [nest]) equal to the argument, as one
    shared string, or [None] for any other text. *)

val apply_transform : transform -> outcome -> outcome
(** Map an outcome computed on the canonical call back to the request's
    original orientation. Only an [intra] answer carries
    orientation-dependent members: its tiles swap [m] and [l], its loop
    order [M] and [L], and its dataflow label is that of the transposed
    dataflow (operands [A] and [B], untiled [M] and [L] exchanged), read
    from a table of the 15 {!Fusecu_core.Nra.dataflow_to_string} labels.
    The members are rewritten as text; every other outcome is
    returned as it is. *)

(** {1 Responses} *)

val response_ok : id:Json.t -> call:call -> outcome -> string
(** One compact JSON line, written into one buffer without building a
    {!Json.t}: the id, the op, the problem echo of [call] (original
    orientation) and then the outcome's members. Field order is fixed,
    so output is byte-deterministic. *)

val response_ok_json : id:Json.t -> op:string -> result:Json.t -> string
(** Generic success line for control operations ([stats], [shutdown]). *)

val response_error : id:Json.t -> code:error_code -> message:string -> string

val reject_response : reject -> string

(** {1 Trace-context envelope}

    The router stamps each routed request with a trace context
    ["r<trace-id>.<origin-seq>"] so backend spans can be correlated with
    router spans in a merged timeline. Both directions splice the member
    textually (never reparse-and-reprint), so stamping cannot perturb a
    single byte of the rest of the line — the precondition for routed
    golden transcripts staying exact. *)

val with_tc : string option -> string -> string
(** [with_tc (Some t) line] returns [line] with [,"tc":"t"] spliced
    before the final ['}'] of a JSON-object line (non-object lines are
    returned unchanged); [with_tc None line] is [line]. *)

val strip_tc : tc:string -> string -> string
(** Remove the exact trailing [,"tc":"tc"] member spliced by
    {!with_tc}, restoring the original line byte-for-byte; lines without
    that exact suffix are returned unchanged. *)
