open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_util
module Partition = Fusecu_planner.Partition
module Wgraph = Fusecu_workloads.Graph

type mapper = Mapper_principles

type config = {
  cache_enabled : bool;
  cache_entries : int;
  cache_shards : int;
  pool : Pool.t option;
  slow_log_ms : float option;
  mapper : mapper;
}

let default_cache_entries = 4096

let default_config () =
  { cache_enabled = true;
    cache_entries = default_cache_entries;
    cache_shards = 8;
    pool = None;
    slow_log_ms = None;
    mapper = Mapper_principles }

(* A cached answer (canonical orientation) and, once a hit or a reply
   of its batch asks for it, its M<->L-transposed form
   ([Protocol.apply_transform]), which only an intra answer differs in.
   The transposed text is a pure function of the canonical one and is
   written only in the sequential phases, so a reply is the same bytes
   whether it was relabelled now or kept from an earlier hit. The entry
   a miss puts in the cache starts without it: most plans are never
   hit. *)
type entry = {
  outcome : Protocol.outcome;
  mutable transposed : Protocol.outcome option;
}

let entry outcome = { outcome; transposed = None }

let answer e (transform : Protocol.transform) =
  match (transform, e.transposed) with
  | Identity, _ -> e.outcome
  | Transpose_ml, Some o -> o
  | Transpose_ml, None ->
    let o = Protocol.apply_transform transform e.outcome in
    e.transposed <- Some o;
    o

type t = {
  config : config;
  cache : entry Cache.t;
  store : Store.t option;
  metrics : Metrics.t;
  ticks : int Atomic.t;
      (* logical clock: one tick per request line — deterministic
         "uptime", unlike wall time *)
  seq : int Atomic.t;  (* next request sequence number, for log lines *)
}

let create ?metrics ?store config =
  let cache =
    Cache.create ~shards:config.cache_shards
      ~capacity:(if config.cache_enabled then config.cache_entries else 0)
      ()
  in
  (* Warm-load recovered plans straight into the cache. [Cache.load]
     counts no hit, miss or eviction, so the response stream is
     byte-identical to a cold start — warm state only changes which
     computes are skipped, and cache on/off is already proven
     response-invariant. *)
  (match store with
  | Some s when config.cache_enabled ->
    Cache.load cache entry (Store.recovered s).Store.entries
  | _ -> ());
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  (match store with Some s -> Store.set_metrics s metrics | None -> ());
  { config; cache; store; metrics; ticks = Atomic.make 0; seq = Atomic.make 0 }

(* Persist a plan the moment it enters the cache: both sites run in the
   engine's sequential phases, and the store only records the pair until
   the connection flushes it after writing the batch's replies, so the
   hot path never touches disk. The cache gets an entry of its own,
   which keeps no transposed text. *)
let cache_insert t key outcome =
  Cache.add t.cache key (entry outcome);
  Option.iter (fun s -> Store.append s key outcome) t.store

let metrics t = t.metrics

let store t = t.store

let cache_stats t = Cache.stats t.cache

let uptime_ticks t = Atomic.get t.ticks

let tick t = ignore (Atomic.fetch_and_add t.ticks 1)

(* ------------------------------------------------------------------ *)
(* Planner dispatch                                                    *)

let unknown_model model =
  Error
    ( Protocol.Unknown_model,
      Printf.sprintf "unknown model %S (try: %s)" model
        (String.concat ", "
           (List.map
              (fun (m : Fusecu_workloads.Model.t) -> String.lowercase_ascii m.name)
              Fusecu_workloads.Zoo.all)) )

let rec compute t (call : Protocol.call) :
    (Protocol.outcome, Protocol.error_code * string) result =
  match call with
  | Intra { op; buffer; mode } -> (
    match Intra.optimize ~mode op buffer with
    | Ok plan -> Ok (Protocol.intra_outcome plan)
    | Error e -> Error (Protocol.Infeasible, e))
  | Fuse { op; l2; buffer; mode } -> (
    let op2 =
      Matmul.make ~name:"consumer" ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 ()
    in
    let pair = Fused.make_pair_exn op op2 in
    match Fusion.plan_pair ~mode pair buffer with
    | Ok decision -> Ok (Protocol.fuse_outcome pair decision)
    | Error e -> Error (Protocol.Infeasible, e))
  | Regime { op; buffer } ->
    Ok (Protocol.regime_outcome (Regime.classify op buffer) (Regime.thresholds op))
  | Eval { model; buffer; elt_bytes; mode } -> (
    match Fusecu_workloads.Zoo.find model with
    | None -> unknown_model model
    | Some model ->
      let w = Fusecu_workloads.Workload.of_model model in
      (* one row per platform; the nested per-layer parallelism of
         eval_workload is forced sequential — the engine already runs
         whole requests on worker domains *)
      let eval p =
        Fusecu_arch.Perf.eval_workload ~mode ~elt_bytes ~pool:Pool.sequential p buffer w
      in
      Ok (Protocol.eval_outcome (List.map (fun p -> (p, eval p)) Fusecu_arch.Platform.all)))
  | Chain { m; ks; buffer; mode } -> (
    let chain = Chain.of_dims ~name:"chain" ~m ks in
    match Multi_fusion.plan ~mode chain buffer with
    | Ok decision -> Ok (Protocol.chain_outcome chain decision)
    | Error e -> Error (Protocol.Infeasible, e))
  | Nest { kind; buffer; mode } -> (
    let nest = Protocol.nest_of_kind kind in
    let lattice =
      match mode with
      | Mode.Exact -> Fusecu_nest.Search.All
      | Mode.Divisors -> Fusecu_nest.Search.Divisors
      | Mode.Pow2 -> Fusecu_nest.Search.Pow2
    in
    match Fusecu_dse.Nest_bnb.search ~lattice nest buffer with
    | Some r -> Ok (Protocol.nest_outcome nest r)
    | None ->
      Error
        ( Protocol.Infeasible,
          Printf.sprintf
            "no feasible schedule: buffer (%d elements) cannot hold one tile \
             per tensor"
            (Buffer.elements buffer) ))
  | Plan_model _ ->
    (* reachable only through direct [compute] callers (benchmarks);
       [answer] takes plan_model out of the batch so the cache-backed
       variant below stays on the sequential path *)
    Result.map
      (fun (graph, p) -> Protocol.plan_model_outcome graph p)
      (partition t ~use_cache:false call)

(* Whole-model partitioning. Each fusion group the partitioner probes
   becomes an ordinary [intra] (single operator) or [chain] (merged
   chain) sub-call, canonicalized and priced through the shared plan
   cache under that sub-call's own key — so a [plan_model] both reuses
   per-operator entries seeded by earlier point requests and leaves
   entries behind for later ones. Cache access stays on the caller's
   (sequential) thread, which keeps the stats counters deterministic.
   The response bytes are cache-independent: a hit returns exactly what
   [compute] would have produced, because a compute is a pure function
   of the canonical call. *)
and partition t ~use_cache (call : Protocol.call) :
    (Wgraph.t * Partition.t, Protocol.error_code * string) result =
  match call with
  | Plan_model { model; layers; buffer; elt_bytes = _; mode } -> (
    match Fusecu_workloads.Zoo.find model with
    | None -> unknown_model model
    | Some m -> (
      let graph = Wgraph.stack (Wgraph.of_model m) ~layers in
      let evaluator chain =
        let ops = Chain.ops chain in
        let sub =
          match ops with
          | [ op ] -> Protocol.Intra { op; buffer; mode }
          | (first : Matmul.t) :: _ ->
            let ks =
              first.Matmul.k :: List.map (fun (o : Matmul.t) -> o.Matmul.l) ops
            in
            Protocol.Chain { m = first.Matmul.m; ks; buffer; mode }
          | [] -> assert false
        in
        let canonical, _ = Protocol.canonicalize sub in
        let key = Protocol.cache_key canonical in
        match if use_cache then Cache.find t.cache key else None with
        | Some e -> Protocol.traffic e.outcome
        | None -> (
          match compute t canonical with
          | Ok outcome ->
            if use_cache then cache_insert t key outcome;
            Protocol.traffic outcome
          | Error (_, msg) -> Error msg)
      in
      match Partition.plan ~evaluator graph buffer with
      | Error e -> Error (Protocol.Infeasible, e)
      | Ok p ->
        let s = p.Partition.stats in
        Metrics.observe t.metrics "planner_nodes"
          (float_of_int (s.Partition.dp_states + s.Partition.bnb_nodes));
        Metrics.observe t.metrics "planner_pruned"
          (float_of_int s.Partition.bnb_pruned);
        Metrics.observe t.metrics "planner_groups"
          (float_of_int (List.length p.Partition.groups));
        Ok (graph, p)))
  | _ -> Error (Protocol.Bad_request, "partition: not a plan_model call")

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)

(* One request slot of a batch, filled over the flush phases. [tc] is
   the router-stamped trace context, echoed on the response line and
   attached to this request's spans so a merged fleet timeline can
   correlate backend work with the originating router span. *)
type slot =
  | Ready of string  (** response already determined (rejects) *)
  | Hit of {
      id : Json.t;
      tc : string option;
      call : Protocol.call;  (** original orientation, for the echo *)
      transform : Protocol.transform;
      entry : entry;  (** canonical orientation *)
    }
  | Pending of {
      id : Json.t;
      tc : string option;
      call : Protocol.call;
      transform : Protocol.transform;
      work : int;  (** index into the batch's unique work list *)
    }

let tc_args = function
  | None -> []
  | Some t -> [ ("tc", Json.String t) ]

let slot_tc = function Ready _ -> None | Hit { tc; _ } | Pending { tc; _ } -> tc

let stats_result t =
  let st = Cache.stats t.cache in
  Json.Obj
    [ ( "cache",
        Json.Obj
          [ ("enabled", Json.Bool (Cache.capacity t.cache > 0));
            ("capacity", Json.Int (Cache.capacity t.cache));
            ("entries", Json.Int st.entries);
            ("shard_entries",
             Json.List
               (List.map (fun n -> Json.Int n) (Cache.shard_occupancy t.cache)));
            ("hits", Json.Int st.hits);
            ("misses", Json.Int st.misses);
            ("evictions", Json.Int st.evictions);
            ("coalesced", Json.Int (Metrics.get t.metrics "cache_coalesced"));
            ("hit_rate", Json.Float (Cache.hit_rate st)) ] );
      ("counters", Metrics.counters_json t.metrics);
      ("uptime_ticks", Json.Int (uptime_ticks t)) ]

(* Refresh point-in-time gauges, then render every metric family. Used
   by both the in-band [metrics] op and the [--metrics-addr] TCP
   exporter. *)
let metrics_result t =
  let st = Cache.stats t.cache in
  Metrics.set_gauge t.metrics "cache_entries" (float_of_int st.entries);
  Metrics.set_gauge t.metrics "uptime_ticks" (float_of_int (uptime_ticks t));
  Metrics.to_json t.metrics

let prometheus t =
  let st = Cache.stats t.cache in
  Metrics.set_gauge t.metrics "cache_entries" (float_of_int st.entries);
  Metrics.set_gauge t.metrics "uptime_ticks" (float_of_int (uptime_ticks t));
  Metrics.to_prometheus t.metrics

(* "requests_" ^ op_name, spelled out so that counting a request
   allocates no name. *)
let requests_counter : Protocol.call -> string = function
  | Intra _ -> "requests_intra"
  | Fuse _ -> "requests_fuse"
  | Regime _ -> "requests_regime"
  | Eval _ -> "requests_eval"
  | Chain _ -> "requests_chain"
  | Plan_model _ -> "requests_plan_model"
  | Nest _ -> "requests_nest"

(* The unique computes of one flush, in first-request order. *)
type work = {
  mutable calls : (Protocol.call * string) list;
      (** canonical call and its cache key, newest first *)
  mutable count : int;
  by_key : (string, int) Hashtbl.t;  (** index of each key, for coalescing *)
}

let enqueue t work ~cache_on canonical key =
  match Hashtbl.find_opt work.by_key key with
  | Some i when cache_on ->
    Metrics.incr t.metrics "cache_coalesced";
    i
  | _ ->
    let i = work.count in
    work.calls <- (canonical, key) :: work.calls;
    work.count <- i + 1;
    if cache_on then Hashtbl.replace work.by_key key i;
    i

let lookup t work ~cache_on id tc call =
  let canonical, transform = Protocol.canonicalize call in
  let key = Protocol.cache_key canonical in
  match if cache_on then Cache.find t.cache key else None with
  | Some entry -> Hit { id; tc; call; transform; entry }
  | None ->
    Pending { id; tc; call; transform; work = enqueue t work ~cache_on canonical key }

(* phase 1 for one request: sequential, request order *)
let slot_of t work ~cache_on ~trace_id = function
  | Error (reject : Protocol.reject) ->
    Metrics.incr t.metrics "rejects";
    Ready (Protocol.reject_response reject)
  | Ok (id, tc, call) ->
    Metrics.incr t.metrics "requests";
    Metrics.incr t.metrics (requests_counter call);
    if Trace.is_enabled () then
      Trace.with_span ~cat:"service"
        ~args:
          (("op", Json.String (Protocol.op_name call))
          :: ("trace", Json.Int trace_id)
          :: tc_args tc)
        "engine.cache"
        (fun () -> lookup t work ~cache_on id tc call)
    else lookup t work ~cache_on id tc call

(* phase 2 for one unique miss: on a worker domain *)
let compute_one t ~trace_id (canonical, key) =
  let op = Protocol.op_name canonical in
  let t0 = Unix.gettimeofday () in
  let r =
    if Trace.is_enabled () then
      Trace.with_span ~cat:"evaluate"
        ~args:[ ("op", Json.String op); ("trace", Json.Int trace_id) ]
        "engine.compute"
        (fun () -> compute t canonical)
    else compute t canonical
  in
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.observe t.metrics ("latency_" ^ op) dt;
  (match t.config.slow_log_ms with
  | Some ms when dt *. 1000. >= ms ->
    Log.warn
      ~fields:
        [ ("trace", Json.Int trace_id);
          ("op", Json.String op);
          ("key", Json.String key);
          ("ms", Json.Float (dt *. 1000.)) ]
      "slow request"
  | _ -> ());
  r

(* The worker domains are taken only when a flush has two computes or
   more: [parallel_map] runs a single item inline, and an idle domain
   still joins every stop-the-world minor collection. *)
let pool_for t computes =
  match t.config.pool with
  | Some p -> p
  | None when computes >= 2 -> Pool.get_global ()
  | None -> Pool.sequential

(* phase 3 for one request: its line and its kind for the access log *)
let respond t computed slot =
  match slot with
  | Ready line -> (line, "reject")
  | Hit { id; call; transform; entry; _ } ->
    (Protocol.response_ok ~id ~call (answer entry transform), "hit")
  | Pending { id; call; transform; work = i; _ } -> (
    match computed.(i) with
    | Ok e -> (Protocol.response_ok ~id ~call (answer e transform), "computed")
    | Error (code, message) ->
      Metrics.incr t.metrics "compute_errors";
      (Protocol.response_error ~id ~code ~message, "error"))

let flush_batch t batch emit ~trace_id ~seq_base =
  let cache_on = Cache.capacity t.cache > 0 in
  let work = { calls = []; count = 0; by_key = Hashtbl.create 16 } in
  (* phase 1: sequential lookup, request order *)
  let slots = List.map (slot_of t work ~cache_on ~trace_id) batch in
  (* phase 2: parallel compute of the deduplicated work list *)
  let work = Array.of_list (List.rev work.calls) in
  let results =
    Pool.parallel_map
      ~pool:(pool_for t (Array.length work))
      ~label:"engine.compute" (compute_one t ~trace_id) work
  in
  (* phase 3: sequential drain — cache inserts then responses, in
     request order. Each computed plan gets an entry for this batch, so
     a transposed answer is relabelled at most once for every reply
     that shares it. *)
  let computed = Array.map (Result.map entry) results in
  if cache_on then
    Array.iteri
      (fun i result ->
        match result with
        | Ok e -> cache_insert t (snd work.(i)) e.outcome
        | Error _ -> ())
      computed;
  let access_log = Log.enabled Log.Debug in
  List.iteri
    (fun idx slot ->
      let line, kind =
        if Trace.is_enabled () then
          Trace.with_span ~cat:"service"
            ~args:
              (("trace", Json.Int trace_id)
              :: ("seq", Json.Int (seq_base + idx))
              :: tc_args (slot_tc slot))
            "engine.respond"
            (fun () -> respond t computed slot)
        else respond t computed slot
      in
      if access_log then
        Log.debug
          ~fields:
            [ ("trace", Json.Int trace_id);
              ("seq", Json.Int (seq_base + idx));
              ("kind", Json.String kind) ]
          "response";
      emit (Protocol.with_tc (slot_tc slot) line))
    slots

let flush t batch emit =
  match batch with
  | [] -> ()
  | batch ->
    Metrics.incr t.metrics "batches";
    (* Request-scoped ids: one trace id per batch, one sequence number
       per request. Both live only in traces and logs — never in the
       response stream — so determinism is untouched. *)
    let trace_id = Trace.new_trace_id () in
    let n = List.length batch in
    let seq_base = Atomic.fetch_and_add t.seq n in
    if Trace.is_enabled () then
      Trace.with_span ~cat:"service"
        ~args:[ ("trace", Json.Int trace_id); ("batch", Json.Int n) ]
        "engine.flush"
        (fun () -> flush_batch t batch emit ~trace_id ~seq_base)
    else flush_batch t batch emit ~trace_id ~seq_base

type stop_reason = Drained | Shutdown

(* A [plan_model] reply. The partitioner reads and seeds the plan cache,
   so it runs between batches, on the sequential path, for the counters
   to stay deterministic. *)
let plan_model t ~id ~tc ~model ~layers call =
  Metrics.incr t.metrics "requests";
  Metrics.incr t.metrics "requests_plan_model";
  let t0 = Unix.gettimeofday () in
  let outcome =
    Result.map
      (fun (graph, p) -> (p, Protocol.plan_model_outcome graph p))
      (partition t ~use_cache:(Cache.capacity t.cache > 0) call)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.observe t.metrics "latency_plan_model" dt;
  (* structured slow-plan record with the per-group cost breakdown, so
     slow whole-model plans are diagnosable from logs alone (stderr
     only — never the response) *)
  (match (t.config.slow_log_ms, outcome) with
  | Some ms, Ok ((p : Partition.t), _) when dt *. 1000. >= ms ->
    let group (g : Partition.group) =
      Json.Obj
        [ ("members",
           Json.List
             (List.map (fun (n : Wgraph.node) -> Json.String n.name) g.members));
          ("traffic", Json.Int g.traffic);
          ("hidden", Json.Int g.hidden) ]
    in
    Log.warn
      ~fields:
        (("op", Json.String "plan_model")
        :: ("model", Json.String model)
        :: ("layers", Json.Int layers)
        :: ("ms", Json.Float (dt *. 1000.))
        :: ("traffic", Json.Int p.traffic)
        :: ("hidden", Json.Int p.hidden)
        :: tc_args tc
        @ [ ("groups", Json.List (List.map group p.groups)) ])
      "slow plan"
  | _ -> ());
  match outcome with
  | Ok (_, outcome) -> Protocol.response_ok ~id ~call outcome
  | Error (code, message) ->
    Metrics.incr t.metrics "compute_errors";
    Protocol.response_error ~id ~code ~message

let answer t ~emit lines =
  let pending = ref [] in
  let flush_pending () =
    flush t (List.rev !pending) emit;
    pending := []
  in
  (* A control reply is a batch barrier, so it reflects exactly the
     lines before it. A quiet metrics scrape counts nothing. *)
  let control ~id ~tc ~op ?counter result =
    flush_pending ();
    Option.iter
      (fun counter ->
        Metrics.incr t.metrics "requests";
        Metrics.incr t.metrics counter)
      counter;
    emit (Protocol.with_tc tc (Protocol.response_ok_json ~id ~op ~result:(result t)))
  in
  let rec go = function
    | [] ->
      flush_pending ();
      Drained
    | line :: rest when String.trim line = "" -> go rest
    | line :: rest -> (
      let parsed =
        if Trace.is_enabled () then
          Trace.with_span ~cat:"service" "engine.parse" (fun () ->
              Protocol.parse_line line)
        else Protocol.parse_line line
      in
      match parsed with
      | Ok (id, tc, Protocol.Metrics_req { quiet = true }) ->
        (* an out-of-band scrape (Prometheus exporter, fleet merge) by
           contract leaves all deterministic state untouched: no tick *)
        control ~id ~tc ~op:"metrics" metrics_result;
        go rest
      | _ -> (
        (* every other non-empty line advances the logical clock once,
           so uptime is invariant to batch size, domain count and cache
           settings *)
        tick t;
        match parsed with
        | Ok (id, tc, Protocol.Stats) ->
          control ~id ~tc ~op:"stats" ~counter:"requests_stats" stats_result;
          go rest
        | Ok (id, tc, Protocol.Metrics_req _) ->
          control ~id ~tc ~op:"metrics" ~counter:"requests_metrics" metrics_result;
          go rest
        | Ok (id, tc, Protocol.Shutdown) ->
          control ~id ~tc ~op:"shutdown" ~counter:"requests_shutdown" (fun _ ->
              Json.Obj [ ("stopping", Json.Bool true) ]);
          Shutdown
        | Ok (id, tc, Protocol.Call (Protocol.Plan_model { model; layers; _ } as call))
          ->
          flush_pending ();
          emit (Protocol.with_tc tc (plan_model t ~id ~tc ~model ~layers call));
          go rest
        | Ok (id, tc, Protocol.Call call) ->
          pending := Ok (id, tc, call) :: !pending;
          go rest
        | Error reject ->
          pending := Error reject :: !pending;
          go rest))
  in
  go lines

let handle_lines t ?(batch = 64) lines =
  let out = ref [] in
  let emit line = out := line :: !out in
  let rec split n taken = function
    | line :: rest when n > 0 -> split (n - 1) (line :: taken) rest
    | rest -> (List.rev taken, rest)
  in
  let rec go lines =
    match split (max 1 batch) [] lines with
    | [], _ -> ()
    | now, later -> ( match answer t ~emit now with Drained -> go later | Shutdown -> ())
  in
  go lines;
  List.rev !out
