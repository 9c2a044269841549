open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_util
module Partition = Fusecu_planner.Partition
module Pgroup = Fusecu_planner.Group
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
  let entries =
    match Sys.getenv_opt "FUSECU_CACHE_ENTRIES" with
    | Some s -> ( match int_of_string_opt s with Some n -> max 0 n | None -> default_cache_entries)
    | None -> default_cache_entries
  in
  { cache_enabled = entries > 0;
    cache_entries = entries;
    cache_shards = 8;
    pool = None;
    slow_log_ms = None;
    mapper = Mapper_principles }

type t = {
  config : config;
  cache : Protocol.outcome Cache.t;
  store : Store.t option;
  metrics : Metrics.t;
  ticks : int Atomic.t;
      (* logical clock: one tick per flushed batch and per control
         request — deterministic "uptime", unlike wall time *)
  seq : int Atomic.t;  (* next request sequence number, for log lines *)
}

let create ?metrics ?store config =
  let cache =
    Cache.create ~shards:config.cache_shards
      ~capacity:(if config.cache_enabled then config.cache_entries else 0)
      ()
  in
  (* Warm-load recovered plans straight into the cache. Only [add] is
     used (no [find]), so the hit/miss counters stay zero and the
     response stream is byte-identical to a cold start — warm state only
     changes which computes are skipped, and cache on/off is already
     proven response-invariant. *)
  (match store with
  | Some s when config.cache_enabled ->
    List.iter
      (fun (key, outcome) -> Cache.add cache key outcome)
      (Store.recovered s).Store.entries
  | _ -> ());
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  (match store with Some s -> Store.set_metrics s metrics | None -> ());
  { config; cache; store; metrics; ticks = Atomic.make 0; seq = Atomic.make 0 }

(* Persist a plan the moment it enters the cache: both sites run in the
   engine's sequential phases, and [Store.append] only enqueues for the
   write-behind flusher, so the hot path never touches disk. *)
let cache_insert t key outcome =
  Cache.add t.cache key outcome;
  match t.store with Some s -> Store.append s key outcome | None -> ()

let metrics t = t.metrics

let store t = t.store

let cache_snapshot t =
  Cache.fold_entries t.cache (fun k v acc -> (k, v) :: acc) []

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
    | Ok plan -> Ok (Protocol.R_intra (Protocol.intra_result_of_plan plan))
    | Error e -> Error (Protocol.Infeasible, e))
  | Fuse { op; l2; buffer; mode } -> (
    let op2 =
      Matmul.make ~name:"consumer" ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 ()
    in
    let pair = Fused.make_pair_exn op op2 in
    match Fusion.plan_pair ~mode pair buffer with
    | Error e -> Error (Protocol.Infeasible, e)
    | Ok (Fusion.Fuse { pattern; fused; traffic }) ->
      Ok
        (Protocol.R_fuse
           (Protocol.Fused { pattern; nra = Fusion.fused_nra pair fused; traffic }))
    | Ok (Fusion.No_fuse { plan1; plan2; traffic; why }) ->
      Ok
        (Protocol.R_fuse
           (Protocol.Not_fused
              { why;
                traffic;
                producer = Nra.class_of plan1.Intra.dataflow;
                consumer = Nra.class_of plan2.Intra.dataflow })))
  | Regime { op; buffer } ->
    let regime = Regime.classify op buffer in
    Ok
      (Protocol.R_regime
         { regime;
           thresholds = Regime.thresholds op;
           classes = Regime.expected_classes regime })
  | Eval { model; buffer; elt_bytes; mode } -> (
    match Fusecu_workloads.Zoo.find model with
    | None -> unknown_model model
    | Some model ->
      let w = Fusecu_workloads.Workload.of_model model in
      (* one row per platform; the nested per-layer parallelism of
         eval_workload is forced sequential — the engine already runs
         whole requests on worker domains *)
      let rows =
        List.map
          (fun (p : Fusecu_arch.Platform.t) ->
            match
              Fusecu_arch.Perf.eval_workload ~mode ~elt_bytes
                ~pool:Pool.sequential p buffer w
            with
            | Ok e ->
              { Protocol.platform = p.name;
                cells =
                  Ok
                    { Protocol.traffic = e.traffic;
                      traffic_bytes = e.traffic_bytes;
                      macs = e.macs;
                      cycles = e.cycles;
                      utilization = e.utilization } }
            | Error e -> { Protocol.platform = p.name; cells = Error e })
          Fusecu_arch.Platform.all
      in
      Ok (Protocol.R_eval rows))
  | Chain { m; ks; buffer; mode } -> (
    let chain = Chain.of_dims ~name:"chain" ~m ks in
    match Multi_fusion.plan ~mode chain buffer with
    | Error e -> Error (Protocol.Infeasible, e)
    | Ok (Multi_fusion.Full_fusion { traffic; _ }) ->
      Ok
        (Protocol.R_chain
           (Protocol.Full_fusion
              { traffic; fused_bound = Chain.ideal_ma_fused chain }))
    | Ok (Multi_fusion.Fallback plan) ->
      let segments =
        List.map
          (function
            | Planner.Solo p -> Protocol.Solo_seg (Intra.ma p)
            | Planner.Fused_pair { pattern; traffic; _ } ->
              Protocol.Fused_seg (Fusion.pattern_name pattern, traffic))
          plan.Planner.segments
      in
      Ok
        (Protocol.R_chain
           (Protocol.Pairwise { traffic = plan.Planner.traffic; segments })))
  | Nest { kind; buffer; mode } -> (
    let nest = Protocol.nest_of_kind kind in
    let lattice =
      match mode with
      | Mode.Exact -> Fusecu_nest.Search.All
      | Mode.Divisors -> Fusecu_nest.Search.Divisors
      | Mode.Pow2 -> Fusecu_nest.Search.Pow2
    in
    match Fusecu_dse.Nest_bnb.search ~lattice nest buffer with
    | None ->
      Error
        ( Protocol.Infeasible,
          Printf.sprintf
            "no feasible schedule: buffer (%d elements) cannot hold one tile \
             per tensor"
            (Buffer.elements buffer) )
    | Some r ->
      let module Nest = Fusecu_nest.Nest in
      let s = r.Fusecu_nest.Search.schedule in
      let axes = Array.to_list nest.Nest.axes in
      Ok
        (Protocol.R_nest
           { Protocol.n_axes = axes;
             n_extents = Array.to_list nest.Nest.extents;
             n_tiles = Array.to_list s.Nest.tiles;
             n_order =
               List.map (fun i -> nest.Nest.axes.(i)) (Array.to_list s.Nest.order);
             n_traffic = r.Fusecu_nest.Search.cost.Nest.total;
             n_ideal = Fusecu_nest.Bound.ideal nest;
             n_footprint = Nest.footprint nest s;
             n_points = Nest.points nest;
             n_evaluated = r.Fusecu_nest.Search.evaluated }))
  | Plan_model _ ->
    (* reachable only through direct [compute] callers (benchmarks);
       [run] intercepts plan_model before batching so the cache-backed
       variant below stays on the sequential path *)
    plan_model_impl t ~use_cache:false call

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
and plan_model_impl t ~use_cache (call : Protocol.call) :
    (Protocol.outcome, Protocol.error_code * string) result =
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
        let cached = if use_cache then Cache.find t.cache key else None in
        let outcome =
          match cached with
          | Some outcome -> Ok outcome
          | None -> (
            match compute t canonical with
            | Ok outcome ->
              if use_cache then cache_insert t key outcome;
              Ok outcome
            | Error (_, msg) -> Error msg)
        in
        match outcome with
        | Error e -> Error e
        | Ok (Protocol.R_intra r) -> Ok r.Protocol.ma
        | Ok (Protocol.R_chain (Protocol.Full_fusion { traffic; _ }))
        | Ok (Protocol.R_chain (Protocol.Pairwise { traffic; _ })) ->
          Ok traffic
        | Ok _ -> Error "plan_model: unexpected sub-call outcome"
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
        let name_of id = (Wgraph.find graph id).Wgraph.name in
        let plan_groups =
          List.map
            (fun (g : Partition.group) ->
              { Protocol.members =
                  List.map
                    (fun (n : Wgraph.node) -> n.Wgraph.name)
                    g.Partition.members;
                count = g.Partition.count;
                ops =
                  List.fold_left
                    (fun a n -> a + List.length (Pgroup.ops n))
                    0 g.Partition.members;
                group_traffic = g.Partition.traffic;
                group_hidden = g.Partition.hidden })
            p.Partition.groups
        in
        let fused_edges =
          List.map
            (fun (e : Partition.edge) ->
              Printf.sprintf "%s->%s" (name_of e.Partition.src)
                (name_of e.Partition.dst))
            p.Partition.selected
        in
        Ok
          (Protocol.R_plan_model
             { Protocol.nodes = List.length (Wgraph.nodes graph);
               plan_groups;
               fused_edges;
               traffic = p.Partition.traffic;
               hidden = p.Partition.hidden;
               effective = p.Partition.effective;
               unfused_traffic = p.Partition.unfused_traffic;
               unfused_effective = p.Partition.unfused_effective;
               candidate_edges = s.Partition.candidate_edges;
               components = s.Partition.components;
               dp_states = s.Partition.dp_states;
               bnb_nodes = s.Partition.bnb_nodes;
               bnb_pruned = s.Partition.bnb_pruned })))
  | _ -> Error (Protocol.Bad_request, "plan_model_impl: not a plan_model call")

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
      outcome : Protocol.outcome;  (** canonical orientation *)
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

let flush t batch emit =
  match batch with
  | [] -> ()
  | batch ->
    let pool =
      match t.config.pool with Some p -> p | None -> Pool.get_global ()
    in
    Metrics.incr t.metrics "batches";
    (* Request-scoped ids: one trace id per batch, one sequence number
       per request. Both live only in traces and logs — never in the
       response stream — so determinism is untouched. *)
    let trace_id = Trace.new_trace_id () in
    let seq_base = Atomic.fetch_and_add t.seq (List.length batch) in
    Trace.with_span ~cat:"service"
      ~args:
        [ ("trace", Json.Int trace_id); ("batch", Json.Int (List.length batch)) ]
      "engine.flush"
    @@ fun () ->
    let cache_on = Cache.capacity t.cache > 0 in
    let work = ref [] and work_count = ref 0 in
    let pending_by_key = Hashtbl.create 16 in
    let enqueue canonical =
      let key = Protocol.cache_key canonical in
      match Hashtbl.find_opt pending_by_key key with
      | Some i when cache_on ->
        Metrics.incr t.metrics "cache_coalesced";
        i
      | _ ->
        let i = !work_count in
        work := canonical :: !work;
        incr work_count;
        if cache_on then Hashtbl.replace pending_by_key key i;
        i
    in
    (* phase 1: sequential lookup, request order *)
    let slots =
      List.map
        (fun item ->
          match item with
          | Error (reject : Protocol.reject) ->
            Metrics.incr t.metrics "rejects";
            Ready (Protocol.reject_response reject)
          | Ok (id, tc, call) ->
            Metrics.incr t.metrics "requests";
            Metrics.incr t.metrics ("requests_" ^ Protocol.op_name call);
            Trace.with_span ~cat:"service"
              ~args:
                (("op", Json.String (Protocol.op_name call))
                :: ("trace", Json.Int trace_id)
                :: tc_args tc)
              "engine.cache"
            @@ fun () ->
            let canonical, transform = Protocol.canonicalize call in
            let cached =
              if cache_on then Cache.find t.cache (Protocol.cache_key canonical)
              else None
            in
            (match cached with
            | Some outcome -> Hit { id; tc; call; transform; outcome }
            | None ->
              Pending { id; tc; call; transform; work = enqueue canonical }))
        batch
    in
    (* phase 2: parallel compute of the deduplicated work list *)
    let work = Array.of_list (List.rev !work) in
    let results =
      Pool.parallel_map ~pool ~label:"engine.compute"
        (fun canonical ->
          let op = Protocol.op_name canonical in
          let t0 = Unix.gettimeofday () in
          let r =
            Trace.with_span ~cat:"evaluate"
              ~args:[ ("op", Json.String op); ("trace", Json.Int trace_id) ]
              "engine.compute"
              (fun () -> compute t canonical)
          in
          let dt = Unix.gettimeofday () -. t0 in
          Metrics.observe t.metrics ("latency_" ^ op) dt;
          (match t.config.slow_log_ms with
          | Some ms when dt *. 1000. >= ms ->
            Log.warn
              ~fields:
                [ ("trace", Json.Int trace_id);
                  ("op", Json.String op);
                  ("key", Json.String (Protocol.cache_key canonical));
                  ("ms", Json.Float (dt *. 1000.)) ]
              "slow request"
          | _ -> ());
          r)
        work
    in
    (* phase 3: sequential drain — cache inserts then responses, in
       request order *)
    if cache_on then
      Array.iteri
        (fun i result ->
          match result with
          | Ok outcome -> cache_insert t (Protocol.cache_key work.(i)) outcome
          | Error _ -> ())
        results;
    let access_log = Log.enabled Log.Debug in
    List.iteri
      (fun idx slot ->
        Trace.with_span ~cat:"service"
          ~args:
            (("trace", Json.Int trace_id)
            :: ("seq", Json.Int (seq_base + idx))
            :: tc_args (slot_tc slot))
          "engine.respond"
        @@ fun () ->
        let line, kind, tc =
          match slot with
          | Ready line -> (line, "reject", None)
          | Hit { id; tc; call; transform; outcome } ->
            ( Protocol.response_ok ~id ~call
                (Protocol.apply_transform transform outcome),
              "hit", tc )
          | Pending { id; tc; call; transform; work = i } -> (
            match results.(i) with
            | Ok outcome ->
              ( Protocol.response_ok ~id ~call
                  (Protocol.apply_transform transform outcome),
                "computed", tc )
            | Error (code, message) ->
              Metrics.incr t.metrics "compute_errors";
              (Protocol.response_error ~id ~code ~message, "error", tc))
        in
        if access_log then
          Log.debug
            ~fields:
              [ ("trace", Json.Int trace_id);
                ("seq", Json.Int (seq_base + idx));
                ("kind", Json.String kind) ]
            "response";
        emit (Protocol.with_tc tc line))
      slots

type stop_reason = Drained | Shutdown

let run t ?(batch = 64) ~next ~emit () =
  let batch_size = max 1 batch in
  let pending = ref [] in
  let flush_pending () =
    flush t (List.rev !pending) emit;
    pending := []
  in
  let rec loop () =
    match next () with
    | None ->
      flush_pending ();
      Drained
    | Some line -> (
      if String.trim line = "" then loop ()
      else begin
        (* Parse first, then tick: every non-empty line still advances
           the logical clock exactly once — except a quiet metrics
           scrape, which by contract leaves all deterministic state
           untouched — so uptime stays invariant to batch size, domain
           count and cache settings. *)
        let parsed =
          Trace.with_span ~cat:"service" "engine.parse" (fun () ->
              Protocol.parse_line line)
        in
        match parsed with
        | Ok (id, tc, Protocol.Metrics_req { quiet = true }) ->
          (* out-of-band scrape (Prometheus exporter, fleet merge):
             still a batch barrier for snapshot ordering, but no tick
             and no counter movement, so scraping cannot perturb the
             golden counters *)
          flush_pending ();
          emit
            (Protocol.with_tc tc
               (Protocol.response_ok_json ~id ~op:"metrics"
                  ~result:(metrics_result t)));
          loop ()
        | _ -> (
          tick t;
          match parsed with
          | Ok (id, tc, Protocol.Stats) ->
            flush_pending ();
            Metrics.incr t.metrics "requests";
            Metrics.incr t.metrics "requests_stats";
            emit
              (Protocol.with_tc tc
                 (Protocol.response_ok_json ~id ~op:"stats"
                    ~result:(stats_result t)));
            loop ()
          | Ok (id, tc, Protocol.Metrics_req _) ->
            flush_pending ();
            Metrics.incr t.metrics "requests";
            Metrics.incr t.metrics "requests_metrics";
            emit
              (Protocol.with_tc tc
                 (Protocol.response_ok_json ~id ~op:"metrics"
                    ~result:(metrics_result t)));
            loop ()
          | Ok (id, tc, Protocol.Shutdown) ->
            flush_pending ();
            Metrics.incr t.metrics "requests";
            Metrics.incr t.metrics "requests_shutdown";
            emit
              (Protocol.with_tc tc
                 (Protocol.response_ok_json ~id ~op:"shutdown"
                    ~result:(Json.Obj [ ("stopping", Json.Bool true) ])));
            Shutdown
          | Ok (id, tc, Protocol.Call (Protocol.Plan_model _ as call)) ->
            (* a batch barrier, like [stats]: the partitioner reads and
               seeds the plan cache, which must only happen sequentially
               for the counters to stay deterministic *)
            flush_pending ();
            Metrics.incr t.metrics "requests";
            Metrics.incr t.metrics "requests_plan_model";
            let t0 = Unix.gettimeofday () in
            let outcome =
              plan_model_impl t ~use_cache:(Cache.capacity t.cache > 0) call
            in
            let dt = Unix.gettimeofday () -. t0 in
            Metrics.observe t.metrics "latency_plan_model" dt;
            (* structured slow-plan record with the per-group cost
               breakdown, so slow whole-model plans are diagnosable
               from logs alone (stderr only — never the response) *)
            (match (t.config.slow_log_ms, outcome, call) with
            | Some ms, Ok (Protocol.R_plan_model r), Protocol.Plan_model p
              when dt *. 1000. >= ms ->
              Log.warn
                ~fields:
                  (("op", Json.String "plan_model")
                  :: ("model", Json.String p.model)
                  :: ("layers", Json.Int p.layers)
                  :: ("ms", Json.Float (dt *. 1000.))
                  :: ("traffic", Json.Int r.Protocol.traffic)
                  :: ("hidden", Json.Int r.Protocol.hidden)
                  :: tc_args tc
                  @ [ ("groups",
                       Json.List
                         (List.map
                            (fun (g : Protocol.plan_group) ->
                              Json.Obj
                                [ ("members",
                                   Json.List
                                     (List.map
                                        (fun n -> Json.String n)
                                        g.Protocol.members));
                                  ("traffic", Json.Int g.Protocol.group_traffic);
                                  ("hidden", Json.Int g.Protocol.group_hidden) ])
                            r.Protocol.plan_groups)) ])
                "slow plan"
            | _ -> ());
            let line =
              match outcome with
              | Ok outcome -> Protocol.response_ok ~id ~call outcome
              | Error (code, message) ->
                Metrics.incr t.metrics "compute_errors";
                Protocol.response_error ~id ~code ~message
            in
            emit (Protocol.with_tc tc line);
            loop ()
          | Ok (id, tc, Protocol.Call call) ->
            pending := Ok (id, tc, call) :: !pending;
            if List.length !pending >= batch_size then flush_pending ();
            loop ()
          | Error reject ->
            pending := Error reject :: !pending;
            if List.length !pending >= batch_size then flush_pending ();
            loop ())
      end)
  in
  loop ()

let handle_lines t ?batch lines =
  let input = ref lines in
  let out = ref [] in
  let next () =
    match !input with
    | [] -> None
    | l :: rest ->
      input := rest;
      Some l
  in
  let emit line = out := line :: !out in
  ignore (run t ?batch ~next ~emit ());
  List.rev !out
