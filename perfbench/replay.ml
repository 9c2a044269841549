(* The traced run: each workload replayed in-process through the
   layers' public functions, in the order the server calls them —

     Protocol.parse_line -> canonicalize / cache_key -> Cache.find
     -> (miss) Engine.compute -> Cache.add -> Store.append
     -> apply_transform / response_ok

   The replay owns its cache and store, configured like the server's,
   so its answers must be byte-identical to the server's (checked by
   the caller). Misses are then decomposed into the principle plan and
   the searches the engine runs after it. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_util
open Fusecu_service
module Nest = Fusecu_nest.Nest

(* One request in [trace_every] gets spans. A span costs ~0.3 us plus
   the garbage-collector work of keeping its event, and a cache hit is
   ~7 us of work, so tracing every request would add ~15% to the hit
   path; 1 in 8 measured 7-17%, 1 in 16 up to 7%. *)
let trace_every = 32

(* One miss in [decompose_every] is decomposed, traced or not. *)
let decompose_every = 4

type state = {
  engine : Engine.t;  (** planners only; its own cache is disabled *)
  cache : Protocol.outcome Cache.t;
  store : Store.t option;
  mutable misses : Protocol.call list;  (** every miss, newest first *)
}

let compute_engine () =
  Engine.create
    { (Engine.default_config ()) with
      Engine.cache_enabled = false;
      cache_entries = 0;
      pool = Some Pool.sequential }

(* Opens (and for a prepared store, recovers and warm-loads) the state a
   server of this workload starts from; returns it with the recovery
   time and record count. *)
let fresh ~store_path ~cache_entries =
  let cache = Cache.create ~shards:(Engine.default_config ()).Engine.cache_shards ~capacity:cache_entries () in
  let t0 = Serve.now () in
  let store =
    Option.map
      (fun path ->
        match Store.open_ ~path with Ok s -> s | Error e -> failwith ("replay store: " ^ e))
      store_path
  in
  let records =
    match store with
    | None -> 0
    | Some s ->
      let r = Store.recovered s in
      List.iter (fun (k, o) -> Cache.add cache k o) r.Store.entries;
      r.Store.records
  in
  let recover_s = Serve.now () -. t0 in
  ( { engine = compute_engine (); cache; store; misses = [] },
    recover_s,
    records )

let close st = Option.iter Store.close st.store

(* Whether the request being answered is one of the sampled ones. *)
let traced = ref false

let span name f = if !traced then Spans.with_ name f else f ()

let miss st key canonical =
  match span "engine.compute" (fun () -> Engine.compute st.engine canonical) with
  | Ok outcome ->
    span "cache.add" (fun () -> Cache.add st.cache key outcome);
    Option.iter (fun s -> span "store.append" (fun () -> Store.append s key outcome)) st.store;
    st.misses <- canonical :: st.misses;
    Ok outcome
  | Error e -> Error e

let lookup st key canonical =
  match span "cache.find" (fun () -> Cache.find st.cache key) with
  | Some o -> Ok o
  | None -> miss st key canonical

(* One request line to its response line. *)
let answer st ~sampled line =
  traced := sampled;
  span "request" @@ fun () ->
  match span "protocol.parse" (fun () -> Protocol.parse_line line) with
  | Error reject -> span "protocol.serialize" (fun () -> Protocol.reject_response reject)
  | Ok (id, tc, Protocol.Call call) ->
    let canonical, transform, key =
      span "protocol.canonicalize" (fun () ->
          let c, tf = Protocol.canonicalize call in
          (c, tf, Protocol.cache_key c))
    in
    let outcome = lookup st key canonical in
    span "protocol.serialize" (fun () ->
        Protocol.with_tc tc
          (match outcome with
          | Ok o -> Protocol.response_ok ~id ~call (Protocol.apply_transform transform o)
          | Error (code, message) -> Protocol.response_error ~id ~code ~message))
  | Ok (_, _, _) -> invalid_arg "replay: workloads carry no control requests"

(* Answers the workload's untimed cache fill, as the server does before
   timing; its misses are not decomposed. *)
let fill st lines =
  Array.iter (fun l -> ignore (answer st ~sampled:false l)) lines;
  st.misses <- []

(* Replays [requests], returning the responses, the seconds the
   request loop took, and (index, microseconds) of every request that
   was traced: one in [trace_every] when [spans]. *)
let run st ~spans requests =
  let t0 = Serve.now () in
  let sampled = ref [] in
  let out =
    Array.mapi
      (fun i l ->
        if spans && i mod trace_every = 0 then begin
          let t = Serve.now () in
          let r = answer st ~sampled:true l in
          sampled := (i, (Serve.now () -. t) *. 1e6) :: !sampled;
          r
        end
        else answer st ~sampled:false l)
      requests
  in
  (out, Serve.now () -. t0, List.rev !sampled)

(* ------------------------------------------------------------------ *)
(* Decomposition of misses                                             *)

type search_tally = {
  mutable searches : int;
  mutable improved : int;
  mutable nodes : int;
  mutable explored : int;
  mutable nest_evaluated : int;
  mutable nest_exhaustive : int;
  mutable eval_us : float list;  (** one Cost.eval, per intra miss *)
  mutable bound_gaps : float list;  (** nest: 1 - root bound / optimum *)
}

let tally () =
  { searches = 0; improved = 0; nodes = 0; explored = 0; nest_evaluated = 0; nest_exhaustive = 0;
    eval_us = []; bound_gaps = [] }

let note t (s : Fusecu_dse.Bnb.stats) ~improved =
  t.searches <- t.searches + 1;
  t.nodes <- t.nodes + s.Fusecu_dse.Bnb.nodes;
  t.explored <- t.explored + s.Fusecu_dse.Bnb.explored;
  if improved then t.improved <- t.improved + 1

let bnb_intra t ~mode buffer (plan : Intra.plan) =
  let r, s =
    Spans.with_ "dse.bnb" (fun () ->
        Fusecu_dse.Bnb.search_with_stats ~lattice:(Check.lattice mode) ~seed:plan.Intra.schedule
          plan.Intra.op buffer)
  in
  note t s
    ~improved:
      (match r with
      | Some r -> r.Fusecu_dse.Exhaustive.cost.Cost.total < plan.Intra.cost.Cost.total
      | None -> false)

let bnb_fused t ~mode pair buffer ~fused ~traffic =
  let r, s =
    Spans.with_ "dse.bnb" (fun () ->
        Fusecu_dse.Bnb.search_fused_with_stats ~lattice:(Check.lattice mode) ~seed:fused pair buffer)
  in
  note t s
    ~improved:(match r with Some r -> r.Fusecu_dse.Fused_search.traffic < traffic | None -> false)

(* The root of Nest_bnb's tree: every axis at the largest tile that
   fits with the others at 1, bounded by [Bound.penalized]. *)
let nest_root_bound nest ~lattice ~capacity =
  let sp = Fusecu_nest.Search.compile ~lattice nest ~capacity in
  let n = Nest.rank nest in
  let trips =
    Array.init n (fun axis ->
        let tiles = Array.make n 1 in
        let fit =
          Array.fold_left
            (fun best c ->
              tiles.(axis) <- c;
              if Nest.footprint_tiles nest tiles <= capacity then Some c else best)
            None
            (Fusecu_nest.Search.candidates sp axis)
        in
        let e = nest.Nest.extents.(axis) in
        match fit with Some c -> Arith.ceil_div e c | None -> e)
  in
  Fusecu_nest.Bound.penalized nest ~trips

(* The engine's compute for one canonical miss, re-run as its parts:
   the closed-form principle plan, then the searches seeded from it.
   Spans are leaves, so the parts' total is what [Engine.compute]'s time
   is attributed to. *)
let parts t call =
  match call with
  | Protocol.Intra { op; buffer; mode } -> (
    match Spans.with_ "core.plan" (fun () -> Intra.optimize ~mode op buffer) with
    | Ok plan ->
      bnb_intra t ~mode buffer plan;
      let evals = 64 in
      let t0 = Serve.now () in
      for _ = 1 to evals do
        ignore (Sys.opaque_identity (Cost.eval op plan.Intra.schedule))
      done;
      t.eval_us <- ((Serve.now () -. t0) *. 1e6 /. float_of_int evals) :: t.eval_us
    | Error _ -> ())
  | Protocol.Fuse { op; l2; buffer; mode } -> (
    let pair = Check.pair op l2 in
    match Spans.with_ "core.plan" (fun () -> Fusion.plan_pair ~mode pair buffer) with
    | Ok (Fusion.Fuse { fused; traffic; _ }) -> bnb_fused t ~mode pair buffer ~fused ~traffic
    | Ok (Fusion.No_fuse { plan1; plan2; _ }) ->
      bnb_intra t ~mode buffer plan1;
      bnb_intra t ~mode buffer plan2
    | Error _ -> ())
  | Protocol.Chain { m; ks; buffer; mode } -> (
    let chain = Chain.of_dims ~name:"chain" ~m ks in
    match Spans.with_ "core.plan" (fun () -> Multi_fusion.plan ~mode chain buffer) with
    | Ok (Multi_fusion.Fallback plan) ->
      List.iter
        (function
          | Planner.Solo p -> bnb_intra t ~mode buffer p
          | Planner.Fused_pair { pair; fused; traffic; _ } -> bnb_fused t ~mode pair buffer ~fused ~traffic)
        plan.Planner.segments
    | Ok (Multi_fusion.Full_fusion _) | Error _ -> ())
  | Protocol.Regime { op; buffer } ->
    Spans.with_ "core.plan" (fun () ->
        let r = Regime.classify op buffer in
        ignore (Sys.opaque_identity (Regime.thresholds op, Regime.expected_classes r)))
  | Protocol.Nest { kind; buffer; mode } -> (
    let nest = Spans.with_ "nest.lower" (fun () -> Check.nest_of kind) in
    let lattice = Check.nest_lattice mode in
    let r, _ =
      Spans.with_ "nest.search" (fun () -> Fusecu_dse.Nest_bnb.search_with_stats ~lattice nest buffer)
    in
    match r with
    | None -> ()
    | Some r ->
      let capacity = Buffer.elements buffer in
      t.nest_evaluated <- t.nest_evaluated + r.Fusecu_nest.Search.evaluated;
      (match Fusecu_nest.Search.exhaustive ~lattice nest ~capacity with
      | Some e -> t.nest_exhaustive <- t.nest_exhaustive + e.Fusecu_nest.Search.evaluated
      | None -> ());
      let opt = r.Fusecu_nest.Search.cost.Nest.total in
      if opt > 0 then
        t.bound_gaps <-
          (1. -. (float_of_int (nest_root_bound nest ~lattice ~capacity) /. float_of_int opt))
          :: t.bound_gaps)
  | Protocol.Eval _ | Protocol.Plan_model _ -> ()

(* Decomposes one miss in [decompose_every]: [Engine.compute] once
   whole, then once as its parts, alternating which goes first so that
   neither side always runs on caches the other warmed. Returns the
   tally and, per decomposed miss, the share of the whole's time that no
   part accounts for. *)
let decompose st =
  let t = tally () in
  let leaves () = Stat.sum (List.map Spans.sum_us [ "core.plan"; "dse.bnb"; "nest.lower"; "nest.search" ]) in
  let unattributed = ref [] in
  List.iteri
    (fun i call ->
      if i mod decompose_every = 0 then begin
        let whole () =
          let before = Spans.sum_us "decompose.compute" in
          ignore (Spans.with_ "decompose.compute" (fun () -> Engine.compute st.engine call));
          Spans.sum_us "decompose.compute" -. before
        in
        let split () =
          let before = leaves () in
          parts t call;
          leaves () -. before
        in
        let w, p =
          if i / decompose_every mod 2 = 0 then
            let w = whole () in
            (w, split ())
          else
            let p = split () in
            (whole (), p)
        in
        if w > 0. then unattributed := (1. -. (p /. w)) :: !unattributed
      end)
    (List.rev st.misses);
  (t, !unattributed)
