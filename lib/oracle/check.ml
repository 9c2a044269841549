open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse

type mapper = Principles | Bnb

(* A lattice leg: principle plans built in [mode], held to the optimum
   over [lattice]. [infix] goes into every check name, so shrinking a
   failure stays on its leg. The Exact leg also runs the simulator,
   bound, regime, Principle-4 and B&B checks. *)
type leg = { mode : Mode.t; lattice : Space.lattice; infix : string }

let legs =
  [ { mode = Mode.Exact; lattice = Space.All; infix = "" };
    { mode = Mode.Divisors; lattice = Space.Divisors; infix = "/divisors" };
    { mode = Mode.Pow2; lattice = Space.Pow2; infix = "/pow2" } ]

let full leg = leg.mode = Mode.Exact

let check = Oracle.check

let operand_cost_equal a b =
  let open Cost in
  a.traffic = b.traffic && a.fetches = b.fetches && a.revisit = b.revisit

let pp_op_cost (c : Cost.per_operand) =
  Printf.sprintf "t=%d f=%d r=%d" c.Cost.traffic c.Cost.fetches c.Cost.revisit

let simulate op (s : Schedule.t) : Cost.t =
  let nest = Fusecu_nest.Lower.of_matmul op in
  let sim =
    Fusecu_nest.Nsim.eval nest
      (Fusecu_nest.Lower.schedule_of_mm nest ~tiling:s.tiling ~order:s.order)
  in
  let per i =
    let { Fusecu_nest.Nest.fetches; traffic; revisit } = sim.per.(i) in
    { Cost.fetches; traffic; revisit }
  in
  { Cost.a = per 0; b = per 1; c = per 2; total = sim.total }

(* Analytic cost model vs the loop-nest simulator on one schedule,
   per operand, including ragged edges. *)
let sim_vs_cost ctx ~name op schedule =
  let analytic = Cost.eval op schedule in
  let simulated = simulate op schedule in
  check ctx name
    (analytic.Cost.total = simulated.Cost.total
    && List.for_all
         (fun x ->
           operand_cost_equal (Cost.operand analytic x) (Cost.operand simulated x))
         Operand.all)
    (fun () ->
      Printf.sprintf "schedule %s: analytic total=%d %s, sim total=%d %s"
        (Schedule.to_string schedule) analytic.Cost.total
        (String.concat " "
           (List.map
              (fun x ->
                Printf.sprintf "%s(%s)" (Operand.to_string x)
                  (pp_op_cost (Cost.operand analytic x)))
              Operand.all))
        simulated.Cost.total
        (String.concat " "
           (List.map
              (fun x ->
                Printf.sprintf "%s(%s)" (Operand.to_string x)
                  (pp_op_cost (Cost.operand simulated x)))
              Operand.all)))

(* B&B must reproduce the exhaustive optimum bit-for-bit — feasibility,
   traffic AND schedule — when seeded with the principle plan. *)
let bnb_intra_checks ctx ~lattice tag op buf planned searched =
  let seed =
    match planned with
    | Ok (p : Intra.plan) -> Some p.Intra.schedule
    | Error _ -> None
  in
  let b = Bnb.search ~lattice ?seed op buf in
  match (searched, b) with
  | None, None -> check ctx (tag ^ "/bnb-exact") true (fun () -> "")
  | Some (ex : Exhaustive.result), Some (b : Exhaustive.result) ->
    check ctx (tag ^ "/bnb-exact")
      (b.cost.Cost.total = ex.cost.Cost.total
      && Schedule.equal b.schedule ex.schedule)
      (fun () ->
        Printf.sprintf "bnb=%d (%s) vs exhaustive=%d (%s)" b.cost.Cost.total
          (Schedule.to_string b.schedule)
          ex.cost.Cost.total
          (Schedule.to_string ex.schedule))
  | Some ex, None ->
    check ctx (tag ^ "/bnb-exact") false (fun () ->
        Printf.sprintf "bnb infeasible but exhaustive found %d"
          ex.Exhaustive.cost.Cost.total)
  | None, Some b ->
    check ctx (tag ^ "/bnb-exact") false (fun () ->
        Printf.sprintf "bnb found %d but exhaustive infeasible"
          b.Exhaustive.cost.Cost.total)

let intra_checks ctx ~mapper leg tag op buf =
  let { mode; lattice; _ } = leg in
  let planned = Intra.optimize ~mode op buf in
  let searched = Exhaustive.search ~lattice op buf in
  if full leg && mapper = Bnb then
    bnb_intra_checks ctx ~lattice tag op buf planned searched;
  match (planned, searched) with
  | Error _, None -> ()
  | Error e, Some ex ->
    check ctx (tag ^ "/feasibility") false (fun () ->
        Printf.sprintf "principles infeasible (%s) but exhaustive found %d" e
          ex.Exhaustive.cost.Cost.total)
  | Ok plan, None ->
    check ctx (tag ^ "/feasibility") false (fun () ->
        Printf.sprintf "principles found %d but exhaustive infeasible"
          (Intra.ma plan))
  | Ok plan, Some ex ->
    check ctx (tag ^ "/feasibility") true (fun () -> "");
    check ctx
      (tag ^ "/optimal")
      (Intra.ma plan = ex.Exhaustive.cost.Cost.total)
      (fun () ->
        Printf.sprintf "principles=%d (%s) vs exhaustive=%d (%s)" (Intra.ma plan)
          (Schedule.to_string plan.Intra.schedule)
          ex.Exhaustive.cost.Cost.total
          (Schedule.to_string ex.Exhaustive.schedule));
    if full leg then begin
      sim_vs_cost ctx ~name:(tag ^ "/sim") op plan.Intra.schedule;
      check ctx
        (tag ^ "/lower-bound")
        (Intra.ma plan >= Lower_bound.intra op)
        (fun () ->
          Printf.sprintf "traffic %d below unbounded lower bound %d" (Intra.ma plan)
            (Lower_bound.intra op));
      let regime = Regime.classify op buf in
      let cls = Nra.class_of plan.Intra.dataflow in
      let ok =
        match regime with
        | Regime.Large ->
          (* with the exact feasibility threshold, Large means the
             unbounded bound is reachable — and therefore reached *)
          Intra.ma plan = Lower_bound.intra op
        | _ -> List.exists (Nra.equal cls) (Regime.expected_classes regime)
      in
      check ctx (tag ^ "/regime") ok (fun () ->
          Printf.sprintf "%s regime but %s dataflow with traffic %d (ideal %d)"
            (Regime.to_string regime) (Nra.to_string cls) (Intra.ma plan)
            (Lower_bound.intra op))
    end

(* Random (mostly ragged) schedules, unconstrained by the buffer: the
   simulator and the analytic model must agree everywhere, not just on
   feasible optima. *)
let ragged_checks ctx rng tag op =
  for _ = 1 to 8 do
    let tile d = Rng.range rng ~lo:1 ~hi:(Matmul.dim op d) in
    let tiling =
      Tiling.make op ~m:(tile Dim.M) ~k:(tile Dim.K) ~l:(tile Dim.L)
    in
    let schedule = Schedule.make tiling (Rng.choose rng Order.all) in
    sim_vs_cost ctx ~name:(tag ^ "/ragged-sim") op schedule
  done

let fused_sim_traffic pair (f : Fused.t) =
  let p = simulate pair.Fused.op1 f.Fused.producer in
  let c = simulate pair.Fused.op2 f.Fused.consumer in
  p.Cost.a.Cost.traffic + p.Cost.b.Cost.traffic + c.Cost.b.Cost.traffic
  + c.Cost.c.Cost.traffic

(* Same bit-for-bit contract on the fused side: the fused B&B (seeded
   from the principle fusion decision) must agree with
   Fused_search.exhaustive on feasibility, traffic and the winning
   producer/consumer schedules. *)
let bnb_fused_checks ctx ~lattice pair buf planned_pair verdict =
  let seed =
    match planned_pair with
    | Ok (Fusion.Fuse { fused; _ }) -> Some fused
    | Ok (Fusion.No_fuse _) | Error _ -> None
  in
  let b = Bnb.search_fused ~lattice ?seed pair buf in
  match (verdict.Fused_search.fused_best, b) with
  | None, None -> check ctx "fuse/bnb-exact" true (fun () -> "")
  | Some (ex : Fused_search.result), Some (b : Fused_search.result) ->
    check ctx "fuse/bnb-exact"
      (b.traffic = ex.traffic
      && Schedule.equal b.fused.Fused.producer ex.fused.Fused.producer
      && Schedule.equal b.fused.Fused.consumer ex.fused.Fused.consumer)
      (fun () ->
        Printf.sprintf "bnb fused=%d vs exhaustive fused=%d" b.traffic
          ex.traffic)
  | Some ex, None ->
    check ctx "fuse/bnb-exact" false (fun () ->
        Printf.sprintf "bnb found no fused dataflow but exhaustive found %d"
          ex.Fused_search.traffic)
  | None, Some b ->
    check ctx "fuse/bnb-exact" false (fun () ->
        Printf.sprintf "bnb found fused %d but exhaustive found none"
          b.Fused_search.traffic)

let pair_checks ctx ~mapper leg pair buf =
  let { mode; lattice; infix } = leg in
  let name check = "fuse" ^ infix ^ "/" ^ check in
  let chain = Chain.make_exn [ pair.Fused.op1; pair.Fused.op2 ] in
  let verdict = Fused_search.decide ~lattice pair buf in
  let planned_pair = Fusion.plan_pair ~mode ~strategy:Fusion.Best_of_both pair buf in
  if full leg && mapper = Bnb then
    bnb_fused_checks ctx ~lattice pair buf planned_pair verdict;
  match planned_pair with
  | Error _ ->
    check ctx (name "feasibility")
      (verdict.Fused_search.best_traffic = None)
      (fun () -> "planner infeasible but exhaustive search found a dataflow")
  | Ok decision ->
    let traffic = Fusion.traffic_of_decision decision in
    (match verdict.Fused_search.best_traffic with
    | None ->
      check ctx (name "feasibility") false (fun () ->
          "planner produced a plan but exhaustive search found none")
    | Some best ->
      check ctx (name "optimal") (traffic = best) (fun () ->
          Printf.sprintf "best-of-both=%d vs exhaustive best=%d (fused=%s unfused=%s)"
            traffic best
            (match verdict.Fused_search.fused_best with
            | Some f -> string_of_int f.Fused_search.traffic
            | None -> "-")
            (match verdict.Fused_search.unfused_traffic with
            | Some u -> string_of_int u
            | None -> "-")));
    if full leg then begin
      (match decision with
      | Fusion.No_fuse _ -> ()
      | Fusion.Fuse { fused; traffic; _ } ->
        check ctx "fuse/sim"
          (fused_sim_traffic pair fused = traffic)
          (fun () ->
            Printf.sprintf "analytic fused traffic %d but simulated %d" traffic
              (fused_sim_traffic pair fused));
        check ctx "fuse/lower-bound"
          (traffic >= Chain.ideal_ma_fused chain)
          (fun () ->
            Printf.sprintf "fused traffic %d below fused lower bound %d" traffic
              (Chain.ideal_ma_fused chain)));
      (* Principle-4 soundness: a Fuse decision never moves more data
         than its own unfused baseline, and the By_principle gate only
         changes the outcome when the classes differ. *)
      (match
         (Intra.optimize ~mode pair.Fused.op1 buf,
          Intra.optimize ~mode pair.Fused.op2 buf)
       with
      | Ok p1, Ok p2 -> (
        let unfused = Intra.ma p1 + Intra.ma p2 in
        check ctx "fuse/profitable" (traffic <= unfused) (fun () ->
            Printf.sprintf "decision traffic %d exceeds unfused baseline %d" traffic
              unfused);
        let classes_equal =
          Fusion.profitable
            (Nra.class_of p1.Intra.dataflow)
            (Nra.class_of p2.Intra.dataflow)
        in
        match Fusion.plan_pair ~mode ~strategy:Fusion.By_principle pair buf with
        | Error e ->
          check ctx "fuse/principle" false (fun () ->
              "By_principle infeasible where Best_of_both was not: " ^ e)
        | Ok by_principle ->
          let pt = Fusion.traffic_of_decision by_principle in
          if classes_equal then
            check ctx "fuse/principle" (pt = traffic) (fun () ->
                Printf.sprintf
                  "classes equal but By_principle=%d differs from Best_of_both=%d"
                  pt traffic)
          else
            check ctx "fuse/principle"
              (match by_principle with
              | Fusion.No_fuse _ -> pt = unfused
              | Fusion.Fuse _ -> false)
              (fun () ->
                Printf.sprintf
                  "classes differ but By_principle fused (traffic %d, unfused %d)"
                  pt unfused))
      | _ -> ())
    end

let chain_checks ctx { mode; infix; _ } chain buf =
  let name check = "chain" ^ infix ^ "/" ^ check in
  match Multi_fusion.plan ~mode chain buf with
  | Error _ -> ()
  | Ok decision ->
    let traffic = Multi_fusion.traffic_of_decision decision in
    check ctx (name "lower-bound")
      (traffic >= Chain.ideal_ma_fused chain)
      (fun () ->
        Printf.sprintf "chain traffic %d below fused lower bound %d" traffic
          (Chain.ideal_ma_fused chain));
    (match Planner.plan_chain ~mode chain buf with
    | Error e ->
      check ctx (name "pairwise") false (fun () ->
          "whole-chain plan exists but pairwise planning failed: " ^ e)
    | Ok pairwise ->
      check ctx (name "not-worse")
        (traffic <= pairwise.Planner.traffic)
        (fun () ->
          Printf.sprintf "chain decision %d worse than pairwise %d" traffic
            pairwise.Planner.traffic);
      check ctx (name "pairwise")
        (pairwise.Planner.traffic
        = Fusecu_util.Arith.sum
            (List.map Planner.segment_traffic pairwise.Planner.segments))
        (fun () -> "pairwise total is not the sum of its segments"));
    (match decision with
    | Multi_fusion.Fallback _ -> ()
    | Multi_fusion.Full_fusion { fused; traffic } ->
      (match Multi_fusion.eval chain fused buf with
      | Error e ->
        check ctx (name "valid") false (fun () ->
            "Full_fusion decision fails validation: " ^ e)
      | Ok t ->
        check ctx (name "valid") (t = traffic) (fun () ->
            Printf.sprintf "decision traffic %d but eval says %d" traffic t));
      (* three-way closure: the analytic whole-chain traffic equals the
         simulated traffic of every external (non-intermediate) operand *)
      let ops = Chain.ops chain in
      let last = List.length ops - 1 in
      let sim_external =
        List.fold_left ( + ) 0
          (List.mapi
             (fun i (op, s) ->
               let c = simulate op s in
               let b = c.Cost.b.Cost.traffic in
               if i = 0 then c.Cost.a.Cost.traffic + b
               else if i = last then b + c.Cost.c.Cost.traffic
               else b)
             (List.combine ops fused.Multi_fusion.schedules))
      in
      check ctx (name "sim") (sim_external = traffic) (fun () ->
          Printf.sprintf "analytic chain traffic %d but simulated %d" traffic
            sim_external))

let shape_name (p : Problem.t) =
  match p.shape with
  | Problem.Single -> "single"
  | Problem.Pair _ -> "pair"
  | Problem.Chain3 _ -> "chain3"

let checks ~mapper ctx p =
  let buf = Problem.buffer p in
  Oracle.tally ctx "shapes" (shape_name p);
  Oracle.tally ctx "regimes (op1)"
    (Regime.to_string (Regime.classify (Problem.op1 p) buf));
  List.iter
    (fun leg ->
      List.iteri
        (fun i op ->
          let tag = Printf.sprintf "op%d%s" (i + 1) leg.infix in
          intra_checks ctx ~mapper leg tag op buf;
          if full leg then ragged_checks ctx (Oracle.rng ctx) tag op)
        (Problem.ops p);
      (match Problem.pair p with
      | Some pair -> pair_checks ctx ~mapper leg pair buf
      | None -> ());
      match Problem.chain p with
      | Some chain -> chain_checks ctx leg chain buf
      | None -> ())
    legs

let oracle mapper =
  { Oracle.name = "oracle";
    flag = "";
    max_dim = 24;
    gen = Gen.problem;
    checks = checks ~mapper;
    proposals = Problem.proposals;
    to_spec = Problem.to_spec;
    of_spec = Problem.of_spec;
    tallies = [ "shapes"; "regimes (op1)" ];
    sums = [] }
