open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type plan = {
  op : Matmul.t;
  schedule : Schedule.t;
  cost : Cost.t;
  dataflow : Nra.dataflow;
  regime : Regime.t;
}

let candidates ?(mode = Mode.Exact) op buf = Principles.all mode op buf

(* The first minimum so far under (total, footprint), as tiles and an
   order index. *)
type best = {
  mutable found : bool;
  mutable total : int;
  mutable footprint : int;
  mutable m : int;
  mutable k : int;
  mutable l : int;
  mutable order : int;
}

let optimize ?(mode = Mode.Exact) (op : Matmul.t) buf =
  (* Fold the candidate stream into its first minimum by (total,
     footprint), priced on the revisit table; no list and no dedup, as
     a repeated candidate cannot displace its first occurrence. Only
     the winner gets a schedule and a [Cost.t]. The fold stops at the
     floor: traffic [MK + KL + ML] leaves at most one dimension with
     more than one trip, so its footprint is at least
     [Regime.three_min_footprint], and nothing later displaces an
     incumbent at both (DESIGN.md Sec. 4d). No exit if either
     saturates. *)
  let b = { found = false; total = 0; footprint = 0; m = 0; k = 0; l = 0; order = 0 } in
  let floor_total =
    Arith.(add_sat (add_sat (mul_sat op.m op.k) (mul_sat op.k op.l)) (mul_sat op.m op.l))
  and floor_footprint = Regime.three_min_footprint op in
  let stop = floor_total < max_int && floor_footprint < max_int in
  let exception Floor in
  let visit _ m k l order =
    let total =
      Cost.table_total op (Cost.trip op.m m) (Cost.trip op.k k) (Cost.trip op.l l) order
    in
    let footprint = (m * k) + (k * l) + (m * l) in
    if (not b.found) || total < b.total || (total = b.total && footprint < b.footprint)
    then begin
      b.found <- true;
      b.total <- total;
      b.footprint <- footprint;
      b.m <- m;
      b.k <- k;
      b.l <- l;
      b.order <- order;
      if stop && total = floor_total && footprint = floor_footprint then
        raise_notrace Floor
    end
  in
  (try Principles.iter ~distinct:false mode op buf visit with Floor -> ());
  if not b.found then
    Error
      (Format.asprintf "no feasible dataflow for %a within %a" Matmul.pp op
         Buffer.pp buf)
  else begin
    let schedule =
      Schedule.make (Tiling.make op ~m:b.m ~k:b.k ~l:b.l) (Order.of_index b.order)
    in
    Ok
      { op; schedule; cost = Cost.eval op schedule;
        dataflow = Nra.classify op schedule;
        regime = Regime.classify op buf }
  end

let optimize_exn ?mode op buf =
  match optimize ?mode op buf with
  | Ok p -> p
  | Error e -> invalid_arg e

let ma plan = plan.cost.Cost.total

let redundancy plan =
  float_of_int (ma plan) /. float_of_int (Matmul.ideal_ma plan.op)

let pp_plan fmt p =
  Format.fprintf fmt "@[<v>%a@ regime=%a dataflow=%a@ schedule=%a@ %a@]" Matmul.pp
    p.op Regime.pp p.regime Nra.pp_dataflow p.dataflow Schedule.pp p.schedule
    Cost.pp p.cost
