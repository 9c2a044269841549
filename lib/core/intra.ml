open Fusecu_tensor
open Fusecu_loopnest

type plan = {
  op : Matmul.t;
  schedule : Schedule.t;
  cost : Cost.t;
  dataflow : Nra.dataflow;
  regime : Regime.t;
}

let candidates ?(mode = Mode.Exact) op buf = Principles.all mode op buf

let optimize ?(mode = Mode.Exact) ?(filter = fun _ -> true) op buf =
  (* Rank by (total, footprint), first minimum; price on the trip
     kernel and build the [Cost.t] for the winner alone. *)
  let total (c : Principles.candidate) =
    Cost.total_at op (Cost.trips op c.schedule.tiling) c.schedule.order
  in
  let best =
    List.fold_left
      (fun best (c : Principles.candidate) ->
        if not (filter c) then best
        else
          let t = total c in
          match best with
          | Some (bt, (b : Principles.candidate))
            when bt < t
                 || (bt = t
                    && Schedule.footprint b.schedule <= Schedule.footprint c.schedule) ->
            best
          | _ -> Some (t, c))
      None (candidates ~mode op buf)
  in
  match best with
  | None ->
    Error
      (Format.asprintf "no feasible dataflow for %a within %a" Matmul.pp op
         Buffer.pp buf)
  | Some (_, c) ->
    let schedule = c.schedule in
    Ok
      { op; schedule; cost = Cost.eval op schedule;
        dataflow = Nra.classify op schedule;
        regime = Regime.classify op buf }

let optimize_exn ?mode ?filter op buf =
  match optimize ?mode ?filter op buf with
  | Ok p -> p
  | Error e -> invalid_arg e

let ma plan = plan.cost.Cost.total

let redundancy plan =
  float_of_int (ma plan) /. float_of_int (Matmul.ideal_ma plan.op)

let pp_plan fmt p =
  Format.fprintf fmt "@[<v>%a@ regime=%a dataflow=%a@ schedule=%a@ %a@]" Matmul.pp
    p.op Regime.pp p.regime Nra.pp_dataflow p.dataflow Schedule.pp p.schedule
    Cost.pp p.cost
