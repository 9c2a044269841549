open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type t = { schedules : Schedule.t list }

let make chain schedules =
  if List.length schedules <> Chain.length chain then
    Error "multi-fusion: one schedule per operator required"
  else Ok { schedules }

let pairs_with_schedules chain t =
  let rec zip ops schedules =
    match (ops, schedules) with
    | op1 :: (op2 :: _ as ops_rest), s1 :: (s2 :: _ as s_rest) ->
      (Fused.make_pair_exn op1 op2, { Fused.producer = s1; consumer = s2 })
      :: zip ops_rest s_rest
    | _ -> []
  in
  zip (Chain.ops chain) t.schedules

let validate chain t =
  let rec check i = function
    | [] -> Ok ()
    | (pair, fused) :: rest -> (
      match Fused.validate pair fused with
      | Ok () -> check (i + 1) rest
      | Error e ->
        Error (Format.asprintf "link %d: %a" i Fused.pp_invalid e))
  in
  check 0 (pairs_with_schedules chain t)

let footprint chain t =
  let tile_totals =
    List.map (fun (s : Schedule.t) -> Tiling.footprint s.tiling) t.schedules
  in
  (* each intermediate tile is both a producer C tile and a consumer A
     tile; count it once *)
  let shared =
    List.fold_left
      (fun acc (_, (fused : Fused.t)) ->
        acc + Tiling.operand_tile fused.producer.tiling Operand.C)
      0
      (pairs_with_schedules chain t)
  in
  Arith.sum tile_totals - shared

let traffic chain t =
  let ops = Chain.ops chain in
  let n = List.length ops in
  let costs = List.map2 Cost.eval ops t.schedules in
  List.fold_left ( + ) 0
    (List.mapi
       (fun i (cost : Cost.t) ->
         let first = i = 0 and last = i = n - 1 in
         (if first then cost.a.traffic else 0)
         + cost.b.traffic
         + if last then cost.c.traffic else 0)
       costs)

let eval chain t buf =
  match validate chain t with
  | Error e -> Error e
  | Ok () ->
    let fp = footprint chain t in
    if fp > Buffer.elements buf then
      Error
        (Printf.sprintf "fused chain footprint %d exceeds buffer %d" fp
           (Buffer.elements buf))
    else Ok (traffic chain t)

(* Row pipeline: every reduction dim untiled, every weight resident,
   one shared row block T_M. Footprint(T_M) =
   sum_i (T_M*K_i + K_i*L_i + T_M*L_i) - sum_intermediates T_M*L_i
       = sum_i K_i*L_i + T_M*(K_1 + L_n + sum_i<n L_i ... ) computed
   directly below. *)
let row_pipeline ?(mode = Mode.Exact) chain buf =
  let ops = Chain.ops chain in
  let weights = Arith.sum (List.map (fun (op : Matmul.t) -> op.k * op.l) ops) in
  let first = List.hd ops in
  let per_row =
    (* columns live per row block: A_1 rows (K_1 wide) plus every
       operator's output rows (L_i wide); intermediates shared *)
    first.k + Arith.sum (List.map (fun (op : Matmul.t) -> op.l) ops)
  in
  let budget = Buffer.elements buf - weights in
  if budget < per_row then []
  else begin
    let m = first.m in
    let base = budget / per_row in
    let order = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
    let candidates =
      Arith.dedup_sorted
        (List.filter_map
           (fun tm -> if tm < 1 then None else Some (Mode.snap mode first Dim.M tm))
           [ base; base - 1; base + 1; m ])
    in
    List.filter_map
      (fun tm ->
        let schedules =
          List.map
            (fun (op : Matmul.t) ->
              Schedule.make (Tiling.make op ~m:tm ~k:op.k ~l:op.l) order)
            ops
        in
        match make chain schedules with
        | Error _ -> None
        | Ok t -> if footprint chain t <= Buffer.elements buf then Some t else None)
      candidates
  end

type decision =
  | Full_fusion of { fused : t; traffic : int }
  | Fallback of Planner.plan

let traffic_of_decision = function
  | Full_fusion { traffic; _ } -> traffic
  | Fallback plan -> plan.Planner.traffic

let plan ?(mode = Mode.Exact) chain buf =
  match Planner.plan_chain ~mode chain buf with
  | Error e -> Error e
  | Ok pairwise ->
    let best_full =
      List.fold_left
        (fun best candidate ->
          match eval chain candidate buf with
          | Error _ -> best
          | Ok traffic -> (
            match best with
            | Some (_, bt) when bt <= traffic -> best
            | _ -> Some (candidate, traffic)))
        None
        (row_pipeline ~mode chain buf)
    in
    (match best_full with
    | Some (fused, traffic) when traffic < pairwise.Planner.traffic ->
      Ok (Full_fusion { fused; traffic })
    | Some _ | None -> Ok (Fallback pairwise))
