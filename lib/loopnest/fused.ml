open Fusecu_tensor

type pair = { op1 : Matmul.t; op2 : Matmul.t }

let make_pair (op1 : Matmul.t) (op2 : Matmul.t) =
  if op2.m <> op1.m then
    Error (Printf.sprintf "fused pair: op2.M = %d <> op1.M = %d" op2.m op1.m)
  else if op2.k <> op1.l then
    Error (Printf.sprintf "fused pair: op2.K = %d <> op1.L = %d" op2.k op1.l)
  else Ok { op1; op2 }

let make_pair_exn op1 op2 =
  match make_pair op1 op2 with Ok p -> p | Error e -> invalid_arg e

type t = { producer : Schedule.t; consumer : Schedule.t }

type invalid =
  | Intermediate_redundant of [ `Producer | `Consumer ]
  | Tile_mismatch
  | Order_mismatch

let pp_invalid fmt = function
  | Intermediate_redundant `Producer ->
    Format.pp_print_string fmt "intermediate tensor refetched by producer"
  | Intermediate_redundant `Consumer ->
    Format.pp_print_string fmt "intermediate tensor refetched by consumer"
  | Tile_mismatch ->
    Format.pp_print_string fmt "intermediate tile sizes differ between operators"
  | Order_mismatch ->
    Format.pp_print_string fmt "intermediate production and consumption orders differ"

type error =
  | Invalid of invalid
  | Over_capacity of { footprint : int; capacity : int }

let pp_error fmt = function
  | Invalid e -> pp_invalid fmt e
  | Over_capacity { footprint; capacity } ->
    Format.fprintf fmt "fused footprint %d exceeds buffer capacity %d" footprint
      capacity

(* The fusibility rule, split by what each condition reads. Tile
   agreement, residency and the footprint read only the two tilings;
   each side's non-redundancy and traffic read only that side's
   schedule; the two loop orders meet only in the C-order agreement. *)

let producer_nra pair (s : Schedule.t) = Cost.is_nra pair.op1 s Operand.C

let consumer_nra pair (s : Schedule.t) = Cost.is_nra pair.op2 s Operand.A

let tiles_agree (p : Tiling.t) (c : Tiling.t) =
  Tiling.get p Dim.M = Tiling.get c Dim.M && Tiling.get p Dim.L = Tiling.get c Dim.K

(* C is fully resident on a side when both of its dims are untiled there;
   resident on both sides, its tile order does not matter. *)
let c_resident pair (p : Tiling.t) (c : Tiling.t) =
  Tiling.untiled pair.op1 p Dim.M
  && Tiling.untiled pair.op1 p Dim.L
  && Tiling.untiled pair.op2 c Dim.M
  && Tiling.untiled pair.op2 c Dim.K

(* The stream of C tiles leaves op1 in (M, L)-loop order and must enter
   op2 in the identical (M, K)-loop order. *)
let m_major_producer o = Order.position o Dim.M < Order.position o Dim.L

let m_major_consumer o = Order.position o Dim.M < Order.position o Dim.K

let validate pair t =
  let p = t.producer and c = t.consumer in
  if not (producer_nra pair p) then Error (Intermediate_redundant `Producer)
  else if not (consumer_nra pair c) then Error (Intermediate_redundant `Consumer)
  else if not (tiles_agree p.tiling c.tiling) then Error Tile_mismatch
  else if
    c_resident pair p.tiling c.tiling
    || m_major_producer p.order = m_major_consumer c.order
  then Ok ()
  else Error Order_mismatch

let tilings_footprint (p : Tiling.t) (c : Tiling.t) =
  Tiling.footprint p + Tiling.footprint c - Tiling.operand_tile p Operand.C

let footprint t = tilings_footprint t.producer.tiling t.consumer.tiling

let producer_traffic pair s =
  let cost = Cost.eval pair.op1 s in
  cost.a.traffic + cost.b.traffic

let consumer_traffic pair s =
  let cost = Cost.eval pair.op2 s in
  cost.b.traffic + cost.c.traffic

let traffic pair t = producer_traffic pair t.producer + consumer_traffic pair t.consumer

let eval pair t buf =
  match validate pair t with
  | Error e -> Error (Invalid e)
  | Ok () ->
    let footprint = footprint t and capacity = Buffer.elements buf in
    if footprint > capacity then Error (Over_capacity { footprint; capacity })
    else Ok (traffic pair t)

let orders = Array.of_list Order.all

(* One side's first cheapest order in each C-order class, as order
   indices into [Order.all] (-1: no order of the class keeps C
   non-redundant) and costs: class 0 is C M-major, or every order when
   C is resident; class 1 the rest. Each order is scored from the
   side's one trip vector: C's revisit on [c_as] (C is operand C of
   op1, operand A of op2), the traffic of the side's other two. *)
let side_best op n ~c_as ~x ~y ~m_major ~resident =
  let i0 = ref (-1) and t0 = ref 0 and i1 = ref (-1) and t1 = ref 0 in
  for i = 0 to Array.length orders - 1 do
    let o = orders.(i) in
    if Cost.revisit_at n o c_as = 1 then begin
      let t = Cost.traffic_at op n o x + Cost.traffic_at op n o y in
      if resident || m_major o then begin
        if !i0 < 0 || t < !t0 then begin
          i0 := i;
          t0 := t
        end
      end
      else if !i1 < 0 || t < !t1 then begin
        i1 := i;
        t1 := t
      end
    end
  done;
  (!i0, !t0, !i1, !t1)

(* Within a C-order class the cheapest pair is the two sides' first
   cheapest orders; across the classes a tie goes to the earlier
   producer order. That is the first minimum of the o1-major scan over
   all 36 pairs. *)
let best_orders pair ~producer ~consumer buf =
  if
    (not (tiles_agree producer consumer))
    || tilings_footprint producer consumer > Buffer.elements buf
  then None
  else begin
    let resident = c_resident pair producer consumer in
    let p0, pt0, p1, pt1 =
      side_best pair.op1 (Cost.trips pair.op1 producer) ~c_as:Operand.C ~x:Operand.A
        ~y:Operand.B ~m_major:m_major_producer ~resident
    in
    let c0, ct0, c1, ct1 =
      side_best pair.op2 (Cost.trips pair.op2 consumer) ~c_as:Operand.A ~x:Operand.B
        ~y:Operand.C ~m_major:m_major_consumer ~resident
    in
    let pick p c t =
      Some
        ( { producer = Schedule.make producer orders.(p);
            consumer = Schedule.make consumer orders.(c) },
          t )
    in
    let ok0 = p0 >= 0 && c0 >= 0 and ok1 = p1 >= 0 && c1 >= 0 in
    let t0 = pt0 + ct0 and t1 = pt1 + ct1 in
    if ok0 && ok1 then
      if t1 < t0 || (t1 = t0 && p1 < p0) then pick p1 c1 t1 else pick p0 c0 t0
    else if ok0 then pick p0 c0 t0
    else if ok1 then pick p1 c1 t1
    else None
  end

let unfused_traffic pair s1 s2 =
  (Cost.eval pair.op1 s1).total + (Cost.eval pair.op2 s2).total
