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

(* The integer-tile kernel. A fused dataflow whose C tiles agree is
   fixed by producer tiles (tm, tk1, tl), consumer tiles (tm, tl, tl2)
   and two order indices; both sides' trip counts follow from the
   tiles, and every condition above is read from them and from the
   revisit table. *)

let producer_m_major = Array.init 6 (fun i -> m_major_producer (Order.of_index i))

let consumer_m_major = Array.init 6 (fun i -> m_major_consumer (Order.of_index i))

let tiles_footprint ~tm ~tk1 ~tl ~tl2 =
  (tm * tk1) + (tk1 * tl) + (tm * tl) + ((tm * tl) + (tl * tl2) + (tm * tl2)) - (tm * tl)

(* C is resident on both sides exactly when it is on the producer's:
   op2's M and K are op1's M and L. *)
let tiles_resident pair ~tm ~tl = tm >= pair.op1.m && tl >= pair.op1.l

(* A side's traffic under an order whose revisit set is [r], or -1 when
   it revisits C. On each side C is the operand of bit [c]; the other
   two, of bits [x] and [y], move [x1] and [y1] elements when read once
   and [xn] and [yn] when revisited (their size times their free
   dimension's trip count). *)
let side_traffic r ~c ~x ~x1 ~xn ~y ~y1 ~yn =
  if r land c <> 0 then -1
  else (if r land x = 0 then x1 else xn) + if r land y = 0 then y1 else yn

(* Each side's traffic by order index, from the tiles: the producer
   moves A1 and B1, the consumer D (its B) and E (its C). op2's M and K
   are op1's M and L, and so are their trip counts. *)
let sides pair ~tm ~tk1 ~tl ~tl2 =
  let { op1; op2 } = pair in
  let nm1 = Cost.trip op1.m tm and nk1 = Cost.trip op1.k tk1 and nl1 = Cost.trip op1.l tl in
  let nm2 = nm1 and nk2 = nl1 and nl2 = Cost.trip op2.l tl2 in
  let a = op1.m * op1.k and b = op1.k * op1.l and d = op2.k * op2.l and e = op2.m * op2.l in
  let bit = Cost.operand_bit in
  ( (fun i ->
      side_traffic (Cost.table_revisits nm1 nk1 nl1 i) ~c:(bit Operand.C) ~x:(bit Operand.A)
        ~x1:a ~xn:(a * nl1) ~y:(bit Operand.B) ~y1:b ~yn:(b * nm1)),
    fun i ->
      side_traffic (Cost.table_revisits nm2 nk2 nl2 i) ~c:(bit Operand.A) ~x:(bit Operand.B)
        ~x1:d ~xn:(d * nm2) ~y:(bit Operand.C) ~y1:e ~yn:(e * nk2) )

let eval_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity o1 o2 =
  if
    tiles_footprint ~tm ~tk1 ~tl ~tl2 > capacity
    || not (tiles_resident pair ~tm ~tl || producer_m_major.(o1) = consumer_m_major.(o2))
  then -1
  else begin
    let producer, consumer = sides pair ~tm ~tk1 ~tl ~tl2 in
    let p = producer o1 and c = consumer o2 in
    if p < 0 || c < 0 then -1 else p + c
  end

(* No order of the class keeps C non-redundant. *)
let none = 7

(* One side's first cheapest order in each C-order class, packed as
   [i0 + 8 * i1] ([none] for an empty class): class 0 is C M-major, or
   every order when C is resident; class 1 the rest. *)
let side_best traffic ~m_major ~resident =
  let i0 = ref none and t0 = ref 0 and i1 = ref none and t1 = ref 0 in
  for i = 0 to 5 do
    let t = traffic i in
    if t >= 0 then
      if resident || m_major.(i) then begin
        if !i0 = none || t < !t0 then begin
          i0 := i;
          t0 := t
        end
      end
      else if !i1 = none || t < !t1 then begin
        i1 := i;
        t1 := t
      end
  done;
  !i0 + (8 * !i1)

(* Within a C-order class the cheapest pair is the two sides' first
   cheapest orders; across the classes a tie goes to the earlier
   producer order. That is the first minimum of the o1-major scan over
   all 36 pairs. *)
let best_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity =
  if tiles_footprint ~tm ~tk1 ~tl ~tl2 > capacity then -1
  else begin
    let resident = tiles_resident pair ~tm ~tl in
    let producer, consumer = sides pair ~tm ~tk1 ~tl ~tl2 in
    let p = side_best producer ~m_major:producer_m_major ~resident in
    let c = side_best consumer ~m_major:consumer_m_major ~resident in
    let p0 = p land 7 and p1 = p lsr 3 and c0 = c land 7 and c1 = c lsr 3 in
    let ok0 = p0 <> none && c0 <> none and ok1 = p1 <> none && c1 <> none in
    if ok0 && ok1 then begin
      let t0 = producer p0 + consumer c0 and t1 = producer p1 + consumer c1 in
      if t1 < t0 || (t1 = t0 && p1 < p0) then (6 * p1) + c1 else (6 * p0) + c0
    end
    else if ok0 then (6 * p0) + c0
    else if ok1 then (6 * p1) + c1
    else -1
  end

let of_tiles pair ~tm ~tk1 ~tl ~tl2 o1 o2 =
  { producer = Schedule.make (Tiling.make pair.op1 ~m:tm ~k:tk1 ~l:tl) (Order.of_index o1);
    consumer = Schedule.make (Tiling.make pair.op2 ~m:tm ~k:tl ~l:tl2) (Order.of_index o2) }

let best_orders pair ~(producer : Tiling.t) ~(consumer : Tiling.t) buf =
  if not (tiles_agree producer consumer) then None
  else begin
    let tm = producer.m and tk1 = producer.k and tl = producer.l and tl2 = consumer.l in
    let capacity = Buffer.elements buf in
    match best_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity with
    | -1 -> None
    | b ->
      let o1 = b / 6 and o2 = b mod 6 in
      Some
        ( { producer = Schedule.make producer (Order.of_index o1);
            consumer = Schedule.make consumer (Order.of_index o2) },
          eval_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity o1 o2 )
  end

let unfused_traffic pair s1 s2 =
  (Cost.eval pair.op1 s1).total + (Cost.eval pair.op2 s2).total
