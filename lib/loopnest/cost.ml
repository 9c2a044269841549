open Fusecu_tensor

type per_operand = { fetches : int; traffic : int; revisit : int }

type t = { a : per_operand; b : per_operand; c : per_operand; total : int }

type trips = { nm : int; nk : int; nl : int }

(* [ceil (d / t)], without a division for the untiled and the unit
   tile, which most principle candidates have. *)
let trip d t = if t >= d then 1 else if t = 1 then d else (d + t - 1) / t

let trips (op : Matmul.t) (t : Tiling.t) =
  { nm = trip op.m t.m; nk = trip op.k t.k; nl = trip op.l t.l }

let trip_of n = function Dim.M -> n.nm | Dim.K -> n.nk | Dim.L -> n.nl

(* The one revisit rule; allocation-free (no closures, int compares). *)
let revisit_at n (o : Order.t) operand =
  let free = Operand.free_dim operand in
  let nf = trip_of n free in
  if nf = 1 then 1
  else begin
    let d1, d2 = Operand.dims operand in
    let p1 = if trip_of n d1 > 1 then Order.position o d1 else 0 in
    let p2 = if trip_of n d2 > 1 then Order.position o d2 else 0 in
    if Order.position o free < (if p1 > p2 then p1 else p2) then nf else 1
  end

let traffic_at op n o operand = revisit_at n o operand * Matmul.operand_size op operand

let total_at op n o =
  traffic_at op n o Operand.A + traffic_at op n o Operand.B + traffic_at op n o Operand.C

(* The revisit table: [revisits.(8 * i + p)] is the set of operands
   (A = 1, B = 2, C = 4) that order [i] of [Order.all] revisits when the
   dimensions whose trip count exceeds 1 are those of pattern [p]
   (M = 1, K = 2, L = 4). [revisit_at] reads trips only through that
   pattern (and the free dimension's count, which is the revisit factor
   when the operand is revisited), so the table is built from it. *)
let operand_bit = function Operand.A -> 1 | Operand.B -> 2 | Operand.C -> 4

let revisits =
  Array.init 48 (fun j ->
      let p = j land 7 in
      let n = { nm = 1 + (p land 1); nk = 1 + ((p lsr 1) land 1); nl = 1 + (p lsr 2) } in
      let o = Order.of_index (j lsr 3) in
      List.fold_left
        (fun acc x -> if revisit_at n o x > 1 then acc lor operand_bit x else acc)
        0 Operand.all)

let table_revisits nm nk nl i =
  revisits.((8 * i)
            + (if nm > 1 then 1 else 0)
            + (if nk > 1 then 2 else 0)
            + if nl > 1 then 4 else 0)

let table_total (op : Matmul.t) nm nk nl i =
  let r = table_revisits nm nk nl i in
  ((if r land 1 = 0 then 1 else nl) * (op.m * op.k))
  + ((if r land 2 = 0 then 1 else nm) * (op.k * op.l))
  + ((if r land 4 = 0 then 1 else nk) * (op.m * op.l))

let revisit op (s : Schedule.t) operand = revisit_at (trips op s.tiling) s.order operand

let eval_operand op n (s : Schedule.t) operand =
  let r = revisit_at n s.order operand in
  let d1, d2 = Operand.dims operand in
  { fetches = r * trip_of n d1 * trip_of n d2;
    traffic = r * Matmul.operand_size op operand;
    revisit = r }

let eval ?(partial_sum_penalty = false) op (s : Schedule.t) =
  let n = trips op s.tiling in
  let a = eval_operand op n s Operand.A in
  let b = eval_operand op n s Operand.B in
  let c = eval_operand op n s Operand.C in
  let c =
    if partial_sum_penalty && c.revisit > 1 then
      { c with traffic = Matmul.operand_size op Operand.C * ((2 * c.revisit) - 1) }
    else c
  in
  { a; b; c; total = a.traffic + b.traffic + c.traffic }

(* Each operand's size times its free dimension's extent is m * k * l. *)
let max_total (op : Matmul.t) =
  Fusecu_util.Arith.(mul_sat 3 (mul_sat op.m (mul_sat op.k op.l)))

let operand t = function Operand.A -> t.a | Operand.B -> t.b | Operand.C -> t.c

let is_nra op s operand = revisit op s operand = 1

let nra_operands op s = List.filter (is_nra op s) Operand.all

let nra_count op s = List.length (nra_operands op s)

let pp fmt t =
  let pp_one fmt (name, (o : per_operand)) =
    Format.fprintf fmt "%s: %s (x%d)" name
      (Fusecu_util.Units.pp_count o.traffic)
      o.revisit
  in
  Format.fprintf fmt "@[MA %s [%a; %a; %a]@]"
    (Fusecu_util.Units.pp_count t.total)
    pp_one ("A", t.a) pp_one ("B", t.b) pp_one ("C", t.c)
