open Fusecu_tensor

type per_operand = { fetches : int; traffic : int; revisit : int }

type t = { a : per_operand; b : per_operand; c : per_operand; total : int }

let revisit op (s : Schedule.t) operand =
  let trips d = Schedule.trips op s d in
  let free = Operand.free_dim operand in
  if trips free = 1 then 1
  else begin
    let d1, d2 = Operand.dims operand in
    let effective_pos d = if trips d > 1 then Some (Order.position s.order d) else None in
    match (effective_pos d1, effective_pos d2) with
    | None, None -> 1
    | Some p, None | None, Some p ->
      if Order.position s.order free < p then trips free else 1
    | Some p1, Some p2 ->
      if Order.position s.order free < max p1 p2 then trips free else 1
  end

let eval_operand op s operand =
  let r = revisit op s operand in
  let d1, d2 = Operand.dims operand in
  let size = Matmul.dim op d1 * Matmul.dim op d2 in
  let fetches = r * Schedule.trips op s d1 * Schedule.trips op s d2 in
  { fetches; traffic = r * size; revisit = r }

let eval ?(partial_sum_penalty = false) op s =
  let a = eval_operand op s Operand.A in
  let b = eval_operand op s Operand.B in
  let c = eval_operand op s Operand.C in
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
