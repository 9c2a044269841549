open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type t = Tiny | Small | Medium | Large

let to_string = function
  | Tiny -> "tiny"
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let equal (a : t) b = a = b

type thresholds = { tiny_max : int; small_max : int; medium_max : int }

let three_min_footprint op =
  (* A Three-NRA dataflow keeps one operand fully resident with both of
     its dims untiled and minimizes the remaining tile to 1, so its
     footprint is exactly [size + d1 + d2] (one row and one column of
     the other two tensors alongside the resident one). The cheapest
     choice over the three operands is the exact feasibility threshold
     of the Large regime. *)
  List.fold_left
    (fun acc operand ->
      let d1, d2 = Operand.dims operand in
      let s1 = Matmul.dim op d1 and s2 = Matmul.dim op d2 in
      Int.min acc (Arith.add_sat (Arith.mul_sat s1 s2) (Arith.add_sat s1 s2)))
    max_int Operand.all

let thresholds op =
  let _, dmin = Matmul.min_dim op in
  let dmin2 = Arith.mul_sat dmin dmin in
  { tiny_max = dmin2 / 4;
    small_max = dmin2 / 2;
    medium_max = three_min_footprint op - 1 }

let classify op buf =
  let bs = Buffer.elements buf in
  let t = thresholds op in
  if bs <= t.tiny_max then Tiny
  else if bs <= t.small_max then Small
  else if bs <= t.medium_max then Medium
  else Large

let expected_classes = function
  | Tiny -> [ Nra.Single ]
  | Small -> [ Nra.Single; Nra.Two ]
  | Medium -> [ Nra.Single; Nra.Two ]
  | Large -> [ Nra.Three ]
