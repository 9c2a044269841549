open Fusecu_tensor
open Fusecu_util

type t = Exact | Divisors | Pow2

let quantize mode op d target =
  let size = Matmul.dim op d in
  let target = Arith.clamp ~lo:1 ~hi:size target in
  if target = size then size
  else
    match mode with
    | Exact -> target
    | Divisors ->
      List.fold_left (fun acc v -> if v <= target then max acc v else acc) 1
        (Arith.divisors size)
    | Pow2 ->
      List.fold_left (fun acc v -> if v <= target then max acc v else acc) 1
        (Arith.pow2s_upto target)

let snap mode op d target =
  let q = quantize mode op d target in
  match mode with
  | Exact ->
    let size = Matmul.dim op d in
    Arith.ceil_div size (Arith.ceil_div size q)
  | Divisors | Pow2 -> q

let pp fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Divisors -> Format.pp_print_string fmt "divisors"
  | Pow2 -> Format.pp_print_string fmt "pow2"
