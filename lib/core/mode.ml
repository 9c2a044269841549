open Fusecu_util

type t = Exact | Divisors | Pow2

type lattice = { mode : t; size : int; points : int array }

let lattice mode size =
  if size < 1 then invalid_arg "Mode.lattice: size must be >= 1";
  let points =
    match mode with
    | Exact -> [||]
    | Divisors -> Array.of_list (Arith.divisors size)
    | Pow2 ->
      let pow2s = Arith.pow2s_upto size in
      Array.of_list (if Arith.is_pow2 size then pow2s else pow2s @ [ size ])
  in
  { mode; size; points }

(* The index of the largest point <= target; points.(0) = 1 <= target. *)
let floor_index points (target : int) =
  let lo = ref 0 and hi = ref (Array.length points) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if points.(mid) <= target then lo := mid else hi := mid
  done;
  !lo

let quantize lat target =
  let target = Arith.clamp ~lo:1 ~hi:lat.size target in
  if target = lat.size then lat.size
  else
    match lat.mode with
    | Exact -> target
    | Divisors | Pow2 -> lat.points.(floor_index lat.points target)

let rank lat t =
  match lat.mode with
  | Exact -> invalid_arg "Mode.rank: the Exact lattice has no points"
  | Divisors | Pow2 -> floor_index lat.points t

let snap lat target =
  let q = quantize lat target in
  match lat.mode with
  | Exact -> Arith.ceil_div lat.size (Arith.ceil_div lat.size q)
  | Divisors | Pow2 -> q

let pp fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Divisors -> Format.pp_print_string fmt "divisors"
  | Pow2 -> Format.pp_print_string fmt "pow2"
