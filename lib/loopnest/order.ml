open Fusecu_tensor

type t = { outer : Dim.t; mid : Dim.t; inner : Dim.t }

let make ~outer ~mid ~inner =
  if Dim.equal outer mid || Dim.equal mid inner || Dim.equal outer inner then
    invalid_arg "Order.make: dimensions must be distinct";
  { outer; mid; inner }

let all =
  let open Dim in
  [ { outer = M; mid = K; inner = L };
    { outer = M; mid = L; inner = K };
    { outer = K; mid = M; inner = L };
    { outer = K; mid = L; inner = M };
    { outer = L; mid = M; inner = K };
    { outer = L; mid = K; inner = M } ]

let by_index = Array.of_list all

let of_index i = by_index.(i)

(* [all] lists the outer loop M, K, L in pairs, and within a pair the
   order whose mid loop comes first in M, K, L. *)
let index t =
  let rank = function Dim.M -> 0 | Dim.K -> 1 | Dim.L -> 2 in
  (2 * rank t.outer) + if rank t.mid > rank t.inner then 1 else 0

let position t d =
  if Dim.equal d t.outer then 1
  else if Dim.equal d t.mid then 2
  else 3

let dims t = [ t.outer; t.mid; t.inner ]

let stationary_for operand =
  let free = Operand.free_dim operand in
  List.filter (fun t -> Dim.equal t.inner free) all

let transpose_ml t =
  let swap = function Dim.M -> Dim.L | Dim.L -> Dim.M | Dim.K -> Dim.K in
  { outer = swap t.outer; mid = swap t.mid; inner = swap t.inner }

let equal a b =
  Dim.equal a.outer b.outer && Dim.equal a.mid b.mid && Dim.equal a.inner b.inner

let to_string t =
  Printf.sprintf "%s>%s>%s" (Dim.to_string t.outer) (Dim.to_string t.mid)
    (Dim.to_string t.inner)

let pp fmt t = Format.pp_print_string fmt (to_string t)
