(* Order statistics over float samples that [Fusecu_util.Stats] does not
   have, and its summaries made total: a metric with no samples (a
   layer the workload never reaches) reads 0. *)

let or_zero f = function [] -> 0. | l -> f l

let median = or_zero Fusecu_util.Stats.median

let mean = or_zero Fusecu_util.Stats.mean

let geomean = or_zero Fusecu_util.Stats.geomean

let sum l = List.fold_left ( +. ) 0. l

let ratio a b = if b = 0. then 0. else a /. b

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; 0 on no samples. *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* First and third quartile exactly as Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method), so the
   spreads printed by [--repeat] match a recomputation in Python. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
