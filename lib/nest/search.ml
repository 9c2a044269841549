open Fusecu_util

(* Tiling space and exhaustive search over a nest, mirroring
   Dse.Space/Exhaustive so the MM instance enumerates the same points
   in the same order (axis 0 slowest, last axis fastest; and for an
   all-active 3-index nest the lexicographic permutations are exactly
   Order.all's sequence). Only the relative order of loops with more
   than one trip affects cost, so per tiling the search enumerates the
   permutations of the *active* (trips > 1) axes, completed with the
   inactive axes innermost in axis order. The winner is the
   lexicographic minimum of (total, tiling index, order rank) — the
   streaming first-seen rule, which Nest_bnb reproduces exactly. *)

type lattice = All | Divisors | Pow2

let tile_candidates lattice size =
  match lattice with
  | All -> Arith.range 1 size
  | Divisors -> Arith.divisors size
  | Pow2 -> Arith.dedup_sorted (size :: Arith.pow2s_upto size)

type space = {
  nest : Nest.t;
  capacity : int;
  cands : int array array;
  strides : int array;
  orders_cache : (int, int array list) Hashtbl.t;
}

let compile ?(lattice = Divisors) nest ~capacity =
  let n = Nest.rank nest in
  let cands =
    Array.init n (fun i ->
        Array.of_list (tile_candidates lattice nest.Nest.extents.(i)))
  in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * Array.length cands.(i + 1)
  done;
  { nest; capacity; cands; strides; orders_cache = Hashtbl.create 16 }

let nest_of sp = sp.nest

let capacity sp = sp.capacity

let candidates sp i = sp.cands.(i)

let raw_tilings sp = sp.strides.(0) * Array.length sp.cands.(0)

(* Candidate index per axis; a negative (unassigned) entry counts as
   candidate 0, which gives the subtree minimum, as in
   Bnb.min_subtree_idx. *)
let tiling_index sp idxs =
  let acc = ref 0 in
  for i = 0 to Array.length idxs - 1 do
    if idxs.(i) > 0 then acc := !acc + (idxs.(i) * sp.strides.(i))
  done;
  !acc

let swap p a b =
  let x = p.(a) in
  p.(a) <- p.(b);
  p.(b) <- x

(* Steps [p] to its lexicographic successor in place; false when [p]
   was the last (decreasing) permutation. *)
let next_permutation (p : int array) =
  let i = ref (Array.length p - 2) in
  while !i >= 0 && p.(!i) > p.(!i + 1) do
    decr i
  done;
  if !i < 0 then false
  else begin
    let j = ref (Array.length p - 1) in
    while p.(!j) < p.(!i) do
      decr j
    done;
    swap p !i !j;
    let lo = ref (!i + 1) and hi = ref (Array.length p - 1) in
    while !lo < !hi do
      swap p !lo !hi;
      incr lo;
      decr hi
    done;
    true
  end

let orders sp ~trips =
  let n = Nest.rank sp.nest in
  let mask = ref 0 in
  for i = 0 to n - 1 do
    if trips.(i) > 1 then mask := !mask lor (1 lsl i)
  done;
  match Hashtbl.find_opt sp.orders_cache !mask with
  | Some os -> os
  | None ->
    let axes = List.init n Fun.id in
    let active = Array.of_list (List.filter (fun i -> trips.(i) > 1) axes) in
    let inactive = Array.of_list (List.filter (fun i -> trips.(i) <= 1) axes) in
    let rec from_sorted acc =
      let acc = Array.append active inactive :: acc in
      if next_permutation active then from_sorted acc else List.rev acc
    in
    let os = from_sorted [] in
    Hashtbl.replace sp.orders_cache !mask os;
    os

type result = {
  schedule : Nest.schedule;
  cost : Nest.cost;
  tiling_index : int;
  order_rank : int;
  explored : int;  (** feasible tilings *)
  evaluated : int;  (** valid schedules cost-evaluated *)
}

(* The first-seen minimum of (total, tiling index, order rank): a
   candidate replaces the incumbent only when strictly smaller. Shared
   by the exhaustive scan and Nest_bnb's leaves so both return the same
   schedule bit-for-bit. *)
let beats best ~total ~(ti : int) ~(rank : int) =
  match best with
  | None -> true
  | Some ((bc : Nest.cost), bti, brank, _) ->
    let bt = bc.Nest.total in
    total < bt || (total = bt && (ti < bti || (ti = bti && rank < brank)))

(* Trips and sweeps once per tiling, only the revisit factors per
   order; the cost record is built only for a new incumbent. *)
let eval_tiling sp ~idxs ~tiles best =
  let nest = sp.nest in
  let ti = tiling_index sp idxs in
  let trips = Nest.trips_of nest tiles in
  let sweeps = Nest.sweeps nest ~trips in
  let rec go rank evaluated = function
    | [] -> evaluated
    | order :: rest ->
      if not (Nest.revisit_free nest ~trips ~order) then
        go (rank + 1) evaluated rest
      else begin
        let total = Nest.total nest ~sweeps ~trips ~order in
        if beats !best ~total ~ti ~rank then begin
          let s = { Nest.tiles = Array.copy tiles; order } in
          best := Some (Nest.eval nest s, ti, rank, s)
        end;
        go (rank + 1) (evaluated + 1) rest
      end
  in
  go 0 0 (orders sp ~trips)

let exhaustive_in sp =
  let nest = sp.nest in
  let n = Nest.rank nest in
  let tiles = Array.make n 1 in
  let idxs = Array.make n 0 in
  let best = ref None in
  let explored = ref 0 and evaluated = ref 0 in
  let rec go axis =
    if axis = n then begin
      incr explored;
      evaluated := !evaluated + eval_tiling sp ~idxs ~tiles best
    end
    else begin
      let a = sp.cands.(axis) in
      let j = ref 0 and live = ref true in
      while !live && !j < Array.length a do
        tiles.(axis) <- a.(!j);
        idxs.(axis) <- !j;
        (* axes beyond [axis] still sit at tile 1, so this is the
           minimal-completion footprint — monotone in the candidate,
           hence the first infeasible value rules out its larger
           siblings (the Space.fold_tiling_range block-skip). *)
        if Nest.footprint_tiles nest tiles > sp.capacity then live := false
        else go (axis + 1);
        incr j
      done;
      tiles.(axis) <- 1;
      idxs.(axis) <- 0
    end
  in
  go 0;
  Option.map
    (fun (cost, ti, rank, schedule) ->
      { schedule;
        cost;
        tiling_index = ti;
        order_rank = rank;
        explored = !explored;
        evaluated = !evaluated })
    !best

let exhaustive ?lattice nest ~capacity =
  exhaustive_in (compile ?lattice nest ~capacity)
