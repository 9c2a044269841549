open Fusecu_loopnest
open Fusecu_util
open Fusecu_nest

(* Branch-and-bound over a nest's tiling lattice — Bnb generalized from
   the 3-dim matmul space to arbitrary-rank projective nests. The tree
   assigns axes depth-first in decreasing traffic impact, with the same
   two admissible devices:

   - monotone-footprint cuts (candidates increasing, unassigned axes at
     tile 1, first overflow rules out the rest of the level);
   - [Bound.penalized_in] at every partial assignment, the bound
     compiled once per search and fed one reused array of per-axis
     trip-count lower bounds: an axis's exact trips, written when it is
     assigned, and each open axis's from its largest fitting tile,
     refreshed at every bound.

   The footprint is affine in one axis's tile with the others held, so
   a node's footprint (every open axis at tile 1) and its slope in an
   open axis give that axis's largest fitting tile
   ([Search.largest_fit]). It is affine in each tile separately, so an
   open axis's slope is affine in the current level's tile: a level
   computes each open axis's slope at its own tiles 1 and 2, and every
   child's bound reads its slopes from those two. The next level's
   axis is one of them, so its candidates' footprints are
   [base + (t - 1) * slope] and its feasible candidates are those up
   to [largest_fit].

   Leaves replay [Search.eval_tiling], so the incumbent ordering is
   exactly the exhaustive scan's (total, tiling index, order rank)
   first-seen minimum and the returned result is bit-identical to
   [Search.exhaustive_in] on the same space (locked by test_dse.ml).
   The incumbent holds no cost record; [Search.result_of] builds the
   winner's once the tree is done.
   The space and the bound are compiled per search and hold its
   scratch; the order-class tables they read are immutable and shared
   through [Search]'s memo. *)

type counters = {
  mutable c_nodes : int;
  mutable c_explored : int;
  mutable c_evaluated : int;
  mutable c_pruned_bound : int;
  mutable c_pruned_infeasible : int;
}

let search_with_stats ?(lattice = Search.Divisors) ?seed nest buf =
  Trace.with_span ~cat:"bnb" "nest_bnb.search" @@ fun () ->
  let capacity = Buffer.elements buf in
  let sp = Search.compile ~lattice nest ~capacity in
  let n = Nest.rank nest in
  let c =
    { c_nodes = 0;
      c_explored = 0;
      c_evaluated = 0;
      c_pruned_bound = 0;
      c_pruned_infeasible = 0 }
  in
  (* Assigned candidate index per axis, -1 = unassigned; [tiles] mirrors
     it with unassigned axes at 1 so [Nest.footprint_tiles] sees the
     minimal completion. *)
  let idx = Array.make n (-1) in
  let tiles = Array.make n 1 in
  (* impact = external elements an axis touches; assigning high-impact
     axes first makes partial bounds tight early *)
  let impact = Array.make n 0 in
  List.iteri
    (fun x (t : Nest.tensor) ->
      if not t.Nest.internal then begin
        let size = Nest.tensor_size nest t and used = Nest.used_mask nest x in
        for axis = 0 to n - 1 do
          if used land (1 lsl axis) <> 0 then impact.(axis) <- impact.(axis) + size
        done
      end)
    nest.Nest.tensors;
  let axes_by_impact =
    Array.of_list
      (List.stable_sort
         (fun a b -> Int.compare impact.(b) impact.(a))
         (List.init n Fun.id))
  in
  (* The footprint's step per tile of [axis] (at tile 1, footprint
     [base]) with the other tiles held. *)
  let slope_of ~base axis =
    tiles.(axis) <- 2;
    let slope = Nest.footprint_tiles nest tiles - base in
    tiles.(axis) <- 1;
    slope
  in
  let bound = Bound.compile nest in
  let lb_trips = Array.make n 1 in
  (* Per level, row [depth]: each open axis's slope at the level's tile
     1 and its step per tile, at column [d] for the axis of depth [d]. *)
  let slope1 = Array.make (n * n) 0 and dslope = Array.make (n * n) 0 in
  (* The footprint is affine in each tile with the others held, so an
     open axis's slope is affine in the level's tile [t]:
     [slope1 + (t - 1) * dslope], from two slopes per open axis, at the
     level's tile 1 and 2 (the second only if a tile beyond 1 fits). *)
  let level_slopes ~depth ~base ~slope ~last axis =
    let row = depth * n in
    for d = depth + 1 to n - 1 do
      let b = axes_by_impact.(d) in
      let s1 = slope_of ~base b in
      slope1.(row + d) <- s1;
      if last > 0 then begin
        tiles.(axis) <- 2;
        dslope.(row + d) <- slope_of ~base:(base + slope) b - s1;
        tiles.(axis) <- 1
      end
    done
  in
  (* The bound below the level's child at tile [t], footprint [fp]
     (which fits): the axes of deeper levels are open, and each gets
     the trips of its largest fitting tile (at least tile 1); every
     assigned axis already holds its exact trips. *)
  let lower_bound ~depth ~t ~fp =
    let row = depth * n in
    for d = depth + 1 to n - 1 do
      let axis = axes_by_impact.(d) in
      let slope = slope1.(row + d) + ((t - 1) * dslope.(row + d)) in
      lb_trips.(axis) <-
        (Search.candidate_trips sp axis).(Search.largest_fit sp ~base:fp ~slope axis)
    done;
    Bound.penalized_in bound ~trips:lb_trips
  in
  (* The incumbent is Search's, so leaves share [Search.eval_tiling]'s
     exact tie-break; its cost record is built once, for the result. *)
  let best = Search.incumbent sp in
  (match seed with
  | None -> ()
  | Some (s : Nest.schedule) ->
    (* Only an in-space seed may become the incumbent: every tile on
       the lattice, the order one of the active-perm completions, the
       footprint within capacity, internals revisit-free. *)
    let cand_idx = Array.make n (-1) in
    let on_lattice =
      Array.for_all (fun i -> i >= 0)
        (Array.mapi
           (fun i tile ->
             let a = Search.candidates sp i in
             let rec find j =
               if j >= Array.length a then -1
               else if a.(j) = tile then j
               else find (j + 1)
             in
             let j = find 0 in
             cand_idx.(i) <- j;
             j)
           s.Nest.tiles)
    in
    if on_lattice && Buffer.fits buf (Nest.footprint nest s) && Nest.valid nest s
    then begin
      let trips = Nest.trips_of nest s.Nest.tiles in
      let order = s.Nest.order in
      let rec rank_of r = function
        | [] -> None
        | o :: tl ->
          if Array.length o = Array.length order && Array.for_all2 Int.equal o order
          then Some r
          else rank_of (r + 1) tl
      in
      match rank_of 0 (Search.orders sp ~trips) with
      | None -> ()
      | Some rank ->
        c.c_evaluated <- c.c_evaluated + 1;
        Search.offer best ~total:(Nest.eval nest s).Nest.total
          ~tiling_index:(Search.tiling_index sp cand_idx) ~order_rank:rank
          ~tiles:s.Nest.tiles ~order
    end);
  (* Minimum tiling index of the subtree: [Search.tiling_index] counts
     unassigned (-1) axes at candidate 0. Any completion indexes at or
     beyond it, so at equal bound the subtree cannot beat an incumbent
     with a smaller index. An empty incumbent prunes nothing. *)
  let prunable lb =
    lb > best.Search.total
    || (lb = best.Search.total && Search.tiling_index sp idx > best.Search.tiling_index)
  in
  (* The node at [depth] has footprint [base] and the given slope in
     its own axis, so its feasible candidates are a prefix. *)
  let rec node depth ~base ~slope =
    if depth = n then begin
      c.c_explored <- c.c_explored + 1;
      c.c_evaluated <-
        c.c_evaluated + Search.eval_tiling sp ~idxs:idx ~tiles best
    end
    else begin
      let axis = axes_by_impact.(depth) in
      let a = Search.candidates sp axis and trips = Search.candidate_trips sp axis in
      let last = Search.largest_fit sp ~base ~slope axis in
      c.c_pruned_infeasible <- c.c_pruned_infeasible + (Array.length a - 1 - last);
      level_slopes ~depth ~base ~slope ~last axis;
      for j = 0 to last do
        let t = a.(j) in
        idx.(axis) <- j;
        tiles.(axis) <- t;
        lb_trips.(axis) <- trips.(j);
        let fp = base + ((t - 1) * slope) in
        if prunable (lower_bound ~depth ~t ~fp) then
          c.c_pruned_bound <- c.c_pruned_bound + 1
        else begin
          c.c_nodes <- c.c_nodes + 1;
          let next = (depth * n) + depth + 1 in
          let slope =
            if depth + 1 < n then slope1.(next) + ((t - 1) * dslope.(next)) else 0
          in
          node (depth + 1) ~base:fp ~slope
        end
      done;
      idx.(axis) <- -1;
      tiles.(axis) <- 1
    end
  in
  (let base = Nest.footprint_tiles nest tiles in
   node 0 ~base ~slope:(slope_of ~base axes_by_impact.(0)));
  ( Search.result_of sp best ~explored:c.c_explored ~evaluated:c.c_evaluated,
    { Bnb.nodes = c.c_nodes;
      explored = c.c_evaluated;
      pruned_bound = c.c_pruned_bound;
      pruned_infeasible = c.c_pruned_infeasible } )

let search ?lattice ?seed nest buf =
  fst (search_with_stats ?lattice ?seed nest buf)
