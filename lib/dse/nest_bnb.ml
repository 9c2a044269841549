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
     trip-count lower bounds (exact trips once an axis is assigned; an
     open axis's from its largest fitting tile, which
     [Search.largest_fit] finds from the node's own footprint and the
     footprint's slope in that axis).

   Leaves replay [Search.eval_tiling], so the incumbent ordering is
   exactly the exhaustive scan's (total, tiling index, order rank)
   first-seen minimum and the returned result is bit-identical to
   [Search.exhaustive_in] on the same space (locked by test_dse.ml).
   The space and the bound are compiled per search and hold its
   scratch, so nothing is shared between searches or domains. *)

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
  (* Fewest trips the axis can make anywhere in this subtree, given
     the node's footprint [fp] (every open axis at tile 1). *)
  let trips_lb ~fp axis =
    let e = nest.Nest.extents.(axis) in
    if idx.(axis) >= 0 then Arith.ceil_div e tiles.(axis)
    else begin
      let j = Search.largest_fit sp ~tiles ~base:fp axis in
      if j < 0 then e
      else Arith.ceil_div e (Search.candidates sp axis).(j)
    end
  in
  let bound = Bound.compile nest in
  let lb_trips = Array.make n 1 in
  let lower_bound ~fp =
    for axis = 0 to n - 1 do
      lb_trips.(axis) <- trips_lb ~fp axis
    done;
    Bound.penalized_in bound ~trips:lb_trips
  in
  (* Incumbent in Search's (cost, tiling index, order rank, schedule)
     shape so leaves share [Search.eval_tiling]'s exact tie-break. *)
  let best = ref None in
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
        let cost = Nest.eval nest s in
        c.c_evaluated <- c.c_evaluated + 1;
        best := Some (cost, Search.tiling_index sp cand_idx, rank, s)
    end);
  (* Minimum tiling index of the subtree: [Search.tiling_index] counts
     unassigned (-1) axes at candidate 0. Any completion indexes at or
     beyond it, so at equal bound the subtree cannot beat an incumbent
     with a smaller index. *)
  let prunable lb =
    match !best with
    | None -> false
    | Some ((bc : Nest.cost), bti, _, _) ->
      lb > bc.Nest.total
      || (lb = bc.Nest.total && Search.tiling_index sp idx > bti)
  in
  (* impact = external bytes an axis touches; assigning high-impact
     axes first makes partial bounds tight early *)
  let impact axis =
    List.fold_left
      (fun acc x ->
        if List.mem axis (Nest.used_axes x) then acc + Nest.tensor_size nest x
        else acc)
      0 (Nest.externals nest)
  in
  let axes_by_impact =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (impact b) (impact a))
         (List.init n Fun.id))
  in
  let rec node depth =
    if depth = n then begin
      c.c_explored <- c.c_explored + 1;
      c.c_evaluated <-
        c.c_evaluated + Search.eval_tiling sp ~idxs:idx ~tiles best
    end
    else begin
      let axis = axes_by_impact.(depth) in
      let a = Search.candidates sp axis in
      let len = Array.length a in
      let j = ref 0 and live = ref true in
      while !live && !j < len do
        idx.(axis) <- !j;
        tiles.(axis) <- a.(!j);
        let fp = Nest.footprint_tiles nest tiles in
        if fp > capacity then begin
          c.c_pruned_infeasible <- c.c_pruned_infeasible + (len - !j);
          live := false
        end
        else if prunable (lower_bound ~fp) then
          c.c_pruned_bound <- c.c_pruned_bound + 1
        else begin
          c.c_nodes <- c.c_nodes + 1;
          node (depth + 1)
        end;
        incr j
      done;
      idx.(axis) <- -1;
      tiles.(axis) <- 1
    end
  in
  node 0;
  ( Option.map
      (fun (cost, ti, rank, schedule) ->
        { Search.schedule;
          cost;
          tiling_index = ti;
          order_rank = rank;
          explored = c.c_explored;
          evaluated = c.c_evaluated })
      !best,
    { Bnb.nodes = c.c_nodes;
      explored = c.c_evaluated;
      pruned_bound = c.c_pruned_bound;
      pruned_infeasible = c.c_pruned_infeasible } )

let search ?lattice ?seed nest buf =
  fst (search_with_stats ?lattice ?seed nest buf)
