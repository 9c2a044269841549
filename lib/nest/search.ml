open Fusecu_util

(* Tiling space and exhaustive search over a nest, mirroring
   Dse.Space/Exhaustive so the MM instance enumerates the same points
   in the same order (axis 0 slowest, last axis fastest; and for an
   all-active 3-index nest the lexicographic permutations are exactly
   Order.all's sequence). Only the relative order of loops with more
   than one trip affects cost, so per tiling the loop orders are the
   permutations of the *active* (trips > 1) axes, completed with the
   inactive axes innermost in axis order, and they are priced once per
   class of equal revisit masks. The winner is the lexicographic
   minimum of (total, tiling index, order rank) — the streaming
   first-seen rule, which Nest_bnb reproduces exactly. *)

type lattice = All | Divisors | Pow2

let tile_candidates lattice size =
  match lattice with
  | All -> Arith.range 1 size
  | Divisors -> Arith.divisors size
  | Pow2 -> Arith.dedup_sorted (size :: Arith.pow2s_upto size)

(* The loop orders of one active-axis set, compiled for pricing. An
   order's cost at any tiling with this active set depends on it only
   through each external tensor's revisit mask (Nest.revisit_mask), so
   the orders fall into classes of equal masks; a class is priced once,
   as the first order of its rank. *)
type order_class = {
  rank : int;
  order : int array;
  terms : int array;
      (** for each external tensor in turn: the number of axes in its
          revisit mask, then those axes *)
}

type table = {
  valid : int;  (** revisit-free orders: what pricing them all counts *)
  classes : order_class array;  (** the classes that can win, by rank *)
}

module Int_tbl = Hashtbl.Make (Int)

(* Keyed on an [int array]: the equality is spelled out so that it
   compiles to integer compares. *)
module Ints_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    Array.length a = Array.length b && go (Array.length a - 1)

  let hash a = Array.fold_left (fun h m -> (h * 65599) + m) 0 a land max_int
end)

type space = {
  nest : Nest.t;
  capacity : int;
  cands : int array array;
  cand_trips : int array array;  (** [ceil (extent / tile)] per candidate *)
  strides : int array;
  ext : int array;  (** the external tensors' indices in [tensors] *)
  key : int array;
      (** the process-wide memo's key: slot 0 for the active mask, then
          the rank and each tensor's used mask and internal flag *)
  tables : table Int_tbl.t;  (** by active-axis mask, filled on first use *)
  trips : int array;  (** leaf scratch *)
  sweeps : int array;  (** leaf scratch *)
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
  let ext =
    List.filter_map Fun.id
      (List.mapi (fun x t -> if t.Nest.internal then None else Some x) nest.Nest.tensors)
  in
  let key =
    Array.of_list
      (0 :: n
      :: List.concat
           (List.mapi
              (fun x t -> [ Nest.used_mask nest x; Bool.to_int t.Nest.internal ])
              nest.Nest.tensors))
  in
  { nest;
    capacity;
    cands;
    cand_trips =
      Array.mapi (fun i a -> Array.map (Arith.ceil_div nest.Nest.extents.(i)) a) cands;
    strides;
    ext = Array.of_list ext;
    key;
    tables = Int_tbl.create 16;
    trips = Array.make n 1;
    sweeps = Array.make (List.length nest.Nest.tensors) 0 }

let nest_of sp = sp.nest

let capacity sp = sp.capacity

let candidates sp i = sp.cands.(i)

let candidate_trips sp i = sp.cand_trips.(i)

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

(* With the other tiles held, the footprint is affine in one axis's
   tile (Nest.footprint_tiles): fp(t) = base + (t - 1) * slope, so
   candidate [t] fits iff t <= 1 + (capacity - base) / slope. *)
let largest_fit sp ~base ~slope axis =
  if base > sp.capacity then -1
  else begin
    let limit = if slope = 0 then max_int else 1 + ((sp.capacity - base) / slope) in
    let a = sp.cands.(axis) in
    (* the largest j with a.(j) <= limit; a.(0) = 1 <= limit *)
    let lo = ref 0 and hi = ref (Array.length a) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= limit then lo := mid else hi := mid
    done;
    !lo
  end

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

(* The active axes in increasing order, and the inactive ones. *)
let split_axes n active =
  let axes = List.init n Fun.id in
  let on i = active land (1 lsl i) <> 0 in
  (Array.of_list (List.filter on axes), Array.of_list (List.filter (fun i -> not (on i)) axes))

let orders sp ~trips =
  let active, inactive = split_axes (Nest.rank sp.nest) (Nest.active_mask trips) in
  let rec from_sorted acc =
    let acc = Array.append active inactive :: acc in
    if next_permutation active then from_sorted acc else List.rev acc
  in
  from_sorted []

(* Walks the orders of [active] in rank order ([orders]' sequence),
   counts the revisit-free ones and keeps the first of each mask tuple.
   Then drops every class whose masks contain another's, one strictly:
   every active trip is at least 2 and every sweep at least 1, so at
   every tiling with this active set it costs strictly more. What is
   left holds, at every such tiling, the first (total, rank) minimum of
   all the revisit-free orders. *)
let compile_table sp active =
  let nest = sp.nest in
  let perm, inactive = split_axes (Nest.rank nest) active in
  let e = Array.length sp.ext in
  let seen = Ints_tbl.create 64 in
  let key = Array.make e 0 in
  let found = ref [] and valid = ref 0 and rank = ref 0 and more = ref true in
  while !more do
    if Nest.revisit_free nest ~active ~order:perm then begin
      incr valid;
      for j = 0 to e - 1 do
        key.(j) <- Nest.revisit_mask nest sp.ext.(j) ~active ~order:perm
      done;
      if not (Ints_tbl.mem seen key) then begin
        let masks = Array.copy key in
        Ints_tbl.add seen masks ();
        found := (masks, !rank, Array.append perm inactive) :: !found
      end
    end;
    incr rank;
    more := next_permutation perm
  done;
  let found = List.rev !found in
  let contains big small =
    let rec go j = j < 0 || (small.(j) land lnot big.(j) = 0 && go (j - 1)) in
    go (e - 1)
  in
  let dominated (m, r, _) =
    List.exists (fun (m', r', _) -> r' <> r && contains m m') found
  in
  let axes m = List.filter (fun i -> m land (1 lsl i) <> 0) (List.init (Nest.rank nest) Fun.id) in
  let order_class (masks, rank, order) =
    let terms =
      List.concat_map (fun m -> List.length (axes m) :: axes m) (Array.to_list masks)
    in
    { rank; order; terms = Array.of_list terms }
  in
  { valid = !valid;
    classes =
      Array.of_list (List.map order_class (List.filter (fun c -> not (dominated c)) found)) }

(* A table reads the nest only through its rank, each tensor's used
   mask and which tensors are internal ([Nest.revisit_mask] and
   [Nest.revisit_free]), so it is a pure function of [sp.key] and the
   active set, and one process-wide memo serves every search. A search
   looks there only when its own table misses, once per active set it
   meets, so every other leaf takes no lock; tables are never mutated
   once built. *)
let memo : table Ints_tbl.t = Ints_tbl.create 64

let memo_lock = Mutex.create ()

let table sp active =
  match Int_tbl.find_opt sp.tables active with
  | Some t -> t
  | None ->
    let key = Array.copy sp.key in
    key.(0) <- active;
    let t =
      Mutex.protect memo_lock (fun () ->
          match Ints_tbl.find_opt memo key with
          | Some t -> t
          | None ->
            let t = compile_table sp active in
            Ints_tbl.add memo key t;
            t)
    in
    Int_tbl.add sp.tables active t;
    t

type result = {
  schedule : Nest.schedule;
  cost : Nest.cost;
  tiling_index : int;
  order_rank : int;
  explored : int;  (** feasible tilings *)
  evaluated : int;  (** valid schedules cost-evaluated *)
}

(* The running best of a search: its (total, tiling index, order rank),
   its tiles in a buffer of its own and its class's order, shared with
   the table and never written. An empty one sits at [max_int] on all
   three keys, so the first offer replaces it and no bound prunes
   against it. No cost record is built until [result_of]. *)
type incumbent = {
  mutable total : int;
  mutable tiling_index : int;
  mutable order_rank : int;
  tiles : int array;
  mutable order : int array;
}

let incumbent sp =
  { total = max_int;
    tiling_index = max_int;
    order_rank = max_int;
    tiles = Array.make (Nest.rank sp.nest) 1;
    order = [||] }

(* The first-seen minimum of (total, tiling index, order rank): a
   candidate replaces the incumbent only when strictly smaller. Shared
   by the exhaustive scan and Nest_bnb's leaves so both return the same
   schedule bit-for-bit. *)
let offer inc ~total ~tiling_index ~order_rank ~tiles ~order =
  if total < inc.total
     || (total = inc.total
        && (tiling_index < inc.tiling_index
           || (tiling_index = inc.tiling_index && order_rank < inc.order_rank)))
  then begin
    inc.total <- total;
    inc.tiling_index <- tiling_index;
    inc.order_rank <- order_rank;
    Array.blit tiles 0 inc.tiles 0 (Array.length inc.tiles);
    inc.order <- order
  end

(* Trips and sweeps once per tiling into the space's scratch, one total
   per order class; the tiling's first (total, rank) minimum then meets
   the incumbent once, as the last of its orders would have. *)
let eval_tiling sp ~idxs ~tiles inc =
  let nest = sp.nest in
  let trips = sp.trips and sweeps = sp.sweeps in
  for i = 0 to Array.length trips - 1 do
    trips.(i) <- sp.cand_trips.(i).(idxs.(i))
  done;
  let tb = table sp (Nest.active_mask trips) in
  if Array.length tb.classes > 0 then begin
    Nest.fill_sweeps nest ~trips sweeps;
    let bt = ref max_int and bc = ref 0 in
    for c = 0 to Array.length tb.classes - 1 do
      let terms = tb.classes.(c).terms in
      let total = ref 0 and p = ref 0 in
      for j = 0 to Array.length sp.ext - 1 do
        let k = terms.(!p) in
        let r = ref sweeps.(sp.ext.(j)) in
        for q = !p + 1 to !p + k do
          r := !r * trips.(terms.(q))
        done;
        total := !total + !r;
        p := !p + k + 1
      done;
      if !total < !bt then begin
        bt := !total;
        bc := c
      end
    done;
    let c = tb.classes.(!bc) in
    offer inc ~total:!bt ~tiling_index:(tiling_index sp idxs) ~order_rank:c.rank ~tiles
      ~order:c.order
  end;
  tb.valid

(* The winner's cost record, built once per search, on a schedule of
   fresh arrays: the class's order stays unreachable to callers. *)
let result_of sp inc ~explored ~evaluated =
  if Array.length inc.order = 0 then None
  else begin
    let schedule = { Nest.tiles = Array.copy inc.tiles; order = Array.copy inc.order } in
    Some
      { schedule;
        cost = Nest.eval sp.nest schedule;
        tiling_index = inc.tiling_index;
        order_rank = inc.order_rank;
        explored;
        evaluated }
  end

let exhaustive_in sp =
  let nest = sp.nest in
  let n = Nest.rank nest in
  let tiles = Array.make n 1 in
  let idxs = Array.make n 0 in
  let best = incumbent sp in
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
  result_of sp best ~explored:!explored ~evaluated:!evaluated

let exhaustive ?lattice nest ~capacity =
  exhaustive_in (compile ?lattice nest ~capacity)
