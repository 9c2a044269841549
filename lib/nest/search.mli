(** Tiling lattice and exhaustive schedule search over a nest.

    Mirrors [Dse.Space]/[Dse.Exhaustive]: candidate tiles per axis
    from the chosen lattice, feasibility = tile footprint within the
    buffer capacity (in elements), enumeration with axis 0 slowest and
    the last axis fastest, and a first-seen
    (total, tiling index, order rank) minimum — so on the matmul
    instance the winner is the legacy exhaustive winner (same tiles,
    same cost) bit-for-bit. Per tiling, the loop orders are the
    permutations of the active (trips > 1) axes in lexicographic
    order, inactive axes innermost (which never changes any cost);
    an order's rank is its place in that sequence ({!orders}).

    A tiling is priced per order {e class}, not per order: an order's
    cost depends on it only through each external tensor's revisit
    mask ([Nest.revisit_mask]), so for each active-axis set there is one
    table of the number of revisit-free orders and the classes of equal
    masks, each at its lowest rank, less every class whose masks contain
    another class's with one strictly larger (it costs strictly more at
    every such tiling). {!eval_tiling} then returns the same count and
    the same incumbent as pricing every order.

    A table depends only on the nest's structure (its rank, and each
    tensor's used axes and whether it is internal, in tensor order) and
    on the active set, so it is compiled once per process, on first use,
    into a memo behind one mutex. A [space] holds that per-search table,
    which reads the memo only when it misses, and scratch arrays for the
    leaves: use one space per search, on one thread. A search's
    running best is an {!incumbent}: its (total, tiling index, order
    rank), its tiles and its class's order, with no cost record;
    {!result_of} builds the winner's, once. *)

type lattice = All | Divisors | Pow2

val tile_candidates : lattice -> int -> int list

type space

val compile : ?lattice:lattice -> Nest.t -> capacity:int -> space
(** [lattice] defaults to [Divisors]; [capacity] is in elements. *)

val nest_of : space -> Nest.t

val capacity : space -> int

val candidates : space -> int -> int array
(** Increasing tile candidates for one axis. *)

val raw_tilings : space -> int

val tiling_index : space -> int array -> int
(** Raw index of a tiling from per-axis candidate indices. A negative
    entry (an unassigned axis) counts as 0, which gives the subtree
    minimum for partial assignments. Allocates nothing. *)

val candidate_trips : space -> int -> int array
(** Trip counts of {!candidates}: [ceil (extent / tile)] for each. *)

val largest_fit : space -> base:int -> slope:int -> int -> int
(** [largest_fit sp ~base ~slope axis]: the largest candidate index of
    [axis] whose tile [t] keeps [base + (t - 1) * slope] within the
    capacity, or -1 when none does. With the other tiles held the
    footprint is affine in one axis's tile, so given its value [base] at
    tile 1 and its step [slope] per tile ([Nest.footprint_tiles] at
    tile 2 less [base]) this is the candidate a scan of
    [Nest.footprint_tiles] finds: a binary search over the candidates.
    Allocates nothing. *)

val orders : space -> trips:int array -> int array list
(** Every loop order for a tiling with the given trip counts, in rank
    order. The reference enumeration: it is built afresh on each call,
    and {!eval_tiling} does not use it. *)

type result = {
  schedule : Nest.schedule;
  cost : Nest.cost;
  tiling_index : int;
  order_rank : int;
  explored : int;  (** feasible tilings *)
  evaluated : int;  (** valid schedules cost-evaluated *)
}

type incumbent = private {
  mutable total : int;
  mutable tiling_index : int;
  mutable order_rank : int;
  tiles : int array;  (** the incumbent's own buffer *)
  mutable order : int array;
      (** the winning class's order, shared with the order tables:
          read it, never write it *)
}
(** A search's running best. It carries no cost record: {!result_of}
    builds one, once, for the winner. While empty, its total, tiling
    index and order rank are [max_int] and its order is empty. *)

val incumbent : space -> incumbent
(** A fresh, empty incumbent for searches over [space]. *)

val offer :
  incumbent ->
  total:int ->
  tiling_index:int ->
  order_rank:int ->
  tiles:int array ->
  order:int array ->
  unit
(** Replaces the incumbent iff (total, tiling index, order rank) is
    strictly smaller than its own: the first-seen minimum of a scan.
    [tiles] is copied into the incumbent's buffer; [order] is kept by
    reference, so the caller must not write it afterwards. *)

val eval_tiling : space -> idxs:int array -> tiles:int array -> incumbent -> int
(** Price one complete tiling against the running best (shared with
    [Dse.Nest_bnb]'s leaves so both searches apply the identical
    tie-break); returns the number of revisit-free orders, the
    schedules pricing every order would evaluate. [idxs] must index
    [tiles] in {!candidates}. Computes the trip counts (from
    {!candidate_trips}) and [Nest.sweeps] once for the tiling, into the
    space's scratch, then one total per order class, and {!offer}s the
    tiling's first (total, rank) minimum with its class's order. No
    cost record is built. The incumbent is the one a scan of every
    order of {!orders} leaves. *)

val result_of : space -> incumbent -> explored:int -> evaluated:int -> result option
(** [None] while the incumbent is empty. Otherwise the winner, with
    its cost record from [Nest.eval], on a schedule of fresh copies of
    the incumbent's tiles and order. *)

val exhaustive_in : space -> result option

val exhaustive : ?lattice:lattice -> Nest.t -> capacity:int -> result option
(** [None] when no feasible valid schedule exists. *)
