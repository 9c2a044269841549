(** Tiling lattice and exhaustive schedule search over a nest.

    Mirrors [Dse.Space]/[Dse.Exhaustive]: candidate tiles per axis
    from the chosen lattice, feasibility = tile footprint within the
    buffer capacity (in elements), enumeration with axis 0 slowest and
    the last axis fastest, and a first-seen
    (total, tiling index, order rank) minimum — so on the matmul
    instance the winner is the legacy exhaustive winner (same tiles,
    same cost) bit-for-bit. Per tiling, only permutations of the
    active (trips > 1) axes are enumerated; inactive axes sit
    innermost, which never changes any cost. *)

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

val orders : space -> trips:int array -> int array list
(** Loop orders to evaluate for a tiling with the given trip counts,
    in rank order (memoized per active-axis set). *)

type result = {
  schedule : Nest.schedule;
  cost : Nest.cost;
  tiling_index : int;
  order_rank : int;
  explored : int;  (** feasible tilings *)
  evaluated : int;  (** valid schedules cost-evaluated *)
}

val eval_tiling :
  space ->
  idxs:int array ->
  tiles:int array ->
  (Nest.cost * int * int * Nest.schedule) option ref ->
  int
(** Evaluate every valid order of one complete tiling against the
    running best (shared with [Dse.Nest_bnb]'s leaves so both searches
    apply the identical tie-break); returns the number of schedules
    evaluated. Computes the trip counts and [Nest.sweeps] once for the
    tiling and only [Nest.revisit_free] and [Nest.total] per order;
    [Nest.eval] builds the cost record only for a candidate that beats
    the incumbent, i.e. whose (total, tiling index, order rank) is
    strictly smaller. *)

val exhaustive_in : space -> result option

val exhaustive : ?lattice:lattice -> Nest.t -> capacity:int -> result option
(** [None] when no feasible valid schedule exists. *)
