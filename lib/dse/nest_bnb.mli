(** Exact branch-and-bound mapper over a projective nest's tiling
    lattice — {!Bnb} generalized beyond the 3-dim matmul space.

    Admissible cuts: monotone-footprint block-skips per level, and
    [Fusecu_nest.Bound.penalized_in] (the conflict-graph generalization
    of the pairwise-exclusion bound, compiled once per search) at every
    partial assignment, each open axis's trips bounded through
    [Fusecu_nest.Search.largest_fit] (the footprint is affine in one
    axis's tile) and each assigned axis's written once, when it is
    assigned. The footprint is multi-affine in the tiles, so an open
    axis's slope is affine in the current level's tile: a level
    computes it at the level's tiles 1 and 2 and every child's bound
    reads it from there. Leaves replay
    [Fusecu_nest.Search.eval_tiling], which prices a tiling once per
    loop-order class and keeps a [Fusecu_nest.Search.incumbent] with no
    cost record, so the result — schedule, cost, tiling index and
    order rank — is {e bit-for-bit} the one
    [Fusecu_nest.Search.exhaustive] returns on the same lattice and
    capacity, its cost record built once, for the winner; only the
    visit counters differ. An off-lattice or invalid [seed] is
    discarded rather than trusted. Each search
    compiles its own space and bound; the only state concurrent
    searches share is [Search]'s memo of order-class tables, which a
    mutex guards and nobody mutates, so any domain or thread may
    search at any time. *)

open Fusecu_loopnest
open Fusecu_nest

val search :
  ?lattice:Search.lattice -> ?seed:Nest.schedule -> Nest.t -> Buffer.t ->
  Search.result option

val search_with_stats :
  ?lattice:Search.lattice -> ?seed:Nest.schedule -> Nest.t -> Buffer.t ->
  Search.result option * Bnb.stats
(** [stats.explored] counts cost evaluations (matching
    [result.evaluated]); [stats.nodes] counts expanded partial
    assignments. *)
