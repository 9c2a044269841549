(** Generic communication lower bounds for projective nests. *)

val min_sweep : Nest.t -> Nest.tensor -> int
(** Minimum achievable one-sweep traffic of a tensor over the whole
    tiling lattice. Equal to [Nest.tensor_size] for pure-[Point]
    tensors; strictly less for a skipping window (stride beyond the
    dilated kernel span), where a coarse tiling touches fewer
    elements than the window span. *)

val ideal : Nest.t -> int
(** Unbounded-buffer bound: the sum of the external tensors' minimal
    sweeps (each must cross the memory boundary at least once per
    run). On the matmul instance this is exactly
    [Fusecu_core.Lower_bound.intra] = [Matmul.ideal_ma] (locked by
    test_nest.ml). *)

type t
(** A nest's bound, compiled once: {!ideal}, each external tensor's
    {!min_sweep}, its used and free axis masks and its free axes. It
    also holds {!penalized_in}'s scratch, so one [t] serves one search
    on one domain. *)

val compile : Nest.t -> t

val penalized_in : t -> trips:int array -> int
(** Admissible branch-and-bound cut given per-axis lower bounds on the
    trip counts: [ideal] plus the conflict-graph revisit penalties
    that no loop order can avoid (crossed-free-index exclusion,
    adversary keeps the max-weight independent set free). Reduces to
    [Dse.Bnb]'s pairwise-exclusion bound on matmul. Allocates
    nothing: each member's penalty is computed once per call into the
    scratch, walking its free axes only until one reaches the floor of
    2 trips, and two tensors conflict when each one's tiled free axes
    meet the other's used axes, two mask intersections. *)

val penalized : Nest.t -> trips:int array -> int
(** [penalized_in (compile t) ~trips]. *)
