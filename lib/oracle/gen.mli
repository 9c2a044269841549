(** Seeded problem generator. Dimensions are biased small (ragged-edge
    territory, cheap exhaustive ground truth); buffer sizes are
    concentrated on the regime boundaries [Dmin^2/4], [Dmin^2/2] and
    the exact Three-NRA feasibility edge, each sampled at
    [edge - 1 / edge / edge + 1], plus the minimum feasible footprint
    and the unbounded-buffer cap, with a uniform backstop. *)

val problem : Rng.t -> max_dim:int -> Problem.t
