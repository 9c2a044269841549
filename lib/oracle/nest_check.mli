(** The nest oracle ([check --nests]): differential conformance for the
    projective loop-nest IR, run by the {!Oracle} driver.

    Each generated problem is one of {!Fusecu_nest.Lower.kind}'s five
    kinds (matmul, conv2d, batched MM, grouped MM, attention pair) plus
    a buffer budget. The checks:

    - [nest/bnb-exact] — {!Fusecu_dse.Nest_bnb.search} reproduces
      {!Fusecu_nest.Search.exhaustive} bit-for-bit on the Divisors
      lattice: same feasibility verdict, cost, tiling index, order
      rank, tiles and order;
    - [nest/analytic-sim] — {!Fusecu_nest.Nest.eval} equals
      {!Fusecu_nest.Nsim.eval} per tensor on the winner and on random
      lattice schedules (skipped above a simulation points cap);
    - [nest/bound-ideal], [nest/bound-admissible] — the winner never
      beats [Bound.ideal], and [Bound.penalized] at the winner's actual
      trips stays at or below its cost;
    - [nest/leaf-scan] — on the winning tiling,
      {!Fusecu_nest.Search.eval_tiling} (one order per class) counts
      the same revisit-free orders, and finds the same first
      (total, rank) minimum, as a scan of every
      {!Fusecu_nest.Search.orders} order through [Nest.valid] and
      [Nest.eval];
    - [nest/winner-valid], [nest/winner-fits];
    - [nest/legacy-exact] (matmul only) — the nest winner matches the
      legacy {!Fusecu_dse.Exhaustive} optimum in cost and tiles;
    - [nest/conv-macs], [nest/conv-im2col-ideal] (conv only) — the
      iteration count equals [Conv.macs] and the halo-exact input
      lower bound never exceeds the im2col-inflated one.

    Failures shrink toward smaller dimensions and buffers. *)

type problem = { kind : Fusecu_nest.Lower.kind; bs : int }
(** [bs] is the buffer budget in bytes (1-byte elements). *)

val to_spec : problem -> string
(** Canonical one-line form, e.g.
    [kind=conv,n=1,c=2,h=6,w=6,k=3,r=3,s=3,st=1,di=1,pa=0,bs=64].
    [kind] is [mm], [conv], [bmm], [gmm] or [attn]; grouped MM writes
    its groups and heads as [g] and [hd], attention its sequence
    lengths as [q] and [n]. *)

val of_spec : string -> (problem, string) result
(** Inverse of {!to_spec}; [st]/[di]/[pa]/[dv] are optional. *)

val oracle : problem Oracle.t
(** Problems with dimensions up to [min max_dim 12] (default 12; rank-7
    conv ground truth stays exhaustive). Conv parameters are sampled
    avoid-but-test style: raw draws may violate the output-shape
    constraints and are filtered through [Conv.validate], so the oracle
    soaks only valid operators while the unit tests pin rejection of
    the invalid ones. The report tallies cases [by kind]. *)
