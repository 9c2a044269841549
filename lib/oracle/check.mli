(** The matmul oracle's checks: three-way differential conformance, run
    on one {!Problem.t}:

    - {e principles vs exhaustive}: the one-shot principle plan must hit
      the exhaustive-search optimum over the full tiling space (and
      agree on feasibility);
    - {e analytic vs simulated}: [Cost.eval] must equal {!simulate}
      per operand (traffic, fetches, revisit) on the chosen plan and on
      random ragged schedules;
    - {e vs lower bounds}: traffic never below the unbounded bound, and
      in the [Large] regime exactly equal to it;
    - {e fusion} (pair problems): [Best_of_both] equals the exhaustive
      fused-vs-unfused verdict, a [Fuse] decision simulates to its
      analytic traffic, never loses to its own unfused baseline, and
      the [By_principle] gate deviates only when the classes differ;
    - {e chains} (three-operator problems): whole-chain decisions
      validate, never lose to pairwise planning, respect the fused
      lower bound, and the analytic chain traffic equals the simulated
      traffic of the external operands.

    All of the above builds plans with [Mode.Exact] and takes its
    ground truth from the full [Space.All] lattice. Two more legs hold
    the principles to the optimum on the other lattices the server
    offers: [Mode.Divisors] plans against [Space.Divisors], and
    [Mode.Pow2] plans against [Space.Pow2]. Each leg checks intra
    feasibility and optimality against {!Fusecu_dse.Exhaustive.search},
    [Best_of_both] against {!Fusecu_dse.Fused_search.decide}, and runs
    the chain checks in its mode; its check names carry the mode
    ([op1/pow2/optimal], [fuse/divisors/optimal], [chain/pow2/valid]). *)

type mapper =
  | Principles  (** the default check set *)
  | Bnb
      (** additionally assert, on the Exact leg, that
          {!Fusecu_dse.Bnb} seeded from the principle plan reproduces the
          exhaustive optimum bit-for-bit (feasibility, traffic and
          schedule), both intra-operator ([opN/bnb-exact]) and fused
          ([fuse/bnb-exact]) *)

val simulate :
  Fusecu_tensor.Matmul.t -> Fusecu_loopnest.Schedule.t -> Fusecu_loopnest.Cost.t
(** The nest simulator ({!Fusecu_nest.Nsim.eval}) on the operator's
    matmul lowering ({!Fusecu_nest.Lower.of_matmul}, the schedule
    translated by {!Fusecu_nest.Lower.schedule_of_mm}), in {!Cost.eval}'s
    shape: its tensors A, B and C are the operands [a], [b] and [c]. It
    walks every tile iteration, so use it on small operators only. *)

val oracle : mapper -> Problem.t Oracle.t
(** The default [check] oracle: problems from {!Gen.problem} (dimensions
    up to 24 unless [--max-dim] says otherwise), shrunk by
    {!Problem.proposals}, specs from {!Problem.to_spec}. Its report
    tallies the cases by shape ([shapes]: single, pair, chain3) and by
    the producer's buffer regime ([regimes (op1)]). *)
