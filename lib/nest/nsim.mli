(** Resident-tile simulation of a nest schedule, of any rank and with
    window (halo) projections. On the matmul lowering
    ({!Lower.of_matmul}) it is the simulator [Fusecu_loopnest.Cost] is
    checked against ([Fusecu_oracle.Check.simulate]). Cost is
    O({!points}); callers bound it before simulating large
    problems. *)

val points : Nest.t -> Nest.schedule -> int

val eval : Nest.t -> Nest.schedule -> Nest.cost
(** Must equal [Nest.eval] on every schedule (the oracle's simulation
    leg enforces it). *)
