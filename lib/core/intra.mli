(** One-shot intra-operator dataflow optimization (Principles 1–3 plus
    the regime-based dataflow choice of Sec. III-A4).

    [optimize] prices the principle candidate set and returns the best
    schedule — no design-space search. The set is bounded by the tile
    lattice ({!Principles}): O(sqrt D) candidates on [Exact],
    O(number of divisors) on [Divisors], O(log D) on [Pow2]. *)

open Fusecu_tensor
open Fusecu_loopnest

type plan = {
  op : Matmul.t;
  schedule : Schedule.t;
  cost : Cost.t;
  dataflow : Nra.dataflow;  (** classified from the actual schedule *)
  regime : Regime.t;
}

val candidates : ?mode:Mode.t -> Matmul.t -> Buffer.t -> Principles.candidate list
(** The full principle candidate set ({!Principles.all}); [mode]
    defaults to [Exact]. *)

val optimize : ?mode:Mode.t -> Matmul.t -> Buffer.t -> (plan, string) result
(** Pick the candidate with the least memory traffic (ties broken by
    smaller buffer footprint, then by candidate order). It folds the
    candidate stream ({!Principles.iter}) into that first minimum,
    pricing each candidate's integer tiles on {!Cost.table_total},
    without a list or the builders' first-occurrence filters (a
    repeated candidate cannot displace its first occurrence); only the
    winner's {!Schedule.t} and {!Cost.t} are built. The fold stops once
    its incumbent moves [MK + KL + ML] with footprint
    {!Regime.three_min_footprint}: nothing later can displace it
    (DESIGN.md Sec. 4d), so the answer is the same as the full scan's.
    [Error] when no candidate fits the buffer (capacity below 3
    elements). *)

val optimize_exn : ?mode:Mode.t -> Matmul.t -> Buffer.t -> plan

val ma : plan -> int
(** Total element traffic of a plan. *)

val redundancy : plan -> float
(** Ratio of achieved traffic to the unbounded-buffer lower bound
    [ideal_ma]; 1.0 means the communication lower bound is met. *)

val pp_plan : Format.formatter -> plan -> unit
