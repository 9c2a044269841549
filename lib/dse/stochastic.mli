(** Scaffolding shared by the stochastic search baselines ({!Genetic}
    and the GA half of {!Fused_search}).

    Both draw index tuples into the per-dimension candidate lattices,
    mutate by a half-local / half-restart step and track the first
    strict minimum seen. This module holds those pieces once so the
    baselines stay small and cannot drift apart; they remain in the
    tree as the Fig. 9 DSE stand-ins and benchmark lower bars only — the
    production mapper is {!Bnb}.

    Every helper is RNG-transparent: it makes exactly the [Random.State]
    draws its original inlined version made, in the same sequence, so
    the refactoring preserves each baseline's historical results
    bit-for-bit (locked by the determinism tests in [test_dse]). *)

open Fusecu_tensor
open Fusecu_loopnest

type arrays = {
  ms : int array;
  ks : int array;
  ls : int array;
  orders : Order.t array;
}
(** Per-dimension candidate tiles (increasing) plus the loop orders, as
    arrays for O(1) indexed access by genomes / walk states. *)

val arrays : Space.lattice -> Matmul.t -> arrays

val schedule_of :
  arrays -> Matmul.t -> im:int -> ik:int -> il:int -> iorder:int -> Schedule.t
(** Decode an index tuple into a schedule. *)

val nudge : Random.State.t -> len:int -> int -> int
(** One mutation step on an index in [\[0, len)]: a local move ([+-1],
    clamped) or a uniform restart, half/half. Makes two or three RNG
    draws — identical to the historical [bump]/[jiggle] inner step. *)

type ('a, 'score) tally = {
  mutable evaluations : int;
  mutable best : ('a * 'score) option;
}
(** Evaluation counter plus running optimum. [note] keeps the {e first}
    strict minimum (ties keep the earlier candidate), matching the
    deterministic first-seen rule used across the DSE searches. *)

val tally : unit -> ('a, 'score) tally

val tick : ('a, 'score) tally -> unit

val note : ('a, 'score) tally -> 'a -> 'score -> unit

val canonical :
  oriented:(Matmul.t -> Buffer.t -> Exhaustive.result option) ->
  Matmul.t -> Buffer.t -> Exhaustive.result option
(** Run a search on the canonical M<->L orientation ([m <= l]) and map
    the result back, so an operator and its transpose get bit-identical
    outcomes instead of two unrelated random walks. *)
