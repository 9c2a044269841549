(** Fusing chains of more than two operators.

    The paper handles longer chains by applying Principle 4 pairwise;
    when {e every} link is profitable the whole chain can run as one
    fused region with no intermediate touching memory. A middle
    operator must then keep both its input (the previous intermediate)
    and its output (the next one) free of redundant access, which pins
    it to an untiled-reduction dataflow with its weight tensor resident
    — the row-pipeline that FlashAttention-style kernels use: a block
    of [T_M] rows flows through the whole chain while all weights stay
    on-chip.

    This module gives the chain-wide validity conditions (composed from
    the pairwise conditions of {!Fusecu_loopnest.Fused}), the traffic
    and footprint of a full fusion, and a one-shot builder for the
    row-pipeline family. *)

open Fusecu_tensor
open Fusecu_loopnest

type t = private { schedules : Schedule.t list }
(** One schedule per chain operator, in order. *)

val make : Chain.t -> Schedule.t list -> (t, string) result
(** Checks the count matches the chain length. *)

val validate : Chain.t -> t -> (unit, string) result
(** Every adjacent pair must satisfy the pairwise fusibility conditions
    (non-redundant intermediate on both sides, consistent tiles,
    compatible orders). *)

val footprint : Chain.t -> t -> int
(** Peak buffer elements: all operators' tiles live simultaneously,
    with each shared intermediate tile counted once. *)

val traffic : Chain.t -> t -> int
(** Elements moved when the whole chain is fused: the first operator's
    inputs, every weight tensor, and the final output; intermediates
    are free. *)

val eval : Chain.t -> t -> Buffer.t -> (int, string) result
(** Validate (including the buffer bound) and return the traffic. *)

val row_pipeline : ?mode:Mode.t -> Chain.t -> Buffer.t -> t list
(** One-shot candidates for the row-pipeline family: all reduction
    dims untiled, all weight tensors resident, a shared row-block
    [T_M] maximized under the joint footprint (its integer
    neighbourhood, each rounded by {!Mode.snap} on [M]'s lattice,
    built once per call). Empty when the
    weights cannot all fit. *)

(** Whole-chain planning outcome. *)
type decision =
  | Full_fusion of { fused : t; traffic : int }
  | Fallback of Planner.plan
      (** pairwise planning (which may still fuse pairs) *)

val plan : ?mode:Mode.t -> Chain.t -> Buffer.t -> (decision, string) result
(** Fuse the whole chain when a valid full fusion moves less data than
    the pairwise plan; fall back to {!Planner.plan_chain} otherwise. *)

val traffic_of_decision : decision -> int
