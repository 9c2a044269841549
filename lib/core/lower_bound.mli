(** Communication lower bounds the principles target, and redundancy
    metrics relative to them. *)

open Fusecu_tensor
open Fusecu_loopnest

val intra : Matmul.t -> int
(** Unbounded-buffer lower bound for a single operator: every tensor
    accessed once ([MK + KL + ML]). *)

val chain_unfused : Chain.t -> int
(** Lower bound when every operator in a chain runs separately. *)

val chain_fused : Chain.t -> int
(** Lower bound when every intermediate stays on-chip. *)

val achieved : Matmul.t -> Buffer.t -> Mode.t -> int
(** Traffic of the principle-optimized intra dataflow — the paper's
    claimed buffer-constrained communication lower bound. Raises on an
    infeasible buffer. *)

val redundancy : Matmul.t -> Buffer.t -> Mode.t -> float
(** [achieved / intra]: 1.0 when the unbounded bound is met. *)
