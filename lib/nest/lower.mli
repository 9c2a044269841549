(** Lowerings of the tensor operators into projective nests.

    The matmul lowering (axes [m;k;l], operands A(m,k), B(k,l),
    C(m,l)) is the bridge to the legacy stack: {!dim_axis} and
    {!schedule_of_mm} translate [Tiling]/[Order] schedules so the
    regression suite can lock cost equality bit-for-bit. *)

open Fusecu_tensor
open Fusecu_loopnest

val of_matmul : Matmul.t -> Nest.t

val dim_axis : Dim.t -> int
(** [M -> 0], [K -> 1], [L -> 2]. *)

val schedule_of_mm : Nest.t -> tiling:Tiling.t -> order:Order.t -> Nest.schedule
(** Translate a legacy matmul schedule onto [of_matmul]'s axes. *)

val of_chain : Chain.t -> Nest.t
(** Whole chain as one fused nest: axes [m; d0; ...; dn], weights
    external, every intermediate [C_i] ([i < last]) internal
    (Principle 4 — valid schedules keep them revisit-free). *)

val of_conv : Conv.t -> Nest.t
(** Direct (im2col-free) conv2d: axes [n; ko; oh; ow; c; r; s]; the
    input activation uses [Window] projections (halo overlap), so its
    traffic is not inflated the way the im2col lowering's is. The
    input tensor models the {e padded} activation. *)

val of_conv_im2col : Conv.t -> Nest.t
(** [of_matmul (Conv.to_matmul cv)] — the inflated baseline. *)

val batched_mm : ?name:string -> b:int -> m:int -> k:int -> l:int -> unit -> Nest.t
(** [C\[b,m,l\] = A\[b,m,k\] x B\[b,k,l\]]. *)

val grouped_mm :
  ?name:string -> groups:int -> heads:int -> m:int -> k:int -> l:int -> unit ->
  Nest.t
(** Grouped-query pattern: per-(group, head) [A] and [C], one shared
    [B] per group (free in the head axis). *)

val attention_pair :
  ?name:string -> ?dv:int -> seq_q:int -> seq_k:int -> d:int -> unit -> Nest.t
(** The score x value pair [S = Q.K^T; O = S.V] as one fused nest with
    the score matrix [S(m,n)] internal. [dv] defaults to [d]. *)

(** {1 The five nest kinds} *)

(** The operators the [nest] service op and the [check --nests] oracle
    lower, with the dimensions each is built from. *)
type kind =
  | N_matmul of { m : int; k : int; l : int }
  | N_conv2d of Conv.t
  | N_batched_mm of { b : int; m : int; k : int; l : int }
  | N_grouped_mm of { groups : int; heads : int; m : int; k : int; l : int }
  | N_attention of { seq_q : int; seq_k : int; d : int; dv : int }
      (** fused score x value pair: Q(seq_q,d) K(seq_k,d) V(seq_k,dv),
          scores internal (Principle-4 fused) *)

val of_kind : kind -> Nest.t
(** The kind's lowering: {!of_matmul}, {!of_conv}, {!batched_mm},
    {!grouped_mm} or {!attention_pair}. *)
