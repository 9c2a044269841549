(** A loop order: the scheduling half of a dataflow (Fig. 2(b)).

    Orders are permutations of the three matmul dimensions, listed from
    the outermost to the innermost tile loop. The paper's notation
    ["1(K)"] (loop level 1 = innermost on K) corresponds to [inner = K]
    here. *)

open Fusecu_tensor

type t = private { outer : Dim.t; mid : Dim.t; inner : Dim.t }

val make : outer:Dim.t -> mid:Dim.t -> inner:Dim.t -> t
(** Raises [Invalid_argument] unless the three dims are distinct. *)

val all : t list
(** All six loop orders. *)

val index : t -> int
(** The order's position in {!all}, from 0. Planners that price many
    candidates carry an order as this index. *)

val of_index : int -> t
(** [of_index i] is the [i]-th order of {!all} ([0 <= i < 6]). *)

val position : t -> Dim.t -> int
(** 1 for the outermost loop, 3 for the innermost. *)

val dims : t -> Dim.t list
(** Outer-to-inner dimension list. *)

val stationary_for : Operand.t -> t list
(** The orders that keep the given operand stationary in the classic
    sense: its free dimension is the innermost loop. E.g.
    [stationary_for C] are the two output-stationary orders (inner =
    K). *)

val transpose_ml : t -> t
(** Swap the roles of [M] and [L] at every loop level — the loop-order
    half of the [Matmul.transpose] symmetry. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [M>L>K] outer-to-inner. *)

val to_string : t -> string
