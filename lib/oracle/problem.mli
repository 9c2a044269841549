(** A randomly generated (or user-specified) conformance problem: one
    matmul, a producer/consumer pair, or a three-operator chain, plus a
    buffer size in elements.

    Problems round-trip through a compact [key=value] spec
    ([m=7,k=3,l=4,l2=2,bs=16]) so every counterexample in a CI log is a
    one-liner away from reproduction:
    [fusecu_opt check --repro m=7,k=3,l=4,l2=2,bs=16]. *)

open Fusecu_tensor
open Fusecu_loopnest

type shape =
  | Single
  | Pair of { l2 : int }  (** consumer [C(M,L) x D(L,l2)] *)
  | Chain3 of { l2 : int; l3 : int }

type t = { m : int; k : int; l : int; shape : shape; bs : int }

val op1 : t -> Matmul.t

val ops : t -> Matmul.t list

val pair : t -> Fused.pair option
(** The fused pair, for [Pair] problems. *)

val chain : t -> Chain.t option
(** The operator chain, for [Chain3] problems. *)

val buffer : t -> Buffer.t

val to_spec : t -> string

val of_spec : string -> (t, string) result
(** Parse [m=..,k=..,l=..,bs=..[,l2=..[,l3=..]]] (any field order). *)

val equal : t -> t -> bool

val size : t -> int * int * int
(** Shrinking order: (operator count, dimension sum, buffer size),
    compared lexicographically. *)

val proposals : t -> t list
(** Strictly simpler variants of a problem, simplest first: drop
    operators, shrink each dimension (to 1, half, minus one), shrink
    the buffer (to 3, half, minus one, and the regime anchors below
    it). *)
