(** Non-Redundant-Access (NRA) dataflow classes — the paper's taxonomy of
    matmul dataflows by how many operand tensors avoid redundant memory
    access (Sec. III-A). *)

open Fusecu_tensor
open Fusecu_loopnest

type t = Single | Two | Three

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val all : t list

(** A fully-specified dataflow shape within a class. *)
type dataflow =
  | Single_nra of { stationary : Operand.t }
      (** Only the stationary tensor is accessed once. *)
  | Two_nra of { untiled : Dim.t; redundant : Operand.t }
      (** One dimension is untiled; exactly one tensor (the [redundant]
          one) is refetched. *)
  | Three_nra of { resident : Operand.t }
      (** Both dims of [resident] are untiled (the tensor is held
          entirely on-chip); every tensor is accessed once. *)

val all_dataflows : dataflow list
(** Every dataflow shape: 3 Single-, 9 Two- and 3 Three-NRA. *)

val class_of : dataflow -> t

val pp_dataflow : Format.formatter -> dataflow -> unit

val dataflow_to_string : dataflow -> string

val classify : Matmul.t -> Schedule.t -> dataflow
(** Recover the dataflow shape of an arbitrary schedule from its access
    behaviour: the NRA count gives the class, the untiled dimensions and
    the redundant operand give the details. When several operands are
    fully resident the smallest is reported. *)
