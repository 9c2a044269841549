(** The Fig. 4 catalog: every way two matmuls can be fused, and which
    of them are profitable.

    The paper derives fusibility from the three ways an intra-operator
    dataflow avoids redundant access to the intermediate tensor —
    keeping it stationary, untiling one of its dimensions, or holding
    it entirely on-chip — and marks fusions between equal NRA classes
    as profitable (green arrows) and cross-class fusions as possible
    but non-profitable (red arrows). This module enumerates that
    catalog as data, so the figure can be regenerated and its structure
    asserted in tests. *)

(** How an operator's dataflow protects the intermediate tensor. *)
type method_ =
  | Keep_stationary  (** method 1: the tensor is the stationary one *)
  | Untile_dimension  (** method 2: one of its dims is untiled *)
  | Hold_entirely  (** method 3: the whole tensor stays in the buffer *)

val methods_available : Nra.t -> method_ list
(** Which methods an NRA class offers (paper Sec. III-B1):
    Single → stationary; Two → stationary or untiled;
    Three → untiled or entire. *)

type arrow = {
  producer_class : Nra.t;
  producer_method : method_;
  consumer_class : Nra.t;
  consumer_method : method_;
  profitable : bool;  (** green (same class) vs red (cross class) *)
}

val arrows : arrow list
(** Every fusable combination: the cartesian product of the classes'
    methods, with compatible method pairs only (both sides must protect
    the shared tensor the same way, or one holds it entirely). *)

val green : arrow list
(** The profitable subset — the arrows FuseCU's mappings implement. *)

val red : arrow list

val mapping_for : arrow -> [ `Tile_fusion | `Column_fusion ] option
(** The Sec. IV-A mapping a profitable arrow uses ([None] for red
    arrows): stationary/entire intermediates map as tile fusion,
    untiled-dimension intermediates as column fusion. *)

val method_name : method_ -> string
