(** Projective loop-nest IR (ROADMAP item 3).

    An iteration index set plus one projection map per tensor. Each
    tensor dimension is a direct index projection ([Point]) or a
    sliding window over an (outer, kernel) index pair ([Window] — the
    conv2d input pattern: dimension coordinate
    [outer*stride + kernel*dilation], so consecutive tiles overlap by
    the halo). The paper's matmul model is the 3-index instance with
    operands A(m,k), B(k,l), C(m,l); on it, [footprint], [eval] and
    the simulator are bit-identical to [Fusecu_loopnest]'s
    [Tiling.footprint]/[Cost.eval]/[Sim.eval] (locked by
    test_nest.ml).

    A tensor marked [internal] is a Principle-4 fused intermediate: it
    contributes no memory traffic, occupies buffer space, and renders
    a schedule invalid unless it is revisit-free. *)

type access =
  | Point of int  (** tensor dimension = one iteration index *)
  | Window of { outer : int; kernel : int; stride : int; dilation : int }
      (** tensor dimension = [outer*stride + kernel*dilation] *)

type tensor = private { tname : string; dims : access list; internal : bool }

type t = private {
  name : string;
  axes : string array;  (** one name per index *)
  extents : int array;
  tensors : tensor list;
}

val tensor : ?internal:bool -> string -> access list -> tensor
(** Bare constructor; validated by {!make}. *)

val make :
  name:string ->
  axes:string array ->
  extents:int array ->
  tensors:tensor list ->
  t
(** Validates: non-empty index set with distinct axis names and
    extents [>= 1]; every tensor references in-range axes, no axis
    twice; window stride/dilation [>= 1]; at least one non-internal
    tensor. Raises [Invalid_argument] otherwise. *)

val rank : t -> int
(** Number of iteration indices. *)

val used_axes : tensor -> int list
(** Sorted indices a tensor's projection depends on. *)

val externals : t -> tensor list

val internals : t -> tensor list

val access_extent : t -> access -> int
(** Full extent of one tensor dimension ([Window]: the reachable
    input span [(e_o-1)*stride + (e_k-1)*dilation + 1]). *)

val tensor_size : t -> tensor -> int

val points : t -> int
(** Iteration points of the product index set (the communication
    model's iteration space, not a FLOP counter for fused nests). *)

(** {1 Schedules} *)

type schedule = { tiles : int array; order : int array }
(** One tile size per index, and the loop order as a permutation of
    axis ids, outermost first. *)

val schedule_make : t -> tiles:int array -> order:int array -> schedule
(** Validated constructor: tiles within [[1, extent]], [order] a
    permutation. *)

val trips : t -> schedule -> int -> int

val tile_access_extent : int array -> access -> int

val footprint_tiles : t -> int array -> int

val footprint : t -> schedule -> int
(** Buffer residency of one tile per tensor, internal included. *)

(** {1 Analytic cost} *)

type per_tensor = { fetches : int; traffic : int; revisit : int }

type cost = { per : per_tensor array; total : int }
(** [per] is aligned with [tensors]; internal tensors report zeros;
    [total] sums external traffic. *)

val revisit_of : t -> schedule -> tensor -> int

val eval : t -> schedule -> cost
(** Traffic = revisit x per-sweep traffic, where revisit multiplies
    the trip counts of tiled free loops ordered outside the innermost
    tiled used loop, and a sweep pays the edge-clipped tile grid
    (windows include halo overlap). Agrees with {!Nsim.eval}
    everywhere and with [Cost.eval] on the MM instance. *)

val max_total : t -> int
(** An upper bound on [(eval t s).total], [footprint t s] and [points t]
    over every schedule [s], computed with saturating arithmetic:
    [max_int] means some schedule's cost may not fit in an [int]. On the
    MM instance it equals [Cost.max_total]. *)

val valid : t -> schedule -> bool
(** Every internal tensor is revisit-free. *)

val per_tensor_named : t -> cost -> (string * per_tensor) list

val pp : Format.formatter -> t -> unit

val pp_schedule : t -> Format.formatter -> schedule -> unit

val schedule_to_string : t -> schedule -> string
