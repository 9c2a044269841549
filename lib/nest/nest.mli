(** Projective loop-nest IR (ROADMAP item 3).

    An iteration index set plus one projection map per tensor. Each
    tensor dimension is a direct index projection ([Point]) or a
    sliding window over an (outer, kernel) index pair ([Window] — the
    conv2d input pattern: dimension coordinate
    [outer*stride + kernel*dilation], so consecutive tiles overlap by
    the halo). The paper's matmul model is the 3-index instance with
    operands A(m,k), B(k,l), C(m,l); on it, [footprint] and [eval]
    are bit-identical to [Fusecu_loopnest]'s
    [Tiling.footprint]/[Cost.eval] (locked by test_nest.ml), and
    {!Nsim} on it is the simulator [Cost.eval] is checked against.

    A tensor marked [internal] is a Principle-4 fused intermediate: it
    contributes no memory traffic, occupies buffer space, and renders
    a schedule invalid unless it is revisit-free. *)

type access =
  | Point of int  (** tensor dimension = one iteration index *)
  | Window of { outer : int; kernel : int; stride : int; dilation : int }
      (** tensor dimension = [outer*stride + kernel*dilation] *)

type tensor = private { tname : string; dims : access list; internal : bool }

type code
(** The tensors as {!make} compiles them for the kernels: each one's
    used-axis bitmask and dims as flat [Point]/[Window] parameters, and
    which tensors are external. *)

type t = private {
  name : string;
  axes : string array;  (** one name per index *)
  extents : int array;
  tensors : tensor list;
  code : code;  (** [tensors], compiled *)
}

val tensor : ?internal:bool -> string -> access list -> tensor
(** Bare constructor; validated by {!make}. *)

val make :
  name:string ->
  axes:string array ->
  extents:int array ->
  tensors:tensor list ->
  t
(** Validates: non-empty index set of rank at most {!max_rank} with
    distinct axis names and extents [>= 1]; every tensor references
    in-range axes, no axis twice; window stride/dilation [>= 1]; at
    least one and at most {!max_rank} non-internal tensors. Raises
    [Invalid_argument] otherwise. Compiles every tensor once for the
    kernels below. *)

val max_rank : int
(** 62: the kernels keep a set of axes (or of external tensors) in one
    [int] bitmask, as {!revisit_mask} does. *)

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

val footprint : t -> schedule -> int
(** Buffer residency of one tile per tensor, internal included. *)

(** {1 Analytic cost} *)

type per_tensor = { fetches : int; traffic : int; revisit : int }

type cost = { per : per_tensor array; total : int }
(** [per] is aligned with [tensors]; internal tensors report zeros;
    [total] sums external traffic. *)

val eval : t -> schedule -> cost
(** Traffic = revisit x per-sweep traffic, where revisit multiplies
    the trip counts of tiled free loops ordered outside the innermost
    tiled used loop, and a sweep pays the edge-clipped tile grid
    (windows include halo overlap). Agrees with {!Nsim.eval}
    everywhere and with [Cost.eval] on the MM instance. Per external
    tensor, [traffic] is {!revisit} times its {!sweeps} entry. *)

val revisit_of : t -> schedule -> int -> int
(** {!revisit} of tensor [x] (its index in [tensors]) under [s]. *)

val max_total : t -> int
(** An upper bound on [(eval t s).total], [footprint t s] and [points t]
    over every schedule [s], computed with saturating arithmetic over
    the compiled tensors, allocating nothing: [max_int] means some
    schedule's cost may not fit in an [int]. On the MM instance it
    equals [Cost.max_total]. *)

val valid : t -> schedule -> bool
(** Every internal tensor is revisit-free: {!revisit_free} at [s]'s
    active axes. *)

(** {1 Compiled kernels}

    The search-time forms of {!footprint}, {!eval} and {!valid}, over
    the tensors {!make} compiled: a tensor is named by its index [x] in
    [tensors], a tiling by its tiles or per-axis trip counts, a loop
    order by its permutation of axis ids (outermost first), a set of
    axes by an [int] bitmask. Cost splits into a per-tiling part
    ({!sweeps}) and a per-order part ({!revisit}), and an order enters
    the latter only through each tensor's {!revisit_mask}. No kernel
    walks a list or allocates anything but the array it returns. *)

val used_mask : t -> int -> int
(** Bit [i] set iff tensor [x]'s projection reads axis [i]. *)

val trips_of : t -> int array -> int array
(** Per-axis trip counts [ceil (extent / tile)] of a tiling. *)

val active_mask : int array -> int
(** The active axes of a trip-count vector: bit [i] set iff
    [trips.(i) > 1]. Only the relative order of active loops moves any
    cost. *)

val footprint_tiles : t -> int array -> int
(** {!footprint} of a tiling. With the other tiles held it is affine in
    any one axis's tile: a tensor reads an axis in at most one dim, and
    a dim's extent is affine in each of its tiles. *)

val window_sweep :
  eo:int -> ek:int -> stride:int -> dilation:int -> no:int -> nk:int -> int
(** Traffic of one sweep over a [Window] dimension whose outer and
    kernel axes (extents [eo], [ek]) make [no] and [nk] trips. *)

val sweeps : t -> trips:int array -> int array
(** Per tensor, the traffic of one full sweep over its edge-clipped
    tile grid. Depends on the trip counts only. *)

val fill_sweeps : t -> trips:int array -> int array -> unit
(** [fill_sweeps t ~trips out] writes {!sweeps} into [out] (one entry
    per tensor). *)

val revisit_mask : t -> int -> active:int -> order:int array -> int
(** The axes whose trip counts multiply into tensor [x]'s {!revisit}:
    walking [order] from the innermost loop outward, every [active]
    free axis met after the first [active] used axis. Axes of [order]
    outside [active] are skipped, so [order] may list the active axes
    alone. *)

val revisit : t -> int -> trips:int array -> order:int array -> int
(** Sweeps made over tensor [x]: the product of the trip counts over its
    {!revisit_mask} at the active axes of [trips]. The same factors as
    "tiled free loops ordered outside the innermost tiled used loop",
    so the same [int]. *)

val revisit_free : t -> active:int -> order:int array -> bool
(** Every internal tensor has an empty {!revisit_mask}, i.e.
    [revisit = 1]. *)

val pp : Format.formatter -> t -> unit

val pp_schedule : t -> Format.formatter -> schedule -> unit

val schedule_to_string : t -> schedule -> string
