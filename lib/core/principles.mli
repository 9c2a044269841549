(** One-shot schedule constructors, one per principle (paper Sec. III-A).

    Each builder turns a closed-form tile-size solution (plus a small
    integer-lattice neighbourhood, since the closed forms are derived
    over the reals) into concrete candidate schedules. The builders do
    {e not} search: they list the minimal tile of each distinct trip
    count along one dimension and fill the rest in closed form. The
    candidate count is therefore bounded by the lattice, per swept
    dimension of extent [D]: O(sqrt D) on [Exact] (every trip count is
    its own tile), O(number of divisors of D) on [Divisors], O(log D)
    on [Pow2]. {!iter} builds each dimension's {!Mode.lattice} once and
    rounds every seed on it by binary search.

    Each builder is one enumerator ({!iter}): it yields integer tiles
    and an order index, building no schedule per candidate, and drops a
    swept tile it has already visited with a first-occurrence filter (a
    bitmap over lattice-point indices on [Divisors] and [Pow2], a
    hashed set on [Exact]). The list builders below collect it;
    {!Intra.optimize} folds it into its first minimum.

    - {!single} — Principle 1: tile of the stationary tensor's dims
      maximized ([T^2 + 2T <= BS] at the symmetric point), free dim
      minimized to 1, stationary tensor's free dim innermost.
    - {!two} — Principle 2: one dimension untiled; the tile of the dim
      absent from the redundant tensor maximized
      ([T <= (BS - D)/(D + 1)]), the remaining dim minimized.
    - {!three} — Principle 3: both dims of the resident tensor untiled;
      remaining tile size is a don't-care (1 gives the smallest
      footprint). *)

open Fusecu_tensor
open Fusecu_loopnest

type candidate = { intent : Nra.dataflow; schedule : Schedule.t }
(** A proposed schedule tagged with the dataflow shape it implements. *)

val single : Mode.t -> Matmul.t -> Buffer.t -> stationary:Operand.t -> candidate list
(** Single-NRA candidates for a choice of stationary tensor. Empty when
    even the unit tiling does not fit. The stationary tensor's first
    dimension is swept: on [Exact], [ceil(D/j)] and [j] for
    [j <= isqrt D + 1]; on [Divisors], the divisors those round to, in
    the same first-occurrence order (every divisor from [D] down to the
    rounding of [ceil(D/(isqrt D + 1))], then every divisor
    [<= isqrt D + 1] upwards); on [Pow2], [D] and then the powers of
    two upwards. Each sweep follows the rounded closed-form seeds. *)

val two : Mode.t -> Matmul.t -> Buffer.t -> untiled:Dim.t -> redundant:Operand.t
  -> candidate list
(** Two-NRA candidates. [redundant] must be indexed by [untiled]
    (raises [Invalid_argument] otherwise). Empty when infeasible. *)

val three : Mode.t -> Matmul.t -> Buffer.t -> resident:Operand.t -> candidate list
(** Three-NRA candidates keeping [resident] entirely on-chip. Empty when
    the tensor does not fit alongside working tiles. *)

val all : Mode.t -> Matmul.t -> Buffer.t -> candidate list
(** Every candidate from every builder variant: 3 stationary choices,
    6 (untiled, redundant) choices, 3 resident choices, on lattices
    built once for the call. *)

val iter :
  distinct:bool -> Mode.t -> Matmul.t -> Buffer.t ->
  (Nra.dataflow -> int -> int -> int -> int -> unit) -> unit
(** [iter ~distinct:true mode op buf f] calls [f intent tm tk tl order]
    for each candidate of {!all}, in {!all}'s order, with its tiles in
    [M], [K], [L] and its loop order as an index into {!Order.all}
    ({!Order.of_index}). With [~distinct:false] the builders skip their
    first-occurrence filters, so a swept tile that repeats is yielded
    again: a fold for a first strict minimum gets the same winner, since
    a repeat equals, and follows, its first occurrence. *)
