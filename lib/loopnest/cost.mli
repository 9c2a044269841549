(** Exact memory-access model for a tiled matmul loop nest.

    Model (matches the paper's Sec. III-A): the buffer holds exactly one
    tile per operand; a tile is (re)fetched whenever the tile indices of
    its operand change between consecutive tile iterations. An operand
    whose tile is fetched exactly once per distinct tile — i.e. never
    refetched — has {e non-redundant access} (NRA).

    Closed form. Let [n_d] be the trip count of dimension [d] and let an
    operand [X] have index dims [S] and free dim [f]. Define [p] as the
    loop position (1 = outermost) of the {e innermost} loop in [S] with
    [n > 1]. Then the number of times each tile region of [X] is fetched
    is

    [revisit X = if n_f > 1 && position f < p then n_f else 1]

    and the element traffic is [revisit X * size X] — exact even for
    ragged (non-dividing) tile sizes, because every fetch sweep touches
    each element of [X] exactly once. This reproduces the paper's Eq. 1
    and Eq. 3 and is validated against the resident-tile simulator
    [Fusecu_nest.Nsim] on the matmul lowering (test_loopnest and the
    oracle's simulation checks). *)

open Fusecu_tensor

type per_operand = {
  fetches : int;  (** number of tile-fetch events *)
  traffic : int;  (** elements moved between memory and buffer *)
  revisit : int;  (** times each tile region is fetched; 1 = NRA *)
}

type t = {
  a : per_operand;
  b : per_operand;
  c : per_operand;
  total : int;  (** total element traffic *)
}

(** {2 Trip-vector kernel}

    The revisit rule above reads a tiling only through its trip counts
    and an order only through its loop positions. {!revisit_at} states
    it on a trip vector; {!eval}, {!revisit} and the revisit table below
    are built on it, so there is one revisit rule. The [_at] functions
    allocate nothing. *)

type trips = private { nm : int; nk : int; nl : int }
(** Trip counts [ceil(D/T)] of [M], [K] and [L]. *)

val trip : int -> int -> int
(** [trip d t] is the trip count [ceil(d/t)] of a dimension of extent
    [d] under a tile [1 <= t]; it divides only when [1 < t < d]. *)

val trips : Matmul.t -> Tiling.t -> trips

val revisit_at : trips -> Order.t -> Operand.t -> int
(** {!revisit} of an operand under the tiling of these trips and the
    order. *)

val traffic_at : Matmul.t -> trips -> Order.t -> Operand.t -> int
(** The operand's traffic: its revisit factor times its size. *)

val total_at : Matmul.t -> trips -> Order.t -> int
(** [(eval op s).total] for a schedule [s] with these trips and order. *)

(** {2 Revisit table}

    Whether {!revisit_at} revisits an operand depends only on the order
    and on which of the three trip counts exceed 1; when it does, the
    factor is the free dimension's trip count. So the rule fits a table
    of 6 orders x 8 trip patterns = 48 entries, each the set of operands
    revisited. The table is built once, at start-up, from {!revisit_at}
    (there is still one revisit rule), and the principle planners price
    every candidate on it: the functions below take the trip counts
    [nm], [nk], [nl] and an order index ({!Order.index}), read one
    entry, and allocate nothing. *)

val operand_bit : Operand.t -> int
(** [A] is 1, [B] is 2, [C] is 4. *)

val table_revisits : int -> int -> int -> int -> int
(** [table_revisits nm nk nl i] is the table entry: the operands the
    [i]-th order of {!Order.all} revisits under these trip counts, as a
    set of {!operand_bit}s. An operand in the set has the revisit factor
    of its free dimension's trip count, any other 1. *)

val table_total : Matmul.t -> int -> int -> int -> int -> int
(** {!total_at}, from the table. *)

val eval : ?partial_sum_penalty:bool -> Matmul.t -> Schedule.t -> t
(** Evaluate a schedule. With [partial_sum_penalty] (default [false],
    the paper's symmetric accounting), a revisited output tile costs a
    read {e and} a write per revisit: traffic
    [size_C * (2*revisit - 1)]. *)

val max_total : Matmul.t -> int
(** An upper bound on [(eval op s).total] over every schedule [s] (default
    accounting): each operand moves its size times at most the extent of
    its free dimension. Computed with saturating arithmetic, so [max_int]
    means some schedule's total may not fit in an [int]. *)

val operand : t -> Operand.t -> per_operand

val revisit : Matmul.t -> Schedule.t -> Operand.t -> int
(** Just the revisit factor of one operand. *)

val is_nra : Matmul.t -> Schedule.t -> Operand.t -> bool
(** Whether the operand has non-redundant access under the schedule. *)

val nra_operands : Matmul.t -> Schedule.t -> Operand.t list
(** Operands accessed without redundancy, in [A < B < C] order. At least
    one operand is always NRA. *)

val nra_count : Matmul.t -> Schedule.t -> int
(** [1], [2] or [3] — the paper's Single-/Two-/Three-NRA classes. *)

val pp : Format.formatter -> t -> unit
