(** Memory-access model for a fused pair of matmuls
    [A x B = C] then [C x D = E] (the paper's Sec. III-B).

    A fused execution never spills the intermediate [C] to memory, which
    is only possible when (paper, "Fusiability"):

    - [C] has non-redundant access in {e both} operators' schedules
      (each [C] tile is produced exactly once and consumed exactly
      once);
    - the two schedules agree on [C]'s tile size
      ([Tm1 = Tm2] and [Tl1 = Tk2]);
    - the production order of [C] tiles matches the consumption order
      (relative order of the [M] and [L] loops in op1 = relative order
      of the [M] and [K] loops in op2), unless [C] is held entirely
      on-chip by both sides, in which case order does not matter;
    - one tile of each live operand fits in the buffer simultaneously
      ([C]'s tile is shared between the two nests).

    The fused traffic is then the traffic of [A], [B] (producer side)
    plus [D], [E] (consumer side); [C] contributes nothing. *)

open Fusecu_tensor

type pair = { op1 : Matmul.t; op2 : Matmul.t }

val make_pair : Matmul.t -> Matmul.t -> (pair, string) result
(** Checks the chaining constraints [op2.m = op1.m], [op2.k = op1.l]. *)

val make_pair_exn : Matmul.t -> Matmul.t -> pair

type t = {
  producer : Schedule.t;  (** schedule of [A x B = C] *)
  consumer : Schedule.t;  (** schedule of [C x D = E] *)
}

type invalid =
  | Intermediate_redundant of [ `Producer | `Consumer ]
      (** [C] would be refetched on the named side. *)
  | Tile_mismatch  (** the two schedules disagree on [C]'s tile size *)
  | Order_mismatch  (** production order differs from consumption order *)

val validate : pair -> t -> (unit, invalid) result
(** Check the fusibility conditions above (excluding buffer capacity,
    which {!footprint} exposes separately). *)

val footprint : t -> int
(** Buffer elements needed by the fused execution: both nests' tiles
    with [C]'s tile counted once. *)

val traffic : pair -> t -> int
(** Memory traffic of a valid fused execution (elements). The caller is
    expected to have validated first; traffic of an invalid combination
    is still computed (it is what the fused machine would move) but
    meaningless. *)

(** Why {!eval} rejects a fused dataflow. A constructor, not a string,
    so that searches rejecting thousands of candidates allocate no text. *)
type error =
  | Invalid of invalid  (** a fusibility condition fails ({!validate}) *)
  | Over_capacity of { footprint : int; capacity : int }
      (** valid, but {!footprint} exceeds the buffer's elements *)

val eval : pair -> t -> Buffer.t -> (int, error) result
(** Validate (including buffer capacity) and return the traffic. *)

val best_orders :
  pair -> producer:Tiling.t -> consumer:Tiling.t -> Buffer.t -> (t * int) option
(** The loop orders for a fixed pair of tilings: the first traffic
    minimum of {!eval} over [Order.all x Order.all], producer order
    major, as the fused dataflow and its traffic; [None] when no order
    pair passes {!eval}. A wrapper over {!best_tiles}, the one order
    scan. *)

(** {2 Integer-tile kernel}

    A fused dataflow whose [C] tiles agree is fixed by six integers:
    producer tiles [(tm, tk1, tl)], consumer tiles [(tm, tl, tl2)], and
    an order index ({!Order.index}) per side. The principle planners
    price their fused candidates on these, from each side's trip counts
    and {!Cost}'s revisit table (one entry per side and order), and
    build a {!t} for the winner alone. Tiles must lie in
    [\[1, dim\]]. *)

val eval_tiles :
  pair -> tm:int -> tk1:int -> tl:int -> tl2:int -> capacity:int -> int -> int -> int
(** [eval_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity o1 o2] is {!eval} of
    that dataflow on a buffer of [capacity] elements: its traffic, or
    [-1] when {!eval} rejects it. *)

val best_tiles : pair -> tm:int -> tk1:int -> tl:int -> tl2:int -> capacity:int -> int
(** The order pair {!best_orders} picks for these tiles, as
    [6 * o1 + o2], or [-1] when none passes. It scores each side's six
    orders once, not the 36 pairs, because the conditions above
    separate: tile agreement, residency and the footprint read only the
    tilings; [C]'s non-redundancy and the traffic split into a producer
    term ([A], [B]) and a consumer term ([D], [E]); and the two orders
    meet only in the [C]-order agreement, which is a match of one bit
    per side ([M] before the shared dim or not) and is waived when [C]
    is resident on both sides. It shares {!validate}'s predicates. *)

val of_tiles : pair -> tm:int -> tk1:int -> tl:int -> tl2:int -> int -> int -> t
(** The fused dataflow of these tiles and order indices. *)

val unfused_traffic : pair -> Schedule.t -> Schedule.t -> int
(** Traffic when the two operators run separately with the given
    schedules: the intermediate is written to memory once by op1 and
    read at least once by op2 (its producer-side cost is op1's [C]
    traffic, its consumer-side cost op2's [A] traffic). *)

val pp_invalid : Format.formatter -> invalid -> unit

val pp_error : Format.formatter -> error -> unit
(** [Invalid e] prints as {!pp_invalid}; [Over_capacity] as
    ["fused footprint F exceeds buffer capacity C"]. *)
