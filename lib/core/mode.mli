(** Tile-size lattices. The principles give continuous-optimum tile
    sizes; real dataflows snap them to a lattice. *)

type t =
  | Exact  (** any integer tile size; ragged edges are costed exactly *)
  | Divisors  (** tile sizes divide their dimension (the paper's worked
                  example: T_M = 512 for M = 1024) *)
  | Pow2  (** power-of-two tile sizes (or the full dimension) *)

type lattice = private {
  mode : t;
  size : int;  (** the dimension's extent *)
  points : int array;
      (** the lattice's tile sizes in [\[1, size\]], ascending, [size]
          included: the divisors of [size] on [Divisors] (O(number of
          divisors)), the powers of two below [size] and [size] on
          [Pow2] (O(log size)). Empty on [Exact], whose lattice is
          every integer. *)
}
(** The tile sizes one dimension of an operator may take. A planner
    builds each dimension's lattice once ({!lattice}: one O(sqrt D)
    divisor walk on [Divisors]) and rounds every seed on it by binary
    search. *)

val lattice : t -> int -> lattice
(** [lattice mode d] is the lattice of a dimension of extent [d].
    Raises [Invalid_argument] when [d < 1]. *)

val quantize : lattice -> int -> int
(** [quantize lat target] is the largest lattice point [<= target],
    clamped into [\[1, size\]]. A target at or above the dimension size
    always yields the full dimension (untiled). O(log points). *)

val rank : lattice -> int -> int
(** [rank lat t] is the index in [points] of the lattice point [t] (of
    the largest point [<= t] in general), on [Divisors] and [Pow2]; a
    planner keys a bitmap of visited tiles on it. O(log points). Raises
    [Invalid_argument] on [Exact]. *)

val snap : lattice -> int -> int
(** [snap lat target] is the lattice tile the principle builders use
    for a budget of [target]: {!quantize}'s result, then, on [Exact]
    only, the smallest tile with the same trip count [ceil(D/T)]
    ([ceil(D / ceil(D/T))]). Traffic depends on a tile only through
    that trip count, so the smaller tile costs the same and leaves more
    buffer for the next one.

    On [Divisors] and [Pow2], [snap] equals {!quantize}: every lattice
    point there already is the smallest lattice tile of its trip count.
    Trip-aligning {e before} rounding would be wrong on [Pow2]: a
    23-long dimension with a budget of 18 would go 18 -> 12 -> 8 (three
    trips) and never reach 16 (two trips). *)

val pp : Format.formatter -> t -> unit
