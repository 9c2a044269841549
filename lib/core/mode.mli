(** Tile-size lattices. The principles give continuous-optimum tile
    sizes; real dataflows snap them to a lattice. *)

open Fusecu_tensor

type t =
  | Exact  (** any integer tile size; ragged edges are costed exactly *)
  | Divisors  (** tile sizes divide their dimension (the paper's worked
                  example: T_M = 512 for M = 1024) *)
  | Pow2  (** power-of-two tile sizes (or the full dimension) *)

val quantize : t -> Matmul.t -> Dim.t -> int -> int
(** [quantize mode op d target] is the largest lattice point [<= target]
    for dimension [d], clamped into [\[1, dim d\]]. A target at or above
    the dimension size always yields the full dimension (untiled). *)

val snap : t -> Matmul.t -> Dim.t -> int -> int
(** [snap mode op d target] is the lattice tile the principle builders
    use for a budget of [target]: {!quantize}'s result, then, on
    [Exact] only, the smallest tile with the same trip count
    [ceil(D/T)] ([ceil(D / ceil(D/T))]). Traffic depends on a tile only
    through that trip count, so the smaller tile costs the same and
    leaves more buffer for the next one.

    On [Divisors] and [Pow2], [snap] equals {!quantize}: every lattice
    point there already is the smallest lattice tile of its trip count.
    Trip-aligning {e before} rounding would be wrong on [Pow2]: a
    23-long dimension with a budget of 18 would go 18 -> 12 -> 8 (three
    trips) and never reach 16 (two trips). *)

val pp : Format.formatter -> t -> unit
