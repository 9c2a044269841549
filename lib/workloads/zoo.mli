(** The seven attention-based models of the paper's Table II. *)

val bert : Model.t
val gpt2 : Model.t
val blenderbot : Model.t
val xlm : Model.t
val deberta_v2 : Model.t
val llama2 : Model.t
val albert : Model.t

val llama2_70b_gqa : Model.t
(** A grouped-query-attention variant (64 query heads, 8 KV heads) —
    not part of the paper's Table II, used by the GQA extension
    experiments. *)

val all : Model.t list
(** In the paper's table order (excludes the GQA variant). *)

val find : string -> Model.t option
(** Case-insensitive lookup by name. *)

val nest_cases : (string * Fusecu_nest.Nest.t) list
(** Beyond-matmul workloads as projective nests: conv2d (plain,
    strided, pointwise), per-head batched MM, grouped-query-attention
    scores, and a fused attention score x value pair. Scaled-down
    shapes, sized so the exhaustive Divisors-lattice ground truth
    stays enumerable in benches and tests. *)
