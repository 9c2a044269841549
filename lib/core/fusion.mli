(** Inter-operator dataflow: fusibility, profitability (Principle 4) and
    one-shot construction of the profitable fused dataflows of Fig. 4.

    A fused pair [A x B = C; C x D = E] keeps [C] entirely on-chip. The
    paper shows fusion is {e fusible} whenever the intermediate avoids
    redundant access in both operators, and {e profitable} exactly when
    both operators run the same NRA class. *)

open Fusecu_loopnest

(** The profitable fused-dataflow patterns (green arrows of Fig. 4). *)
type pattern =
  | P_single_os_is
      (** (a): both Single-NRA; producer output-stationary, consumer
          input-stationary; shared stationary tile of [C]. *)
  | P_two_os_is
      (** (b): both Two-NRA; producer untiles its reduction dim [K1],
          consumer untiles its output dim [L2]; [C] moves as a
          column-like tile (one dim maximized, the other 1). *)
  | P_two_untile_shared
      (** (c): both Two-NRA; the shared dimension [L1 = K2] is untiled
          on both sides. *)
  | P_three_untile_m
      (** (d), variant 1: both Three-NRA; [M] untiled on both sides
          ([C] streams column by column). *)
  | P_three_untile_shared
      (** (d), variant 2: both Three-NRA; the shared dim [L1 = K2]
          untiled on both sides. *)
  | P_three_resident
      (** (e): both Three-NRA; the whole of [C] stays on-chip. *)
  | P_block
      (** Generalized C-stationary block family: shared [C] tile
          [(t_m, t_l)] with [t_m] swept over [i] and [ceil(M/i)] for
          [i <= isqrt M] (over the lattice's own points on [Pow2]) and
          [t_l] maximized ({!Mode.snap}), producer [K] / consumer [L]
          tiles in [{minimal, untiled}], all order pairs. Subsumes the six named
          patterns and is complete over the valid fused-pair space, so
          [Best_of_both] matches exhaustive search exactly (the named
          builders alone miss mixed-class optima on ragged sizes —
          found by the differential oracle, see DESIGN.md Sec. 7c). *)

val all_patterns : pattern list

val pattern_class : pattern -> Nra.t option
(** The NRA class a named paper pattern belongs to; [None] for
    {!P_block}, whose class depends on the tile sizes chosen (use
    {!fused_nra} on a concrete fused dataflow instead). *)

val fused_nra : Fused.pair -> Fused.t -> Nra.t
(** The NRA class a concrete fused dataflow achieves: the weaker of the
    two sides' classes, recovered from the actual schedules. *)

val pattern_name : pattern -> string

val pp_pattern : Format.formatter -> pattern -> unit

val profitable : Nra.t -> Nra.t -> bool
(** Principle 4: fusion is profitable iff the classes are equal. *)

val candidates : ?mode:Mode.t -> ?patterns:pattern list -> Fused.pair -> Buffer.t
  -> (pattern * Fused.t * int) list
(** Build, validate and cost every feasible fused dataflow from the
    requested patterns (default: all); each entry carries its memory
    traffic. Candidates that fail {!Fused.eval} are dropped. *)

(** The outcome of planning a candidate fusion site. *)
type decision =
  | Fuse of { pattern : pattern; fused : Fused.t; traffic : int }
  | No_fuse of { plan1 : Intra.plan; plan2 : Intra.plan; traffic : int; why : string }

val traffic_of_decision : decision -> int

type strategy =
  | By_principle
      (** Apply Principle 4: fuse only when the two operators' intra
          NRA classes agree (using patterns of that class); otherwise
          run unfused. *)
  | Best_of_both
      (** Oracle: evaluate every fused candidate and the unfused
          schedule, return whichever moves less data. Used to validate
          Principle 4. *)

val plan_pair : ?mode:Mode.t -> ?strategy:strategy -> Fused.pair -> Buffer.t
  -> (decision, string) result
(** Decide whether (and how) to fuse a pair. [strategy] defaults to
    [By_principle]. [Error] only when even unfused intra optimization is
    infeasible. *)

val pp_decision : Format.formatter -> decision -> unit
