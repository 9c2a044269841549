(** Tile-event traces of a schedule's execution.

    Where {!Cost} gives totals and the nest simulator
    ([Fusecu_nest.Nsim]) validates them, [Trace] emits
    the actual sequence of buffer events — which tile of which operand
    is fetched before which computation — for debugging dataflows,
    driving downstream simulators, and rendering the movement diagrams
    of the paper's Fig. 2/3 in ASCII. Event counts grow with the tile
    iteration count; intended for small operators. *)

open Fusecu_tensor

type event =
  | Fetch of { operand : Operand.t; tile : int * int }
      (** load the tile with these per-dimension indices (ordered as
          {!Operand.dims}) into the buffer, evicting the previous one *)
  | Compute of { m : int; k : int; l : int }
      (** run one tile computation at these tile coordinates *)

val events : Matmul.t -> Schedule.t -> event list
(** The full trace, in execution order. *)

val fetch_count : event list -> Operand.t -> int

val traffic : Matmul.t -> Schedule.t -> event list -> int
(** Total elements fetched according to the trace (ragged-exact);
    always equals [(Cost.eval op s).total] — asserted in tests. *)

val render : ?max_events:int -> Matmul.t -> Schedule.t -> string
(** A compact textual rendering, one line per event, e.g.
    {v fetch A[0,1]   compute (0,1,0) v}; truncated at [max_events]
    (default 64) with a summary line. *)
