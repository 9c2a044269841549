(** The graph oracle ([check --graphs]): differential conformance for
    the whole-model fusion planner, run by the {!Oracle} driver.

    It generates seeded random workload graphs small enough to
    enumerate (at most 8 nodes, at most 20 candidate edges) and asserts
    that {!Fusecu_planner.Partition.plan} — the DP / branch-and-bound
    partitioner — returns exactly the optimum found by
    {!Fusecu_planner.Partition.exhaustive}: same effective cost, same
    raw traffic, and the same selected edge set under the deterministic
    tie-break. It also asserts the structural invariants: groups cover
    every node exactly once, the effective cost never exceeds the
    all-singleton baseline, and both sides agree on infeasibility.
    Divergences shrink by dropping nodes (with their edges), edges and
    trailing operators, and by halving counts, dimensions and the
    buffer. *)

type node_spec = { count : int; k0 : int; ls : int list }
(** One graph node: [count] instances of the operator chain whose first
    operator is [m x k0 x hd ls] and whose later operators each consume
    the previous output ([k = previous l]). [ls] is non-empty. *)

type t = {
  m : int;  (** shared row dimension of every operator *)
  bytes : int;  (** buffer size in bytes, 1-byte elements *)
  nodes : node_spec list;
  edges : (int * int) list;  (** dependency edges, producer first *)
}

val to_spec : t -> string
(** Compact one-liner, e.g. [m=4,b=256,nodes=1*3:5|1*5:2,edges=0-1].
    [nodes] entries are [count*k0:l1:l2...] separated by [|]; [edges]
    are [src-dst] pairs separated by [|] (omitted when empty). *)

val of_spec : string -> (t, string) result

val oracle : t Oracle.t
(** Default [max_dim] 8, which bounds generated dimensions and counts
    (and the buffer, at [4 * max_dim^2] bytes). The report sums the
    planner's candidate edges and the cases whose optimum fuses at
    least once. *)
