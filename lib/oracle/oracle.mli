(** The differential oracle driver: one soak loop, one shrinker, one
    report and one reproduction path for every oracle.

    An oracle is a record ({!t}) of what differs between surfaces: how
    to draw a random problem, which checks to run on it, how to propose
    simpler problems, and how to print and parse a problem as a
    one-line spec. {!Check.oracle} (principles vs exhaustive search on
    matmuls, pairs and chains), {!Nest_check.oracle} (the projective
    loop-nest IR) and {!Graph_check.oracle} (the whole-model
    partitioner) are the three in use; a new surface is one more record.

    {!run} generates [cases] problems from a seeded {!Rng}, runs the
    checks on each, and greedily shrinks every failure to a (locally)
    minimal counterexample. A run is a pure function of the oracle,
    [(seed, cases, max_dim)] and, for [Check.oracle], the mapper: a
    counterexample printed in a CI log reproduces bit-for-bit anywhere
    with [fusecu_opt check [FLAG] --repro SPEC]. *)

(** {1 Checks} *)

type failure = { check : string; detail : string }

type outcome = { checks : int; failures : failure list }

val failure_names : outcome -> string list
(** Sorted, de-duplicated names of the checks that failed. *)

type ctx
(** What one problem's checks report into. *)

val check : ctx -> string -> bool -> (unit -> string) -> unit
(** [check ctx name ok detail] counts one check named [name]; when [ok]
    is false it records a failure whose text is [detail ()]. *)

val rng : ctx -> Rng.t
(** A stream seeded by FNV-1a over the problem's spec, so a problem's
    verdict does not depend on its position in a run. *)

val tally : ctx -> string -> string -> unit
(** [tally ctx stat key] counts this problem under [key] in the tally
    [stat] (one of the oracle's [tallies]). *)

val add : ctx -> string -> int -> unit
(** [add ctx stat n] adds [n] to the sum [stat] (one of the oracle's
    [sums]). Statistics count only in a soak's first pass over each
    problem, never while shrinking or reproducing. *)

(** {1 Oracles} *)

type 'p t = {
  name : string;  (** report title, e.g. ["nest oracle"] *)
  flag : string;
      (** the [check] flag that selects it (["--nests"]), or [""] for
          the default oracle; printed in every repro line *)
  max_dim : int;  (** default bound on generated dimensions *)
  gen : Rng.t -> max_dim:int -> 'p;
  checks : ctx -> 'p -> unit;
  proposals : 'p -> 'p list;
      (** strictly simpler variants of a problem, in the order the
          shrinker tries them *)
  to_spec : 'p -> string;
  of_spec : string -> ('p, string) result;  (** inverse of [to_spec] *)
  tallies : string list;
      (** the statistics the checks {!tally}, in report order *)
  sums : string list;  (** the statistics the checks {!add}, in report order *)
}

val outcome : 'p t -> 'p -> outcome
(** Run the oracle's checks on one problem. *)

val check_spec : 'p t -> string -> ('p * outcome, string) result
(** Parse a spec and run the checks on it: the [--repro] path. *)

val minimize :
  ?budget:int -> proposals:('p -> 'p list) -> still_fails:('p -> bool) -> 'p ->
  'p
(** Repeatedly replace the problem with its first proposal on which
    [still_fails] holds, until none does. [still_fails] runs at most
    [budget] times (default 200); a proposal found with the last unit
    of budget is kept. The soak's [still_fails] demands a failure of one
    of the {e same} named checks, so shrinking cannot wander to a
    different bug. *)

(** {1 Soaks} *)

type 'p counterexample = {
  index : int;  (** 1-based case index within the run *)
  original : 'p;
  shrunk : 'p;
  failures : failure list;  (** failures on the shrunk problem *)
}

type 'p report = {
  cases : int;
  checks : int;  (** individual checks evaluated *)
  tallies : (string * (string * int) list) list;
      (** each of the oracle's tallies, keys sorted *)
  sums : (string * int) list;  (** each of the oracle's sums *)
  counterexamples : 'p counterexample list;
}

val ok : 'p report -> bool
(** No divergences. *)

val run :
  ?log:(string -> unit) -> ?max_dim:int -> 'p t -> cases:int -> seed:int ->
  'p report
(** [log] receives a one-line message per divergence as it is found;
    [max_dim] defaults to the oracle's own. *)

val pp_failure : Format.formatter -> failure -> unit
(** [\[check\] detail]. *)

val pp_report : 'p t -> Format.formatter -> 'p report -> unit
(** A header line (cases, checks, sums, divergences), one line per
    tally, then every counterexample with its repro line. *)
