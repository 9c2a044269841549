(* The differential conformance oracle: regression counterexamples
   found (and fixed) during its development, the reproducibility
   guarantees it rests on, and property tests for the two invariants it
   polices hardest — analytic cost == simulated traffic on ragged
   schedules, and M<->L transpose symmetry of the stochastic
   searchers. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse
open Fusecu_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let matmul = Check.oracle Check.Principles

let problem_of_spec spec =
  match Problem.of_spec spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad spec %s: %s" spec e

(* ------------------------------------------------------------------ *)
(* Shrunk counterexamples from development, kept as regressions.       *)

(* Each of these specs, when first run through the oracle, exposed a
   real divergence:
   - the pair specs caught the fused pattern family missing the
     C-stationary block interior (fuse/optimal): the named paper
     patterns alone lost to [Fused_search] until [P_block] was added;
   - the tiny bs=7 / bs=11 specs sat exactly on the old (asymptotic)
     regime boundaries and misclassified until [Regime.thresholds]
     switched to the exact integer thresholds;
   - m=6,k=1,l=5,l2=4,bs=16 hit both at once.
   All must now pass every check, forever. *)
let regression_specs =
  [ "m=7,k=3,l=4,l2=2,bs=16";
    "m=2,k=2,l=2,l2=2,bs=7";
    "m=2,k=2,l=2,l2=2,bs=11";
    "m=5,k=2,l=4,l2=6,bs=31";
    "m=5,k=2,l=4,l2=6,bs=33";
    "m=6,k=1,l=5,l2=4,bs=16" ]

let test_regression_counterexamples () =
  List.iter
    (fun spec ->
      let o = Oracle.outcome matmul (problem_of_spec spec) in
      Alcotest.(check (list string))
        (spec ^ " has no divergence") []
        (List.map
           (fun (f : Oracle.failure) -> f.Oracle.check ^ ": " ^ f.Oracle.detail)
           o.Oracle.failures);
      check_bool (spec ^ " ran checks") true (o.Oracle.checks > 0))
    regression_specs

(* The historical failure mode, asserted directly: on every pair
   regression, the principle planner's best-of-both traffic equals the
   exhaustive fused-vs-unfused optimum. *)
let test_best_of_both_matches_exhaustive () =
  List.iter
    (fun spec ->
      let p = problem_of_spec spec in
      match Problem.pair p with
      | None -> ()
      | Some pair -> (
        let buf = Problem.buffer p in
        let verdict = Fused_search.decide ~lattice:Space.All pair buf in
        match
          Fusion.plan_pair ~mode:Mode.Exact ~strategy:Fusion.Best_of_both pair
            buf
        with
        | Error _ ->
          check_bool (spec ^ " infeasible on both sides") true
            (verdict.Fused_search.best_traffic = None)
        | Ok decision ->
          Alcotest.(check (option int))
            (spec ^ " best-of-both = exhaustive")
            verdict.Fused_search.best_traffic
            (Some (Fusion.traffic_of_decision decision))))
    regression_specs

(* ------------------------------------------------------------------ *)
(* Reproducibility: specs, the PRNG, the generator, the runner.        *)

let test_spec_round_trip () =
  List.iter
    (fun (p : Problem.t) ->
      let spec = Problem.to_spec p in
      match Problem.of_spec spec with
      | Error e -> Alcotest.failf "%s does not parse back: %s" spec e
      | Ok q -> check_bool (spec ^ " round-trips") true (Problem.equal p q))
    [ { m = 7; k = 3; l = 4; shape = Problem.Single; bs = 16 };
      { m = 1; k = 1; l = 1; shape = Problem.Pair { l2 = 9 }; bs = 3 };
      { m = 24; k = 24; l = 24; shape = Problem.Chain3 { l2 = 5; l3 = 2 };
        bs = 4096 } ];
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (Result.is_error (Problem.of_spec bad)))
    [ ""; "m=1,k=1"; "m=0,k=1,l=1,bs=4"; "m=1,k=1,l=1,l3=2,bs=4";
      "m=1,k=1,l=1,bs=4,junk=9"; "m=x,k=1,l=1,bs=4" ]

(* The SplitMix64 stream is pinned by the module forever — a (seed,
   case) pair in an old CI log must regenerate the same problem on any
   OCaml version. These values are the contract. *)
let test_rng_pinned () =
  let r = Rng.make 7 in
  Alcotest.(check (list int))
    "first six draws at seed 7"
    [ 93621; 738951; 902336; 368050; 180918; 387076 ]
    (List.init 6 (fun _ -> Rng.int r 1_000_000))

let test_rng_ranges () =
  let r = Rng.make 123 in
  for _ = 1 to 1000 do
    let v = Rng.range r ~lo:3 ~hi:9 in
    check_bool "in range" true (v >= 3 && v <= 9)
  done

let test_generator_pinned () =
  let g = Rng.make 42 in
  Alcotest.(check (list string))
    "first five problems at seed 42"
    [ "m=5,k=22,l=2,bs=4"; "m=12,k=10,l=12,bs=3"; "m=1,k=7,l=1,l2=8,bs=3";
      "m=12,k=12,l=5,l2=2,bs=78"; "m=1,k=19,l=2,l2=3,bs=70" ]
    (List.init 5 (fun _ -> Problem.to_spec (Gen.problem g ~max_dim:24)))

let test_generator_valid () =
  let g = Rng.make 9 in
  for _ = 1 to 500 do
    let p = Gen.problem g ~max_dim:24 in
    check_bool "dims in bounds" true
      (p.Problem.m >= 1 && p.Problem.m <= 24 && p.Problem.k >= 1
     && p.Problem.k <= 24 && p.Problem.l >= 1 && p.Problem.l <= 24);
    check_bool "buffer sane" true (p.Problem.bs >= 3);
    check_bool "spec round-trips" true
      (match Problem.of_spec (Problem.to_spec p) with
      | Ok q -> Problem.equal p q
      | Error _ -> false)
  done

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)

let test_proposals_strictly_smaller () =
  let p = problem_of_spec "m=12,k=7,l=9,l2=4,bs=200" in
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "%s < %s" (Problem.to_spec q) (Problem.to_spec p))
        true
        (Problem.size q < Problem.size p))
    (Problem.proposals p)

(* Greedy minimization against a synthetic predicate lands exactly on
   the smallest failing instance. *)
let test_minimize_converges () =
  let p = problem_of_spec "m=24,k=13,l=17,l2=6,bs=500" in
  let shrunk =
    Oracle.minimize ~proposals:Problem.proposals p ~still_fails:(fun q ->
        q.Problem.m >= 4)
  in
  check_int "minimal m" 4 shrunk.Problem.m;
  check_int "k shrunk to 1" 1 shrunk.Problem.k;
  check_int "l shrunk to 1" 1 shrunk.Problem.l;
  check_bool "pair dropped" true (shrunk.Problem.shape = Problem.Single);
  check_int "buffer at floor" 3 shrunk.Problem.bs;
  (* a predicate that never fails leaves the problem untouched *)
  check_bool "fixed point when nothing fails" true
    (Problem.equal p
       (Oracle.minimize ~proposals:Problem.proposals p ~still_fails:(fun _ -> false)))

(* A proposal found with the last unit of budget is kept: with one
   evaluation allowed and a first proposal that fails, the result is
   that proposal, not the input. *)
let test_minimize_last_unit_of_budget () =
  match Graph_check.of_spec "m=4,b=64,nodes=1*4:4|1*4:4|1*4:4,edges=0-1|1-2" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let proposals = Graph_check.oracle.Oracle.proposals in
    let calls = ref 0 in
    let shrunk =
      Oracle.minimize ~budget:1 ~proposals t ~still_fails:(fun _ ->
          incr calls;
          true)
    in
    check_int "one evaluation" 1 !calls;
    Alcotest.(check string) "first proposal kept"
      (Graph_check.to_spec (List.hd (proposals t)))
      (Graph_check.to_spec shrunk)

(* The shrinker on a synthetic case type: a short list of small
   naturals whose proposals drop one element or shrink one to 0, half
   or minus one, under an arbitrary (hashed) failure predicate. *)
let synthetic_proposals xs =
  List.concat
    (List.mapi
       (fun i x ->
         List.filteri (fun j _ -> j <> i) xs
         :: List.map
              (fun y -> List.mapi (fun j v -> if j = i then y else v) xs)
              (List.sort_uniq compare
                 (List.filter (fun y -> y >= 0 && y < x) [ 0; x / 2; x - 1 ])))
       xs)

let prop_minimize =
  QCheck.Test.make ~count:500
    ~name:"minimize: fails or is the input, within budget, and a fixpoint"
    QCheck.(
      triple (int_range 0 40) (int_range 0 1_000)
        (list_of_size Gen.(int_range 0 4) (int_range 0 20)))
    (fun (budget, salt, xs) ->
      let fails q = Hashtbl.hash (salt, q) mod 3 = 0 in
      let calls = ref 0 in
      let shrunk =
        Oracle.minimize ~budget ~proposals:synthetic_proposals xs
          ~still_fails:(fun q ->
            incr calls;
            fails q)
      in
      (* every proposal lowers length + sum, so 10^4 evaluations are
         more than a descent from at most 4 values of 20 can spend *)
      let fixpoint =
        Oracle.minimize ~budget:10_000 ~proposals:synthetic_proposals xs
          ~still_fails:fails
      in
      (shrunk = xs || fails shrunk)
      && !calls <= budget
      && not (List.exists fails (synthetic_proposals fixpoint)))

(* ------------------------------------------------------------------ *)
(* A miniature end-to-end oracle run                                   *)

let test_oracle_run_clean () =
  let report = Oracle.run matmul ~cases:150 ~seed:7 ~max_dim:20 in
  let by_shape (r : _ Oracle.report) = List.assoc "shapes" r.Oracle.tallies in
  check_bool "no divergences" true (Oracle.ok report);
  check_int "cases" 150 report.Oracle.cases;
  check_bool "checks ran" true (report.Oracle.checks > 150);
  let sum t = List.fold_left (fun a (_, n) -> a + n) 0 t in
  check_int "shape tally covers every case" 150 (sum (by_shape report));
  check_int "regime tally covers every case" 150
    (sum (List.assoc "regimes (op1)" report.Oracle.tallies));
  (* same seed, same report *)
  let again = Oracle.run matmul ~cases:150 ~seed:7 ~max_dim:20 in
  check_int "deterministic checks" report.Oracle.checks again.Oracle.checks;
  Alcotest.(check (list (pair string int)))
    "deterministic tallies" (by_shape report) (by_shape again)

(* Each oracle at a small size, pinned to the counts the oracles gave
   before they shared one driver: a change that shifts a generator's
   RNG stream, a check or a statistic shows up here. *)
let test_soak_fingerprints () =
  let pin name ~checks ~tallies ~sums (r : _ Oracle.report) ~cases =
    check_int (name ^ " cases") cases r.Oracle.cases;
    check_int (name ^ " checks") checks r.Oracle.checks;
    check_int (name ^ " divergences") 0 (List.length r.Oracle.counterexamples);
    Alcotest.(check (list (pair string (list (pair string int)))))
      (name ^ " tallies") tallies r.Oracle.tallies;
    Alcotest.(check (list (pair string int))) (name ^ " sums") sums r.Oracle.sums
  in
  pin "matmul" ~cases:150 ~checks:4937
    ~tallies:
      [ ("shapes", [ ("chain3", 21); ("pair", 62); ("single", 67) ]);
        ("regimes (op1)",
         [ ("large", 92); ("medium", 33); ("small", 13); ("tiny", 12) ]) ]
    ~sums:[]
    (Oracle.run matmul ~cases:150 ~seed:7 ~max_dim:20);
  pin "nests" ~cases:300 ~checks:3070
    ~tallies:
      [ ("by kind",
         [ ("attn", 70); ("bmm", 55); ("conv", 55); ("gmm", 65); ("mm", 55) ]) ]
    ~sums:[]
    (Oracle.run Nest_check.oracle ~cases:300 ~seed:7);
  pin "graphs" ~cases:40 ~checks:200 ~tallies:[]
    ~sums:[ ("candidate edges", 104); ("cases with fusion", 31) ]
    (Oracle.run Graph_check.oracle ~cases:40 ~seed:5)

(* The determinism drill's corpus (seed 1, 600 lines after the service
   fixture), pinned like the soaks above: a change to the generator
   shows up here as a deliberate re-pin. Ops, lattices and nest kinds
   are counted through [Protocol.parse_line]; reject codes on a fresh
   engine's answers, since unknown_model and infeasible come from the
   planners, not the parser. *)
let test_corpus_fingerprint () =
  let module P = Fusecu_service.Protocol in
  let fixture = In_channel.with_open_text "fixtures/service_requests.ndjson" In_channel.input_lines in
  let corpus = Corpus.make ~prefix:fixture ~seed:1 ~size:600 in
  check_bool "starts with the service fixture" true
    (List.filteri (fun i _ -> i < List.length fixture) corpus = fixture);
  check_int "digest" (-3998442865370804245) (Fusecu_util.Hash.fnv1a64 (String.concat "\n" corpus));
  let tally keys =
    List.map
      (fun k -> (k, List.length (List.filter (String.equal k) keys)))
      (List.sort_uniq String.compare keys)
  in
  let calls =
    List.filter_map
      (fun line ->
        match P.parse_line line with
        | Ok (_, _, P.Call c) -> Some (line, c)
        | _ -> None)
      corpus
  in
  let ops =
    List.map (fun (_, c) -> P.op_name c) calls
    @ List.filter_map
        (fun l -> match P.parse_line l with Ok (_, _, P.Stats) -> Some "stats" | _ -> None)
        corpus
  in
  let lattices =
    List.filter_map
      (fun (line, c) ->
        let written = Option.bind (Result.to_option (Fusecu_util.Json.parse line)) (Fusecu_util.Json.member "mode") in
        let name (mode : Mode.t) =
          match (written, mode) with
          | None, _ -> "default"
          | Some _, Exact -> "exact"
          | Some _, Divisors -> "divisors"
          | Some _, Pow2 -> "pow2"
        in
        match c with
        | P.Intra { mode; _ } | Fuse { mode; _ } | Eval { mode; _ } | Chain { mode; _ }
        | Plan_model { mode; _ } | Nest { mode; _ } ->
          Some (P.op_name c ^ "/" ^ name mode)
        | Regime _ -> None)
      calls
  in
  let kinds =
    List.filter_map (function _, P.Nest { kind; _ } -> Some (P.nest_kind_name kind) | _ -> None) calls
  in
  let rejects =
    Fusecu_service.Engine.handle_lines
      (Fusecu_service.Engine.create (Fusecu_service.Engine.default_config ()))
      corpus
    |> List.filter_map (fun answer ->
           match Fusecu_util.Json.parse answer with
           | Ok j -> (
             match Option.bind (Fusecu_util.Json.member "error" j) (Fusecu_util.Json.member "code") with
             | Some (Fusecu_util.Json.String code) -> Some code
             | _ -> None)
           | Error _ -> None)
  in
  let each what expected keys =
    List.iter
      (fun k -> check_bool (Printf.sprintf "%s %s occurs" what k) true (List.mem k keys))
      expected
  in
  let mode_ops = [ "intra"; "fuse"; "eval"; "chain"; "plan_model"; "nest" ] in
  each "op" ("regime" :: "stats" :: mode_ops) ops;
  each "lattice"
    (List.concat_map
       (fun op -> List.map (fun l -> op ^ "/" ^ l) [ "default"; "exact"; "divisors"; "pow2" ])
       mode_ops)
    lattices;
  each "kind" [ "matmul"; "conv2d"; "batched_mm"; "grouped_mm"; "attention" ] kinds;
  each "reject"
    [ "parse_error"; "bad_request"; "unsupported_version"; "unknown_op"; "unknown_model";
      "infeasible" ]
    rejects;
  let pin what expected keys =
    Alcotest.(check (list (pair string int))) what expected (tally keys)
  in
  pin "ops"
    [ ("chain", 106); ("eval", 63); ("fuse", 91); ("intra", 207); ("nest", 131);
      ("plan_model", 43); ("regime", 57); ("stats", 12) ]
    ops;
  pin "lattices"
    [ ("chain/default", 29); ("chain/divisors", 32); ("chain/exact", 23); ("chain/pow2", 22);
      ("eval/default", 25); ("eval/divisors", 13); ("eval/exact", 12); ("eval/pow2", 13);
      ("fuse/default", 26); ("fuse/divisors", 25); ("fuse/exact", 22); ("fuse/pow2", 18);
      ("intra/default", 87); ("intra/divisors", 41); ("intra/exact", 37); ("intra/pow2", 42);
      ("nest/default", 40); ("nest/divisors", 35); ("nest/exact", 29); ("nest/pow2", 27);
      ("plan_model/default", 14); ("plan_model/divisors", 10); ("plan_model/exact", 10);
      ("plan_model/pow2", 9) ]
    lattices;
  pin "kinds"
    [ ("attention", 29); ("batched_mm", 23); ("conv2d", 27); ("grouped_mm", 25); ("matmul", 27) ]
    kinds;
  pin "rejects"
    [ ("bad_request", 9); ("infeasible", 4); ("parse_error", 6); ("unknown_model", 4);
      ("unknown_op", 4); ("unsupported_version", 4) ]
    rejects

let test_check_spec_matches_run () =
  let p = problem_of_spec "m=6,k=1,l=5,l2=4,bs=16" in
  match Oracle.check_spec matmul "m=6,k=1,l=5,l2=4,bs=16" with
  | Error e -> Alcotest.fail e
  | Ok (q, o) ->
    check_bool "same problem" true (Problem.equal p q);
    check_int "same verdict" (Oracle.outcome matmul p).Oracle.checks o.Oracle.checks

(* ------------------------------------------------------------------ *)
(* Property: analytic cost == simulated traffic on ragged schedules    *)

let ragged_gen =
  QCheck.Gen.(
    let dim = int_range 1 12 in
    dim >>= fun m ->
    dim >>= fun k ->
    dim >>= fun l ->
    int_range 1 m >>= fun tm ->
    int_range 1 k >>= fun tk ->
    int_range 1 l >>= fun tl ->
    int_range 0 (List.length Order.all - 1) >>= fun oi ->
    return (m, k, l, tm, tk, tl, oi))

let prop_sim_equals_cost =
  QCheck.Test.make ~count:300
    ~name:"simulated traffic == analytic cost on arbitrary ragged schedules"
    (QCheck.make
       ~print:(fun (m, k, l, tm, tk, tl, oi) ->
         Printf.sprintf "%dx%dx%d tiles %d/%d/%d order %d" m k l tm tk tl oi)
       ragged_gen)
    (fun (m, k, l, tm, tk, tl, oi) ->
      let op = Matmul.make ~m ~k ~l () in
      let tiling = Tiling.make op ~m:tm ~k:tk ~l:tl in
      let schedule = Schedule.make tiling (List.nth Order.all oi) in
      let analytic = Cost.eval op schedule in
      let simulated = Check.simulate op schedule in
      analytic.Cost.total = simulated.Cost.total
      && List.for_all
           (fun x ->
             let a = Cost.operand analytic x and s = Cost.operand simulated x in
             a.Cost.traffic = s.Cost.traffic
             && a.Cost.fetches = s.Cost.fetches
             && a.Cost.revisit = s.Cost.revisit)
           Operand.all)

(* ------------------------------------------------------------------ *)
(* Property: the stochastic searchers are exact M<->L symmetries       *)

let searcher_gen =
  QCheck.Gen.(
    let dim = int_range 1 10 in
    dim >>= fun m ->
    dim >>= fun k ->
    dim >>= fun l ->
    int_range 3 120 >>= fun bs -> return (m, k, l, bs))

let searcher_print (m, k, l, bs) = Printf.sprintf "%dx%dx%d bs=%d" m k l bs

let transpose_invariant search (m, k, l, bs) =
  let op = Matmul.make ~m ~k ~l () in
  let opT = Matmul.transpose op in
  let buf = Buffer.make bs in
  match (search op buf, search opT buf) with
  | None, None -> true
  | Some a, Some b ->
    a.Exhaustive.cost.Cost.total = b.Exhaustive.cost.Cost.total
  | _ -> false

let prop_genetic_transpose =
  QCheck.Test.make ~count:40
    ~name:"genetic finds the same traffic on the M<->L transpose"
    (QCheck.make ~print:searcher_print searcher_gen)
    (transpose_invariant (fun op buf -> Genetic.search op buf))

(* ------------------------------------------------------------------ *)
(* Whole-model planner graph oracle                                    *)

let corpus_specs =
  let ic = open_in "fixtures/graph_counterexamples.txt" in
  let rec go acc =
    match In_channel.input_line ic with
    | None ->
      close_in ic;
      List.rev acc
    | Some line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc else go (line :: acc)
  in
  go []

(* Every spec in the checked-in corpus must keep passing
   planner-vs-exhaustive conformance, forever. *)
let test_graph_corpus () =
  check_bool "corpus non-empty" true (corpus_specs <> []);
  List.iter
    (fun spec ->
      match Oracle.check_spec Graph_check.oracle spec with
      | Error e -> Alcotest.failf "bad corpus spec %s: %s" spec e
      | Ok (_, o) ->
        List.iter
          (fun (f : Oracle.failure) ->
            Alcotest.failf "%s: [%s] %s" spec f.Oracle.check f.Oracle.detail)
          o.Oracle.failures)
    corpus_specs

let test_graph_spec_round_trip () =
  List.iter
    (fun spec ->
      match Graph_check.of_spec spec with
      | Error e -> Alcotest.failf "bad spec %s: %s" spec e
      | Ok t -> Alcotest.(check string) spec spec (Graph_check.to_spec t))
    corpus_specs;
  check_bool "rejects bad edge order" true
    (Result.is_error (Graph_check.of_spec "m=2,b=9,nodes=1*2:2|1*2:2,edges=1-0"));
  check_bool "rejects dangling edge" true
    (Result.is_error (Graph_check.of_spec "m=2,b=9,nodes=1*2:2,edges=0-1"))

let test_graph_run_pinned () =
  let r1 = Oracle.run Graph_check.oracle ~cases:40 ~seed:5 in
  let r2 = Oracle.run Graph_check.oracle ~cases:40 ~seed:5 in
  let sum (r : _ Oracle.report) name = List.assoc name r.Oracle.sums in
  check_int "checks pinned" r1.Oracle.checks r2.Oracle.checks;
  check_int "edges pinned" (sum r1 "candidate edges") (sum r2 "candidate edges");
  check_int "fused pinned" (sum r1 "cases with fusion") (sum r2 "cases with fusion");
  check_bool "clean" true (Oracle.ok r1)

let test_graph_minimize_converges () =
  (* an artificial predicate: "fails" while the graph still has more
     than one node; the minimal still-failing graph therefore has
     exactly two nodes, no edges, and every dimension at its floor *)
  match Graph_check.of_spec "m=4,b=64,nodes=1*4:4|1*4:4|1*4:4,edges=0-1|1-2" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let shrunk =
      Oracle.minimize ~proposals:Graph_check.oracle.Oracle.proposals t
        ~still_fails:(fun t' -> List.length t'.Graph_check.nodes > 1)
    in
    Alcotest.(check string) "minimal failing graph"
      "m=1,b=3,nodes=1*1:1|1*1:1"
      (Graph_check.to_spec shrunk);
    (* a predicate that never fails leaves the spec untouched *)
    check_bool "fixed point when nothing fails" true
      (Graph_check.to_spec
         (Oracle.minimize ~proposals:Graph_check.oracle.Oracle.proposals t
            ~still_fails:(fun _ -> false))
       = Graph_check.to_spec t)

let () =
  let qtest = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260806 |]) in
  Alcotest.run "oracle"
    [ ( "regressions",
        [ Alcotest.test_case "shrunk counterexamples stay fixed" `Quick
            test_regression_counterexamples;
          Alcotest.test_case "best-of-both = exhaustive on them" `Quick
            test_best_of_both_matches_exhaustive ] );
      ( "reproducibility",
        [ Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
          Alcotest.test_case "rng stream pinned" `Quick test_rng_pinned;
          Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
          Alcotest.test_case "generator pinned" `Quick test_generator_pinned;
          Alcotest.test_case "generator valid" `Quick test_generator_valid ] );
      ( "shrinker",
        [ Alcotest.test_case "proposals strictly smaller" `Quick
            test_proposals_strictly_smaller;
          Alcotest.test_case "greedy minimize converges" `Quick
            test_minimize_converges;
          Alcotest.test_case "last unit of budget keeps its find" `Quick
            test_minimize_last_unit_of_budget;
          qtest prop_minimize ] );
      ( "runner",
        [ Alcotest.test_case "150 cases, zero divergences" `Slow
            test_oracle_run_clean;
          Alcotest.test_case "check_spec = run" `Quick
            test_check_spec_matches_run;
          Alcotest.test_case "soak fingerprints pinned" `Slow
            test_soak_fingerprints ] );
      ( "corpus",
        [ Alcotest.test_case "fingerprint pinned" `Quick test_corpus_fingerprint ] );
      ( "graph-planner",
        [ Alcotest.test_case "corpus stays fixed" `Quick test_graph_corpus;
          Alcotest.test_case "spec round-trip" `Quick
            test_graph_spec_round_trip;
          Alcotest.test_case "run pinned and clean" `Quick test_graph_run_pinned;
          Alcotest.test_case "greedy minimize converges" `Quick
            test_graph_minimize_converges ] );
      ( "properties",
        [ qtest prop_sim_equals_cost;
          qtest prop_genetic_transpose ] ) ]
