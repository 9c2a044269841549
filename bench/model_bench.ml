(* Whole-model planner benchmark: measures the DP / branch-and-bound
   partitioner against exhaustive enumeration on the Table-II model
   fixtures, soaks it on seeded random graphs through the differential
   graph oracle, and records everything in BENCH_model.json.

   [--model-smoke] (the @model-smoke alias) runs the small fixtures and
   a short soak and fails the build on any planner-vs-exhaustive
   mismatch; [--model] is the long version with the full soak. *)

open Fusecu_util
open Fusecu_workloads
open Fusecu_planner

type fixture = { model : string; layers : int; bytes : int }

let fixtures =
  [ { model = "bert"; layers = 1; bytes = 512 * 1024 };
    { model = "bert"; layers = 1; bytes = 8 * 1024 * 1024 };
    { model = "bert"; layers = 2; bytes = 512 * 1024 };
    { model = "bert"; layers = 2; bytes = 8 * 1024 * 1024 };
    { model = "bert"; layers = 4; bytes = 8 * 1024 * 1024 };
    { model = "llama2"; layers = 1; bytes = 2 * 1024 * 1024 };
    { model = "llama2"; layers = 2; bytes = 2 * 1024 * 1024 } ]

let smoke_fixtures = List.filter (fun f -> f.layers <= 2) fixtures

type row = {
  fixture : fixture;
  groups : int;
  fused : int;
  candidate_edges : int;
  dp_states : int;
  bnb_nodes : int;
  exhaustive_partitions : int;
  plan_ms : float;
  traffic : int;
  effective : int;
  unfused_effective : int;
  agrees : bool;
}

let edge_key (e : Partition.edge) = (e.Partition.src, e.Partition.dst)

(* One fixture: plan, time it, then hold the result to the enumerated
   optimum (same effective cost, raw traffic, and chosen cuts). *)
let run_fixture f =
  let model =
    match Zoo.find f.model with
    | Some m -> m
    | None -> failwith ("model_bench: unknown model " ^ f.model)
  in
  let g = Graph.stack (Graph.of_model model) ~layers:f.layers in
  let buf = Fusecu_loopnest.Buffer.make f.bytes in
  let t0 = Unix.gettimeofday () in
  let p =
    match Partition.plan g buf with
    | Ok p -> p
    | Error e -> failwith (Printf.sprintf "model_bench: plan %s/%d failed: %s" f.model f.layers e)
  in
  let plan_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let ex =
    match Partition.exhaustive g buf with
    | Ok ex -> ex
    | Error e ->
      failwith
        (Printf.sprintf "model_bench: exhaustive %s/%d failed: %s" f.model
           f.layers e)
  in
  let b = ex.Partition.best in
  let agrees =
    p.Partition.effective = b.Partition.effective
    && p.Partition.traffic = b.Partition.traffic
    && List.map edge_key p.Partition.selected
       = List.map edge_key b.Partition.selected
  in
  let s = p.Partition.stats in
  { fixture = f;
    groups = List.length p.Partition.groups;
    fused = List.length p.Partition.selected;
    candidate_edges = s.Partition.candidate_edges;
    dp_states = s.Partition.dp_states;
    bnb_nodes = s.Partition.bnb_nodes;
    exhaustive_partitions = ex.Partition.partitions;
    plan_ms;
    traffic = p.Partition.traffic;
    effective = p.Partition.effective;
    unfused_effective = p.Partition.unfused_effective;
    agrees }

let saved_pct r =
  if r.unfused_effective = 0 then 0.0
  else
    100.0
    *. float_of_int (r.unfused_effective - r.effective)
    /. float_of_int r.unfused_effective

let print_rows rows =
  let t =
    Table.create
      [ "Model"; "Layers"; "Buffer"; "Groups"; "Fused"; "DP+B&B"; "Exhaustive";
        "Plan ms"; "Saved"; "Agrees" ]
  in
  let t =
    Table.add_rows t
      (List.map
         (fun r ->
           [ r.fixture.model;
             string_of_int r.fixture.layers;
             Units.pp_bytes r.fixture.bytes;
             string_of_int r.groups;
             string_of_int r.fused;
             string_of_int (r.dp_states + r.bnb_nodes);
             string_of_int r.exhaustive_partitions;
             Printf.sprintf "%.1f" r.plan_ms;
             Printf.sprintf "%.1f%%" (saved_pct r);
             (if r.agrees then "yes" else "NO") ])
         rows)
  in
  Table.print t

let row_json r =
  Json.Obj
    [ ("model", Json.String r.fixture.model);
      ("layers", Json.Int r.fixture.layers);
      ("buffer_bytes", Json.Int r.fixture.bytes);
      ("groups", Json.Int r.groups);
      ("fused_edges", Json.Int r.fused);
      ("candidate_edges", Json.Int r.candidate_edges);
      ("dp_states", Json.Int r.dp_states);
      ("bnb_nodes", Json.Int r.bnb_nodes);
      ("exhaustive_partitions", Json.Int r.exhaustive_partitions);
      ("plan_ms", Json.Float r.plan_ms);
      ("traffic", Json.Int r.traffic);
      ("effective", Json.Int r.effective);
      ("unfused_effective", Json.Int r.unfused_effective);
      ("saved_pct", Json.Float (saved_pct r));
      ("agrees_with_exhaustive", Json.Bool r.agrees) ]

(* The random-graph soak: DP / B&B vs exhaustive on seeded graphs the
   fixtures never produce (diamonds, mixed counts, infeasible buffers). *)
let soak ~cases ~seed =
  let open Fusecu_oracle in
  let t0 = Unix.gettimeofday () in
  let report = Oracle.run ~log:prerr_endline Graph_check.oracle ~cases ~seed in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%a@." (Oracle.pp_report Graph_check.oracle) report;
  Printf.printf "soak: %.1f s (%.0f graphs/s)\n" elapsed
    (float_of_int cases /. elapsed);
  (report, elapsed)

let soak_json (report : Fusecu_oracle.Graph_check.t Fusecu_oracle.Oracle.report)
    elapsed ~seed =
  let open Fusecu_oracle in
  let sum name = Json.Int (List.assoc name report.Oracle.sums) in
  Json.Obj
    [ ("cases", Json.Int report.Oracle.cases);
      ("seed", Json.Int seed);
      ("checks", Json.Int report.Oracle.checks);
      ("candidate_edges", sum "candidate edges");
      ("fused_cases", sum "cases with fusion");
      ("divergences", Json.Int (List.length report.Oracle.counterexamples));
      ("elapsed_s", Json.Float elapsed);
      ("counterexamples",
       Json.List
         (List.map
            (fun (ce : Graph_check.t Oracle.counterexample) ->
              Json.String (Graph_check.to_spec ce.Oracle.shrunk))
            report.Oracle.counterexamples)) ]

let write_json ~quick () =
  let rows = List.map run_fixture fixtures in
  print_rows rows;
  let cases = if quick then 500 else 1000 in
  let seed = 7 in
  let report, elapsed = soak ~cases ~seed in
  let json =
    Json.Obj
      [ ("models", Json.List (List.map row_json rows));
        ("graph_soak", soak_json report elapsed ~seed) ]
  in
  Out_channel.with_open_text "BENCH_model.json" (fun oc ->
      output_string oc (Json.print_hum json ^ "\n"));
  print_endline "wrote BENCH_model.json";
  if List.exists (fun r -> not r.agrees) rows then begin
    prerr_endline "model_bench: planner diverged from exhaustive on a fixture";
    exit 1
  end;
  if not (Fusecu_oracle.Oracle.ok report) then exit 1

(* @model-smoke: small fixtures + a short soak, strict. *)
let smoke () =
  let rows = List.map run_fixture smoke_fixtures in
  print_rows rows;
  if List.exists (fun r -> not r.agrees) rows then begin
    prerr_endline "model_bench: planner diverged from exhaustive on a fixture";
    exit 1
  end;
  let report, _ = soak ~cases:120 ~seed:11 in
  if not (Fusecu_oracle.Oracle.ok report) then exit 1;
  print_endline "model smoke ok"
