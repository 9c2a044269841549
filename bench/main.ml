(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig10 -- one experiment
     dune exec bench/main.exe -- --buffer 2MB -- override the Fig.10/11 buffer
     dune exec bench/main.exe -- --quick      -- trim the slow sweeps
     dune exec bench/main.exe -- --json       -- time the DSE engine
                                                 (seq vs parallel) and
                                                 write BENCH_dse.json
     dune exec bench/main.exe -- --smoke      -- tiny-op smoke of the
                                                 bench machinery (also
                                                 `dune build @bench-smoke`)
     dune exec bench/main.exe -- --service    -- replay the service
                                                 fixture (cache on vs
                                                 off), run the socket
                                                 fault drill, and write
                                                 BENCH_service.json
     dune exec bench/main.exe -- --socket-smoke -- socket fault drill
                                                 only: concurrent
                                                 clients + slow loris +
                                                 mid-batch disconnect
                                                 against the live
                                                 daemon (also part of
                                                 `dune build
                                                 @service-smoke`)
     dune exec bench/main.exe -- --bnb-smoke   -- branch-and-bound vs
                                                 exhaustive on the
                                                 paper fixtures: fails
                                                 if B&B ever misses the
                                                 optimum or spends more
                                                 than 10% of the
                                                 enumeration's cost
                                                 evaluations (also part
                                                 of `dune build
                                                 @bench-smoke`)
     dune exec bench/main.exe -- --nest-smoke -- projective-nest mapper
                                                 vs exhaustive on the
                                                 beyond-matmul zoo
                                                 (conv2d, batched MM,
                                                 GQA, attention pair):
                                                 fails if B&B misses
                                                 the optimum or stops
                                                 pruning (also part of
                                                 `dune build
                                                 @nest-smoke`)
     dune exec bench/main.exe -- --model      -- whole-model planner
                                                 bench: fixtures vs
                                                 exhaustive + a random
                                                 graph soak, results to
                                                 BENCH_model.json
     dune exec bench/main.exe -- --model-smoke -- short strict version
                                                 (also `dune build
                                                 @model-smoke`)
     dune exec bench/main.exe -- --load       -- load generator against
                                                 the live socket server:
                                                 closed-loop p50/p99
                                                 latency, streaming
                                                 throughput, and the
                                                 warm-vs-cold store hit
                                                 rate, merged into
                                                 BENCH_service.json
     dune exec bench/main.exe -- --load-smoke -- short strict version of
                                                 --load (cold/warm
                                                 byte-identity + hit-rate
                                                 gates only; part of
                                                 `dune build
                                                 @store-smoke`)
     dune exec bench/main.exe -- --obs-smoke  -- observability drill:
                                                 2-shard routed replay
                                                 with tracing, debug
                                                 logging and a live
                                                 fleet Prometheus
                                                 exporter — transcripts
                                                 must stay
                                                 byte-identical, the
                                                 per-process traces
                                                 must merge into one
                                                 valid timeline, and
                                                 the fleet metrics
                                                 response must equal
                                                 the shard-wise merge
                                                 (also `dune build
                                                 @obs-smoke`)
     dune exec bench/main.exe -- --store-smoke -- persistence drill:
                                                 1-shard router fleet
                                                 with a store, kill -9,
                                                 warm restart, 2-shard
                                                 replay, plus torn-tail
                                                 and CRC-corruption
                                                 recovery — all held to
                                                 the golden transcript
                                                 (also `dune build
                                                 @store-smoke`)
     dune exec bench/main.exe -- --oracle      -- differential-oracle
                                                 soak: 5000 seeded
                                                 cases (1000 with
                                                 --quick), results to
                                                 BENCH_oracle.json
                                                 (short version: `dune
                                                 build @oracle-smoke`)

   Experiments: table1 table2 table3 example fig9 fig10 fig11 fig12
   energy ablation softmax hierarchy contention gqa chains speed;
   --csv DIR exports figure data *)

let usage () =
  print_endline
    "usage: main.exe [--only \
     table1|table2|table3|example|fig4|fig9|fig10|fig11|fig12|energy|ablation|softmax|hierarchy|speed] [--buffer \
     <size>] [--quick] [--json] [--smoke] [--service] [--socket-smoke] \
     [--bnb-smoke] [--nest-smoke] [--oracle] [--model] [--model-smoke] \
     [--load] [--load-smoke] [--store-smoke] [--obs-smoke] [--trace FILE]";
  exit 1

type options = {
  only : string option;
  buffer : Fusecu_loopnest.Buffer.t;
  quick : bool;
  csv_dir : string option;
  json : bool;
  smoke : bool;
  service : bool;
  socket_smoke : bool;
  bnb_smoke : bool;
  nest_smoke : bool;
  oracle : bool;
  model : bool;
  model_smoke : bool;
  load : bool;
  load_smoke : bool;
  store_smoke : bool;
  obs_smoke : bool;
  trace : string option;
}

(* --oracle: a long differential-conformance soak (much larger than the
   @oracle-smoke alias), with the run parameters and outcome written to
   BENCH_oracle.json so soak results can be tracked over time. Exits
   non-zero on any divergence, like the CLI. *)
let oracle_soak ~quick () =
  let open Fusecu_util in
  let open Fusecu_oracle in
  let o = Check.oracle Check.Principles in
  let cases = if quick then 1000 else 5000 in
  let seed = 7 in
  let t0 = Unix.gettimeofday () in
  let report = Oracle.run o ~cases ~seed in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%a@." (Oracle.pp_report o) report;
  Printf.printf "soak: %.1f s (%.0f cases/s)\n" elapsed
    (float_of_int cases /. elapsed);
  let tally name =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Int v)) (List.assoc name report.Oracle.tallies))
  in
  let json =
    Json.Obj
      [ ("cases", Json.Int report.Oracle.cases);
        ("seed", Json.Int seed);
        ("max_dim", Json.Int o.Oracle.max_dim);
        ("checks", Json.Int report.Oracle.checks);
        ("divergences", Json.Int (List.length report.Oracle.counterexamples));
        ("elapsed_s", Json.Float elapsed);
        ("by_shape", tally "shapes");
        ("by_regime", tally "regimes (op1)");
        ("counterexamples",
         Json.List
           (List.map
              (fun (ce : Problem.t Oracle.counterexample) ->
                Json.String (Problem.to_spec ce.Oracle.shrunk))
              report.Oracle.counterexamples)) ]
  in
  Out_channel.with_open_text "BENCH_oracle.json" (fun oc ->
      output_string oc (Json.print_hum json ^ "\n"));
  print_endline "wrote BENCH_oracle.json";
  if not (Oracle.ok report) then exit 1

let parse_args () =
  let only = ref None and buffer = ref Experiments.default_buffer in
  let quick = ref false and csv_dir = ref None in
  let json = ref false and smoke = ref false and service = ref false in
  let socket_smoke = ref false and bnb_smoke = ref false in
  let nest_smoke = ref false in
  let oracle = ref false in
  let model = ref false and model_smoke = ref false in
  let load = ref false and load_smoke = ref false in
  let store_smoke = ref false and obs_smoke = ref false in
  let trace = ref None in
  let rec loop = function
    | [] -> ()
    | "--only" :: tag :: rest ->
      only := Some tag;
      loop rest
    | "--buffer" :: size :: rest ->
      (match Fusecu_util.Units.parse_bytes size with
      | Ok bytes -> buffer := Fusecu_loopnest.Buffer.make bytes
      | Error e ->
        prerr_endline e;
        usage ());
      loop rest
    | "--quick" :: rest ->
      quick := true;
      loop rest
    | "--json" :: rest ->
      json := true;
      loop rest
    | "--smoke" :: rest ->
      smoke := true;
      loop rest
    | "--service" :: rest ->
      service := true;
      loop rest
    | "--socket-smoke" :: rest ->
      socket_smoke := true;
      loop rest
    | "--bnb-smoke" :: rest ->
      bnb_smoke := true;
      loop rest
    | "--nest-smoke" :: rest ->
      nest_smoke := true;
      loop rest
    | "--oracle" :: rest ->
      oracle := true;
      loop rest
    | "--model" :: rest ->
      model := true;
      loop rest
    | "--model-smoke" :: rest ->
      model_smoke := true;
      loop rest
    | "--load" :: rest ->
      load := true;
      loop rest
    | "--load-smoke" :: rest ->
      load_smoke := true;
      loop rest
    | "--store-smoke" :: rest ->
      store_smoke := true;
      loop rest
    | "--obs-smoke" :: rest ->
      obs_smoke := true;
      loop rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      loop rest
    | "--trace" :: file :: rest ->
      trace := Some file;
      loop rest
    | "--help" :: _ | "-h" :: _ -> usage ()
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  loop (List.tl (Array.to_list Sys.argv));
  { only = !only; buffer = !buffer; quick = !quick; csv_dir = !csv_dir;
    json = !json; smoke = !smoke; service = !service;
    socket_smoke = !socket_smoke; bnb_smoke = !bnb_smoke;
    nest_smoke = !nest_smoke; oracle = !oracle;
    model = !model; model_smoke = !model_smoke; load = !load;
    load_smoke = !load_smoke; store_smoke = !store_smoke;
    obs_smoke = !obs_smoke; trace = !trace }

let () =
  let { only; buffer; quick; csv_dir; json; smoke; service; socket_smoke;
        bnb_smoke; nest_smoke; oracle; model; model_smoke; load; load_smoke;
        store_smoke; obs_smoke; trace } =
    parse_args ()
  in
  (* --trace FILE: profile whatever runs below and write a Chrome
     trace-event JSON on exit (at_exit covers every early-exit path).
     [Speed.write_json] manages its own collection window, so --json
     runs also get a file without double-starting. *)
  (match trace with
  | None -> ()
  | Some file ->
    if not json then Fusecu_util.Trace.start ();
    at_exit (fun () ->
        Fusecu_util.Trace.stop ();
        Fusecu_util.Trace.export file));
  if smoke then begin
    Speed.smoke ();
    exit 0
  end;
  if socket_smoke then begin
    Service_replay.socket_smoke ();
    exit 0
  end;
  if bnb_smoke then begin
    Speed.bnb_smoke ();
    exit 0
  end;
  if nest_smoke then begin
    Nest_bench.smoke ();
    exit 0
  end;
  if oracle then begin
    oracle_soak ~quick ();
    exit 0
  end;
  if model then begin
    Model_bench.write_json ~quick ();
    exit 0
  end;
  if model_smoke then begin
    Model_bench.smoke ();
    exit 0
  end;
  if store_smoke then begin
    (* must run before anything touches the global domain pool: the
       drill forks a shard fleet, and forking a process with live
       worker domains is undefined *)
    Store_drill.run ~fixture:(Service_replay.resolve_fixture ()) ();
    exit 0
  end;
  if obs_smoke then begin
    (* forks fleets too: same before-the-pool rule as --store-smoke *)
    Obs_drill.run ~fixture:(Service_replay.resolve_fixture ()) ();
    exit 0
  end;
  if load_smoke then begin
    Load.smoke ();
    exit 0
  end;
  if load then begin
    let rows = Load.run ~quick () in
    Service_replay.write_json ~load:rows ();
    exit 0
  end;
  if service then begin
    Service_replay.write_json ();
    exit 0
  end;
  if json then begin
    Speed.write_json
      ~nest:(List.map Nest_bench.row_json (Nest_bench.rows ()))
      ();
    exit 0
  end;
  let run tag f =
    match only with
    | Some t when t <> tag -> ()
    | _ -> f ()
  in
  run "table1" Experiments.table1;
  run "table2" Experiments.table2;
  run "table3" Experiments.table3;
  run "example" Experiments.example;
  run "fig4" Experiments.fig4;
  run "fig9" (fun () ->
      if quick then Experiments.run_fig9_quick () else Experiments.fig9 ());
  run "fig10" (fun () -> Experiments.fig10 ~buf:buffer ());
  run "fig11" (fun () -> Experiments.fig11 ~buf:buffer ());
  run "fig12" Experiments.fig12;
  run "energy" (fun () -> Experiments.energy ~buf:buffer ());
  run "ablation" (fun () -> Experiments.ablation ~buf:buffer ());
  run "softmax" (fun () -> Experiments.softmax ~buf:buffer ());
  run "hierarchy" Experiments.hierarchy;
  run "contention" (fun () -> Experiments.contention ~buf:buffer ());
  run "gqa" (fun () -> Experiments.gqa ~buf:buffer ());
  run "chains" (fun () -> Experiments.chains ~buf:buffer ());
  run "speed" (fun () -> if not quick then Speed.run ());
  Option.iter (fun dir -> Experiments.export_csv ~buf:buffer ~dir ()) csv_dir
