(* Benchmark harness: with no mode, regenerates every table and figure
   of the paper (`dune exec bench/main.exe`, optionally `--only TAG`,
   `--buffer SIZE`, `--quick`, `--csv DIR`); a mode flag runs one mode
   of [modes] instead. `--trace FILE` profiles whatever runs and writes
   a Chrome trace on exit. `main.exe --help` lists the modes. *)

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

(* The paper's tables and figures, by --only tag. *)
let experiments ~buffer ~quick =
  [ ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("example", Experiments.example);
    ("fig4", Experiments.fig4);
    ("fig9", fun () -> if quick then Experiments.run_fig9_quick () else Experiments.fig9 ());
    ("fig10", fun () -> Experiments.fig10 ~buf:buffer ());
    ("fig11", fun () -> Experiments.fig11 ~buf:buffer ());
    ("fig12", Experiments.fig12);
    ("energy", fun () -> Experiments.energy ~buf:buffer ());
    ("ablation", fun () -> Experiments.ablation ~buf:buffer ());
    ("softmax", fun () -> Experiments.softmax ~buf:buffer ());
    ("hierarchy", Experiments.hierarchy);
    ("contention", fun () -> Experiments.contention ~buf:buffer ());
    ("gqa", fun () -> Experiments.gqa ~buf:buffer ());
    ("chains", fun () -> Experiments.chains ~buf:buffer ());
    ("speed", fun () -> if not quick then Speed.run ()) ]

(* (flag, what it does, action): one mode per run. The fleet drills
   fork shard processes, so they run before anything in this process
   starts a domain pool. *)
let modes : (string * string * (quick:bool -> unit)) list =
  [ ( "--json",
      "time the DSE engine, sequential vs parallel; writes BENCH_dse.json",
      fun ~quick:_ ->
        Speed.write_json ~nest:(List.map Nest_bench.row_json (Nest_bench.rows ())) () );
    ("--smoke", "tiny-op smoke of the bench machinery: parallel = sequential", fun ~quick:_ -> Speed.smoke ());
    ( "--bnb-smoke",
      "B&B = exhaustive on the paper fixtures, within 10% of its evaluations",
      fun ~quick:_ -> Speed.bnb_smoke () );
    ( "--nest-smoke",
      "nest B&B = exhaustive on the beyond-matmul zoo, pruning",
      fun ~quick:_ -> Nest_bench.smoke () );
    ( "--model",
      "whole-model planner vs exhaustive and a graph soak; writes BENCH_model.json",
      fun ~quick -> Model_bench.write_json ~quick () );
    ("--model-smoke", "short strict version of --model", fun ~quick:_ -> Model_bench.smoke ());
    ( "--oracle",
      "5,000-case differential soak (1,000 with --quick); writes BENCH_oracle.json",
      fun ~quick -> oracle_soak ~quick () );
    ( "--socket-smoke",
      "concurrent clients, slow loris and mid-batch disconnect vs the golden",
      fun ~quick:_ -> Socket_drill.run () );
    ( "--store-smoke",
      "kill -9 and warm restart of a stored shard; torn-tail and CRC recovery",
      fun ~quick:_ -> Store_drill.run () );
    ( "--obs-smoke",
      "traced, logged, scraped 2-shard replay: same bytes, one trace, merged metrics",
      fun ~quick:_ -> Obs_drill.run () );
    ( "--determinism-smoke",
      "the seeded corpus once per matrix cell: every answer = the reference cell's",
      fun ~quick:_ -> Determinism.run () ) ]

let usage () =
  print_endline
    "usage: main.exe [MODE] [--only TAG] [--buffer SIZE] [--quick] [--csv DIR] [--trace FILE]";
  Printf.printf "With no MODE, the paper's experiments; --only TAG is one of:\n  %s\nModes:\n"
    (String.concat " "
       (List.map fst (experiments ~buffer:Experiments.default_buffer ~quick:false)));
  List.iter (fun (flag, doc, _) -> Printf.printf "  %-20s %s\n" flag doc) modes;
  exit 1

let () =
  let mode = ref None and only = ref None and buffer = ref Experiments.default_buffer in
  let quick = ref false and csv_dir = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: tag :: rest ->
      only := Some tag;
      parse rest
    | "--buffer" :: size :: rest ->
      (match Fusecu_util.Units.parse_bytes size with
      | Ok bytes -> buffer := Fusecu_loopnest.Buffer.make bytes
      | Error e ->
        prerr_endline e;
        usage ());
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--trace" :: file :: rest ->
      trace := Some file;
      parse rest
    | arg :: rest when List.exists (fun (flag, _, _) -> flag = arg) modes ->
      mode := Some arg;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* --trace FILE: profile whatever runs below and write a Chrome
     trace-event JSON on exit (at_exit covers every early-exit path).
     [Speed.write_json] manages its own collection window, so --json
     runs also get a file without double-starting. *)
  Option.iter
    (fun file ->
      if !mode <> Some "--json" then Fusecu_util.Trace.start ();
      at_exit (fun () ->
          Fusecu_util.Trace.stop ();
          Fusecu_util.Trace.export file))
    !trace;
  match !mode with
  | Some flag ->
    List.iter (fun (f, _, action) -> if f = flag then action ~quick:!quick) modes
  | None ->
    List.iter
      (fun (tag, run) -> if Option.fold ~none:true ~some:(String.equal tag) !only then run ())
      (experiments ~buffer:!buffer ~quick:!quick);
    Option.iter (fun dir -> Experiments.export_csv ~buf:!buffer ~dir ()) !csv_dir
