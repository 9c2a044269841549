(* Benchmark harness: with no mode, regenerates every table and figure
   of the paper (`dune exec bench/main.exe`, optionally `--only TAG`,
   `--buffer SIZE`, `--quick`, `--csv DIR`); a mode flag runs one mode
   of [modes] instead. `--trace FILE` profiles whatever runs and writes
   a Chrome trace on exit. `main.exe --help` lists the modes. *)

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
let modes : (string * string * (unit -> unit)) list =
  [ ( "--store-smoke",
      "kill -9 and warm restart of a stored 1-shard fleet: warm = cold",
      Store_drill.run );
    ( "--obs-smoke",
      "traced, logged, scraped 2-shard replay: same bytes, one trace, merged metrics",
      Obs_drill.run );
    ( "--determinism-smoke",
      "the seeded corpus once per matrix cell: every answer = the reference cell's",
      Determinism.run ) ]

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
     trace-event JSON on exit (at_exit covers every early-exit path). *)
  Option.iter
    (fun file ->
      Fusecu_util.Trace.start ();
      at_exit (fun () ->
          Fusecu_util.Trace.stop ();
          Fusecu_util.Trace.export file))
    !trace;
  match !mode with
  | Some flag ->
    List.iter (fun (f, _, action) -> if f = flag then action ()) modes
  | None ->
    List.iter
      (fun (tag, run) -> if Option.fold ~none:true ~some:(String.equal tag) !only then run ())
      (experiments ~buffer:!buffer ~quick:!quick);
    Option.iter (fun dir -> Experiments.export_csv ~buf:!buffer ~dir ()) !csv_dir
