(* fusecu_opt: command-line front end to the principle-based dataflow
   optimizer and the FuseCU architecture model.

   Subcommands:
     intra    - optimal dataflow for one matmul under a buffer
     fuse     - fusion decision for a producer/consumer pair
     regime   - buffer-regime table for an operator
     search   - compare the principles against exhaustive / genetic DSE
     eval     - evaluate a Table-II model on every platform
     explain  - prose derivation of a dataflow choice
     trace    - tile fetch/compute trace of a dataflow
     hierarchy- two-level (buffer + register) planning
     chain    - whole-chain fusion planning
     plan     - whole-model partitioning into fusion groups
     area     - FuseCU area breakdown
     simulate - run a fused matmul chain on the structural array model *)

open Cmdliner
open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let dim_arg name doc =
  Arg.(required & opt (some int) None & info [ name ] ~docv:"N" ~doc)

let buffer_arg =
  let parse s =
    match Fusecu_util.Units.parse_bytes s with
    | Ok bytes when bytes >= 1 -> Ok (Buffer.make bytes)
    | Ok _ -> Error (`Msg "buffer must be at least one byte")
    | Error e -> Error (`Msg e)
  in
  let print fmt (b : Buffer.t) =
    Format.pp_print_string fmt (Fusecu_util.Units.pp_bytes b.bytes)
  in
  let buffer_conv = Arg.conv ~docv:"SIZE" (parse, print) in
  Arg.(
    value
    & opt buffer_conv (Buffer.of_kib 512)
    & info [ "b"; "buffer" ] ~docv:"SIZE" ~doc:"On-chip buffer size (e.g. 512KB, 32MB).")

let mode_arg =
  let modes =
    [ ("exact", Mode.Exact); ("divisors", Mode.Divisors); ("pow2", Mode.Pow2) ]
  in
  Arg.(
    value
    & opt (enum modes) Mode.Divisors
    & info [ "mode" ] ~docv:"MODE" ~doc:"Tile lattice: exact, divisors or pow2.")

let mkl ?(prefix = "") () =
  let p n = prefix ^ n in
  Term.(
    const (fun m k l -> Matmul.make ~m ~k ~l ())
    $ dim_arg (p "m") "Rows of A (and C)."
    $ dim_arg (p "k") "Columns of A / rows of B (reduction dim)."
    $ dim_arg (p "l") "Columns of B (and C).")

(* ------------------------------------------------------------------ *)
(* Observability (shared by sweep, search, serve)                      *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Profile the run: collect spans (enumerate / evaluate / merge \
              phases, pool chunks, service batches) and write a Chrome \
              trace-event JSON profile to FILE on exit, loadable in \
              chrome://tracing or Perfetto. Tracing never writes to stdout, \
              so command output is unchanged.")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Structured NDJSON logging to stderr: debug, info, warn, error \
              or off (default: \\$FUSECU_LOG, else off). Logs never touch \
              stdout.")

(* Apply the requested logging level and, when tracing, bracket [f] with
   collection so the profile is written even if [f] raises. *)
let with_observability ~trace ~log_level f =
  (match log_level with
  | None -> ()
  | Some s -> (
    match Fusecu_util.Log.level_of_string s with
    | Ok lvl -> Fusecu_util.Log.set_level lvl
    | Error e ->
      prerr_endline ("--log-level: " ^ e);
      exit 2));
  match trace with
  | None -> f ()
  | Some path ->
    Fusecu_util.Trace.start ();
    Fun.protect
      ~finally:(fun () ->
        Fusecu_util.Trace.stop ();
        Fusecu_util.Trace.export path)
      f

(* ------------------------------------------------------------------ *)
(* intra                                                               *)

let intra_cmd =
  let run op buf mode =
    match Intra.optimize ~mode op buf with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok plan ->
      Format.printf "%a@." Intra.pp_plan plan;
      Format.printf "redundancy over the unbounded lower bound: %.3f@."
        (Intra.redundancy plan)
  in
  let term = Term.(const run $ mkl () $ buffer_arg $ mode_arg) in
  Cmd.v
    (Cmd.info "intra" ~doc:"Principle-based intra-operator dataflow for one matmul.")
    term

(* ------------------------------------------------------------------ *)
(* fuse                                                                *)

let fuse_cmd =
  let run op1 l2 buf mode =
    let op2 =
      Matmul.make ~name:"consumer" ~m:op1.Matmul.m ~k:op1.Matmul.l ~l:l2 ()
    in
    let pair = Fused.make_pair_exn op1 op2 in
    match Fusion.plan_pair ~mode pair buf with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok decision ->
      Format.printf "pair: %a | %a@." Matmul.pp op1 Matmul.pp op2;
      Format.printf "%a@." Fusion.pp_decision decision
  in
  let l2 =
    Arg.(
      required
      & opt (some int) None
      & info [ "l2" ] ~docv:"N" ~doc:"Columns of the consumer's weight matrix D.")
  in
  let term = Term.(const run $ mkl () $ l2 $ buffer_arg $ mode_arg) in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Fusion decision for A(M,K) x B(K,L) = C followed by C x D(L,L2) = E.")
    term

(* ------------------------------------------------------------------ *)
(* regime                                                              *)

let regime_cmd =
  let run op =
    let th = Regime.thresholds op in
    Format.printf "%a@." Matmul.pp op;
    let t =
      Fusecu_util.Table.create [ "Regime"; "Buffer range (elements)"; "Dataflow" ]
    in
    let pp_classes regime =
      String.concat " or "
        (List.map Nra.to_string (Regime.expected_classes regime))
    in
    let rows =
      [ [ "tiny"; Printf.sprintf "<= %d" th.tiny_max; pp_classes Regime.Tiny ];
        [ "small"; Printf.sprintf "%d - %d" (th.tiny_max + 1) th.small_max;
          pp_classes Regime.Small ];
        [ "medium"; Printf.sprintf "%d - %d" (th.small_max + 1) th.medium_max;
          pp_classes Regime.Medium ];
        [ "large"; Printf.sprintf "> %d" th.medium_max; pp_classes Regime.Large ] ]
    in
    Fusecu_util.Table.print (Fusecu_util.Table.add_rows t rows)
  in
  let term = Term.(const run $ mkl ()) in
  Cmd.v
    (Cmd.info "regime" ~doc:"Buffer-size regimes and predicted NRA classes.")
    term

(* ------------------------------------------------------------------ *)
(* search                                                              *)

let search_cmd =
  let run op buf trace log_level =
    with_observability ~trace ~log_level @@ fun () ->
    let principle = Intra.optimize_exn op buf in
    Format.printf "principles: MA=%s %a@."
      (Fusecu_util.Units.pp_count (Intra.ma principle))
      Schedule.pp principle.schedule;
    (match Fusecu_dse.Exhaustive.search op buf with
    | Some r ->
      Format.printf "exhaustive: MA=%s %a (%d schedules)@."
        (Fusecu_util.Units.pp_count r.cost.Cost.total)
        Schedule.pp r.schedule r.explored
    | None -> print_endline "exhaustive: infeasible");
    (match
       Fusecu_dse.Bnb.search_with_stats ~seed:principle.Intra.schedule op buf
     with
    | Some r, stats ->
      Format.printf "bnb:        MA=%s %a (%d evaluations, %d pruned)@."
        (Fusecu_util.Units.pp_count r.cost.Cost.total)
        Schedule.pp r.schedule r.explored
        (stats.Fusecu_dse.Bnb.pruned_bound
        + stats.Fusecu_dse.Bnb.pruned_infeasible)
    | None, _ -> print_endline "bnb: infeasible");
    match Fusecu_dse.Genetic.search op buf with
    | Some r ->
      Format.printf "genetic:    MA=%s %a (%d evaluations)@."
        (Fusecu_util.Units.pp_count r.cost.Cost.total)
        Schedule.pp r.schedule r.explored
    | None -> print_endline "genetic: infeasible"
  in
  let term =
    Term.(const run $ mkl () $ buffer_arg $ trace_file_arg $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Compare the principles against searched baselines.")
    term

(* ------------------------------------------------------------------ *)
(* eval                                                                *)

let eval_cmd =
  let run model_name buf =
    match Fusecu_workloads.Zoo.find model_name with
    | None ->
      Printf.eprintf "unknown model %S (try: %s)\n" model_name
        (String.concat ", "
           (List.map
              (fun (m : Fusecu_workloads.Model.t) -> m.name)
              Fusecu_workloads.Zoo.all));
      exit 1
    | Some model ->
      let w = Fusecu_workloads.Workload.of_model model in
      let t =
        Fusecu_util.Table.create
          [ "Platform"; "Traffic"; "Cycles"; "Utilization" ]
      in
      let rows =
        List.map
          (fun p ->
            match Fusecu_arch.Perf.eval_workload p buf w with
            | Ok e ->
              [ p.Fusecu_arch.Platform.name;
                Fusecu_util.Units.pp_count e.traffic;
                Fusecu_util.Units.pp_count e.cycles;
                Fusecu_util.Units.pp_pct e.utilization ]
            | Error e -> [ p.Fusecu_arch.Platform.name; "error: " ^ e ])
          Fusecu_arch.Platform.all
      in
      Fusecu_util.Table.print (Fusecu_util.Table.add_rows t rows)
  in
  let model =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Model name from Table II (e.g. Bert, LLaMA2).")
  in
  let term = Term.(const run $ model $ buffer_arg) in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a transformer layer on every platform.")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run op l2 buf mode =
    match l2 with
    | None -> (
      match Explain.intra ~mode op buf with
      | Ok text -> print_string text
      | Error e ->
        prerr_endline e;
        exit 1)
    | Some l2 -> (
      let op2 =
        Matmul.make ~name:"consumer" ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 ()
      in
      let pair = Fused.make_pair_exn op op2 in
      match Explain.fusion ~mode pair buf with
      | Ok text -> print_string text
      | Error e ->
        prerr_endline e;
        exit 1)
  in
  let l2 =
    Arg.(
      value
      & opt (some int) None
      & info [ "l2" ]
          ~docv:"N"
          ~doc:"Explain the fusion with a consumer C x D(L,L2) instead of the \
                intra dataflow.")
  in
  let term = Term.(const run $ mkl () $ l2 $ buffer_arg $ mode_arg) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Derive, in prose, why the principles choose a dataflow.")
    term

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let run op buf mode max_events =
    match Intra.optimize ~mode op buf with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok plan ->
      Format.printf "schedule: %a@." Schedule.pp plan.schedule;
      print_string (Trace.render ~max_events op plan.schedule)
  in
  let max_events =
    Arg.(
      value & opt int 48
      & info [ "max-events" ] ~docv:"N" ~doc:"Events to print before truncating.")
  in
  let term = Term.(const run $ mkl () $ buffer_arg $ mode_arg $ max_events) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the tile fetch/compute trace of the optimized dataflow.")
    term

(* ------------------------------------------------------------------ *)
(* hierarchy                                                           *)

let hierarchy_cmd =
  let run op buf pe_dim =
    let stack =
      Fusecu_hierarchy.Stack.tpu_like ~pe_dim ~buffer_bytes:buf.Buffer.bytes ()
    in
    match Fusecu_hierarchy.Stack.optimize stack op with
    | Ok plan -> Format.printf "%a@." Fusecu_hierarchy.Stack.pp_plan plan
    | Error e ->
      prerr_endline e;
      exit 1
  in
  let pe_dim =
    Arg.(
      value & opt int 128
      & info [ "pe-dim" ] ~docv:"N" ~doc:"Compute-unit dimension (register level N^2).")
  in
  let term = Term.(const run $ mkl () $ buffer_arg $ pe_dim) in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Apply the principles through the buffer and register levels.")
    term

(* ------------------------------------------------------------------ *)
(* chain                                                               *)

let chain_cmd =
  let run m ks buf =
    let chain = Chain.of_dims ~name:"chain" ~m ks in
    match Multi_fusion.plan chain buf with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok decision ->
      Format.printf "chain: %a@." Chain.pp chain;
      (match decision with
      | Multi_fusion.Full_fusion { traffic; _ } ->
        Format.printf "whole-chain fusion: traffic %s (fused bound %s)@."
          (Fusecu_util.Units.pp_count traffic)
          (Fusecu_util.Units.pp_count (Chain.ideal_ma_fused chain))
      | Multi_fusion.Fallback plan ->
        Format.printf "pairwise plan: traffic %s@."
          (Fusecu_util.Units.pp_count plan.Planner.traffic))
  in
  let m_arg =
    Arg.(required & opt (some int) None & info [ "m" ] ~docv:"N" ~doc:"Shared row dimension.")
  in
  let ks =
    Arg.(
      non_empty
      & pos_all int []
      & info [] ~docv:"K0 K1 ..." ~doc:"Chain dims: (m,K0,K1), (m,K1,K2), ...")
  in
  let term = Term.(const run $ m_arg $ ks $ buffer_arg) in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Plan a multi-operator chain (whole-chain fusion vs pairwise).")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_cmd =
  let run op from_b to_b trace log_level =
    with_observability ~trace ~log_level @@ fun () ->
    let points =
      Buffer_sweep.run op
        ~bytes:
          (Buffer_sweep.geometric ~from_bytes:from_b.Buffer.bytes
             ~to_bytes:to_b.Buffer.bytes ~steps_per_octave:2 ())
    in
    let t =
      Fusecu_util.Table.create [ "Buffer"; "MA"; "Class"; "vs bound" ]
    in
    let rows =
      List.map
        (fun (p : Buffer_sweep.point) ->
          [ Fusecu_util.Units.pp_bytes p.bytes;
            Fusecu_util.Units.pp_count p.ma;
            Nra.to_string p.nra;
            Printf.sprintf "%.2fx" p.redundancy ])
        points
    in
    Fusecu_util.Table.print (Fusecu_util.Table.add_rows t rows);
    List.iter
      (fun (bytes, before, after) ->
        Printf.printf "transition at %s: %s -> %s\n"
          (Fusecu_util.Units.pp_bytes bytes)
          (Nra.to_string before) (Nra.to_string after))
      (Buffer_sweep.transitions points)
  in
  let size_opt name default doc =
    let parse s =
      match Fusecu_util.Units.parse_bytes s with
      | Ok bytes when bytes >= 1 -> Ok (Buffer.make bytes)
      | Ok _ -> Error (`Msg "size must be positive")
      | Error e -> Error (`Msg e)
    in
    let print fmt (b : Buffer.t) =
      Format.pp_print_string fmt (Fusecu_util.Units.pp_bytes b.bytes)
    in
    Arg.(
      value
      & opt (conv ~docv:"SIZE" (parse, print)) (Buffer.make default)
      & info [ name ] ~docv:"SIZE" ~doc)
  in
  let term =
    Term.(
      const run $ mkl ()
      $ size_opt "from" 1024 "Smallest buffer in the sweep."
      $ size_opt "to" (32 * 1024 * 1024) "Largest buffer in the sweep."
      $ trace_file_arg $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep buffer sizes and report the chosen dataflow class at each.")
    term

(* ------------------------------------------------------------------ *)
(* graph                                                               *)

let graph_cmd =
  let run model_name layers dot =
    match Fusecu_workloads.Zoo.find model_name with
    | None ->
      Printf.eprintf "unknown model %S\n" model_name;
      exit 1
    | Some model ->
      let g = Fusecu_workloads.Graph.of_model model in
      let g =
        if layers > 1 then Fusecu_workloads.Graph.stack g ~layers else g
      in
      if dot then print_string (Fusecu_workloads.Graph.to_dot g)
      else begin
        Format.printf "%a@." Fusecu_workloads.Graph.pp g;
        Printf.printf "critical path (unit cost): %d; sequential: %d\n"
          (Fusecu_workloads.Graph.critical_path g ~cost:(fun _ -> 1))
          (Fusecu_workloads.Graph.sequential g ~cost:(fun _ -> 1))
      end
  in
  let model =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Model name from Table II.")
  in
  let layers =
    Arg.(value & opt int 1 & info [ "layers" ] ~docv:"N" ~doc:"Stack N layers.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let term = Term.(const run $ model $ layers $ dot) in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print a model's operator dependency graph.")
    term

(* ------------------------------------------------------------------ *)
(* area                                                                *)

let area_cmd =
  let run () = Format.printf "%a@." Fusecu_arch.Area.pp (Fusecu_arch.Area.fusecu_breakdown ()) in
  Cmd.v (Cmd.info "area" ~doc:"FuseCU 28 nm area breakdown.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Service pieces (shared by serve, route)                             *)

(* The engine behind 'serve' and behind every shard 'route' forks. *)
let engine_config ~cache_entries ?slow_ms () =
  let default = Fusecu_service.Engine.default_config () in
  let cache_entries =
    match cache_entries with Some n -> max 0 n | None -> default.cache_entries
  in
  { default with
    cache_enabled = cache_entries > 0;
    cache_entries;
    slow_log_ms = slow_ms }

let max_line_arg ~doc =
  let parse s =
    match Fusecu_util.Units.parse_bytes s with
    | Ok bytes when bytes >= 1 -> Ok bytes
    | Ok _ -> Error (`Msg "max-line must be at least one byte")
    | Error e -> Error (`Msg e)
  in
  let print fmt bytes =
    Format.pp_print_string fmt (Fusecu_util.Units.pp_bytes bytes)
  in
  Arg.(
    value
    & opt
        (conv ~docv:"SIZE" (parse, print))
        Fusecu_service.Server.default_socket_config.max_line
    & info [ "max-line" ] ~docv:"SIZE" ~doc)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let run socket store_path batch cache_entries metrics_file
      metrics_addr slow_ms max_conns timeout max_line trace log_level =
    with_observability ~trace ~log_level @@ fun () ->
    let config = engine_config ~cache_entries ?slow_ms () in
    let store =
      match store_path with
      | None -> None
      | Some path -> (
        match Fusecu_service.Store.open_ ~path with
        | Ok s -> Some s
        | Error msg ->
          prerr_endline msg;
          exit 1)
    in
    let engine = Fusecu_service.Engine.create ?store config in
    let exporter =
      match metrics_addr with
      | None -> None
      | Some addr -> (
        try
          Some
            (Fusecu_service.Server.start_metrics_exporter
               ~render:(fun () -> Fusecu_service.Engine.prometheus engine)
               ~addr)
        with
        | Invalid_argument msg | Failure msg ->
          prerr_endline msg;
          exit 1
        | Unix.Unix_error (e, _, _) ->
          prerr_endline
            (Printf.sprintf "metrics-addr %s: %s" addr (Unix.error_message e));
          exit 1)
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Fusecu_service.Server.stop_metrics_exporter exporter;
        Option.iter Fusecu_service.Store.close store)
      (fun () ->
        match socket with
        | Some path -> (
          let socket_config =
            { Fusecu_service.Server.max_conns; idle_timeout = timeout; max_line }
          in
          try
            Fusecu_service.Server.serve_socket engine ~batch
              ~config:socket_config ~path ()
          with Failure msg | Invalid_argument msg ->
            prerr_endline msg;
            exit 1)
        | None ->
          Fusecu_service.Server.serve_fds engine ~batch Unix.stdin Unix.stdout);
    match metrics_file with
    | None -> ()
    | Some file ->
      let dump =
        Fusecu_util.Json.print_hum
          (Fusecu_service.Engine.metrics_result engine)
      in
      if file = "-" then prerr_endline dump
      else
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (dump ^ "\n"))
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let store_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:"Persist the plan cache to an append-only, CRC-framed NDJSON \
                store at FILE (created if absent) and warm-load it at \
                startup. A batch's records are written right after its \
                replies; recovery after a crash drops only a damaged tail, \
                and a failed write stops the store, never the server. \
                Responses are byte-identical with or without the store.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:"At most N request lines per batch; a batch never waits for \
                lines that have not arrived. Cache-miss work inside a batch \
                runs in parallel on the domain pool; responses always come \
                back in request order.")
  in
  let cache_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Plan-cache capacity in entries (default 4096; 0 disables \
                the cache: answers are identical either way, only how much \
                is recomputed changes).")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"On shutdown, write full metrics (counters plus latency \
                histograms) as JSON to FILE ('-' for stderr). The in-band \
                {\"op\":\"stats\"} request reports only the deterministic \
                counters.")
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:"Serve live Prometheus text-format metrics (per-op request \
                counters and latency histograms, cache gauges) on a TCP \
                listener at ADDR (PORT or HOST:PORT; host defaults to \
                127.0.0.1). No HTTP framing: each connection receives the \
                exposition and is closed, so 'nc 127.0.0.1 PORT' is a \
                complete scrape.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Log a warn-level NDJSON record (op, cache key, duration, \
                trace id) for any single plan computation taking at least MS \
                milliseconds. Requires --log-level warn or lower to be \
                visible.")
  in
  let defaults = Fusecu_service.Server.default_socket_config in
  let max_conns =
    Arg.(
      value
      & opt int defaults.Fusecu_service.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Socket mode: maximum concurrent client connections; the \
                accept loop applies backpressure (stops accepting) while N \
                connections are active.")
  in
  let timeout =
    Arg.(
      value
      & opt float defaults.Fusecu_service.Server.idle_timeout
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Socket mode: close a connection that goes SECONDS without \
                delivering a complete request line (also bounds per-response \
                write stalls). 0 disables the timeout.")
  in
  let max_line =
    max_line_arg
      ~doc:"Socket mode: longest accepted request line (e.g. 64KB, 1MB); \
            longer input gets a bad_request error and the connection is \
            closed."
  in
  let term =
    Term.(
      const run $ socket $ store_path $ batch $ cache_entries
      $ metrics_file $ metrics_addr $ slow_ms $ max_conns $ timeout $ max_line
      $ trace_file_arg $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the batched planning daemon: newline-delimited JSON requests \
             (intra, fuse, regime, eval, chain, plan_model, nest, stats, \
             metrics, shutdown) on stdin or a Unix socket, answered in \
             request order through a canonicalizing plan cache. Socket mode \
             serves clients concurrently (see --max-conns, --timeout, \
             --max-line) and shuts down gracefully on SIGINT/SIGTERM or an \
             in-band shutdown request. Observability: --metrics-addr serves live Prometheus \
             text, --trace writes a Chrome trace profile, --log-level / \
             --slow-ms emit NDJSON logs on stderr.")
    term

(* ------------------------------------------------------------------ *)
(* route                                                               *)

let route_cmd =
  let run shards backends socket_dir store_dir batch cache_entries
      max_conns timeout max_line metrics_addr trace log_level =
    with_observability ~trace:None ~log_level @@ fun () ->
    if shards < 1 then begin
      prerr_endline "route: --shards must be at least 1";
      exit 1
    end;
    let trace_dir =
      match trace with
      | None -> None
      | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Fusecu_util.Trace.start ();
        Some dir
    in
    (* Export the router's own spans and merge every per-process profile
       in the directory into a single Chrome timeline. The forked shards
       write shard-N.json on exit (spawn_shard ~trace), so this runs
       after stop_children has reaped them. *)
    let finish_trace () =
      match trace_dir with
      | None -> ()
      | Some dir ->
        Fusecu_util.Trace.stop ();
        Fusecu_util.Trace.export ~pid:(Unix.getpid ()) ~process_name:"router"
          (Filename.concat dir "router.json");
        let parts =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f ->
                 Filename.check_suffix f ".json" && f <> "merged.json")
          |> List.sort compare
          |> List.filter_map (fun f ->
                 let path = Filename.concat dir f in
                 match
                   Fusecu_util.Json.parse
                     (In_channel.with_open_text path In_channel.input_all)
                 with
                 | Ok j -> Some j
                 | Error e ->
                   Printf.eprintf "route: --trace: skipping %s: %s\n" path e;
                   None)
        in
        (match Fusecu_util.Trace.merge_chrome parts with
        | Ok merged ->
          Out_channel.with_open_text (Filename.concat dir "merged.json")
            (fun oc ->
              Out_channel.output_string oc (Fusecu_util.Json.print merged ^ "\n"))
        | Error e -> Printf.eprintf "route: --trace: merge failed: %s\n" e)
    in
    let router_config =
      { Fusecu_service.Router.idle_timeout = timeout; max_line }
    in
    let front backend_paths =
      let metrics =
        match metrics_addr with
        | None -> None
        | Some _ -> Some (Fusecu_service.Metrics.create ())
      in
      let exporter =
        match (metrics_addr, metrics) with
        | Some addr, Some m -> (
          try
            Some
              (Fusecu_service.Server.start_metrics_exporter
                 ~render:(fun () ->
                   Fusecu_service.Router.fleet_prometheus_render ~metrics:m
                     ~sockets:backend_paths ())
                 ~addr)
          with
          | Invalid_argument msg | Failure msg ->
            prerr_endline msg;
            exit 1
          | Unix.Unix_error (e, _, _) ->
            prerr_endline
              (Printf.sprintf "metrics-addr %s: %s" addr (Unix.error_message e));
            exit 1)
        | _ -> None
      in
      Fun.protect
        ~finally:(fun () ->
          Option.iter Fusecu_service.Server.stop_metrics_exporter exporter)
        (fun () ->
          try
            Fusecu_service.Router.run ~config:router_config ?metrics
              ~backends:backend_paths ~input:Unix.stdin ~output:Unix.stdout ()
          with Failure msg | Invalid_argument msg ->
            prerr_endline msg;
            exit 1)
    in
    Fun.protect ~finally:finish_trace @@ fun () ->
    match backends with
    | _ :: _ ->
      (* externally-managed backends: just front them *)
      front backends
    | [] ->
      (* own the fleet: fork one serve-socket child per shard *)
      let engine_config = engine_config ~cache_entries () in
      let dir =
        match socket_dir with
        | Some d ->
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
        | None ->
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "fusecu-route-%d" (Unix.getpid ()))
          in
          Unix.mkdir d 0o700;
          d
      in
      let server_config =
        { Fusecu_service.Server.max_conns; idle_timeout = timeout; max_line }
      in
      let make_engine i =
        let store =
          match store_dir with
          | None -> None
          | Some sd -> (
            if not (Sys.file_exists sd) then Unix.mkdir sd 0o755;
            let path = Filename.concat sd (Printf.sprintf "shard-%d.store" i) in
            match Fusecu_service.Store.open_ ~path with
            | Ok s -> Some s
            | Error msg -> failwith msg)
        in
        Fusecu_service.Engine.create ?store engine_config
      in
      let children =
        List.init shards (fun i ->
            let socket = Filename.concat dir (Printf.sprintf "shard-%d.sock" i) in
            let shard_trace =
              Option.map
                (fun td -> Filename.concat td (Printf.sprintf "shard-%d.json" i))
                trace_dir
            in
            Fusecu_service.Router.spawn_shard ~batch ?trace:shard_trace
              ~make_engine ~socket ~server_config i)
      in
      Fun.protect
        ~finally:(fun () ->
          Fusecu_service.Router.stop_children children;
          (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
        (fun () ->
          List.iter
            (fun (c : Fusecu_service.Router.child) ->
              if not (Fusecu_service.Router.wait_for_socket c.socket) then begin
                prerr_endline
                  (Printf.sprintf "route: shard socket %s never appeared"
                     c.socket);
                exit 1
              end)
            children;
          front
            (List.map
               (fun (c : Fusecu_service.Router.child) -> c.socket)
               children))
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of backend shard processes to fork (ignored when \
                --backend is given).")
  in
  let backends =
    Arg.(
      value
      & opt_all string []
      & info [ "backend" ] ~docv:"SOCKET"
          ~doc:"Route onto an externally-started 'serve --socket' backend \
                (repeatable; ring order follows the flag order). When absent, \
                the router forks its own --shards backends.")
  in
  let socket_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket-dir" ] ~docv:"DIR"
          ~doc:"Directory for the forked shards' sockets (default: a fresh \
                directory under the system temp dir).")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:"Give each forked shard a persistent plan store at \
                DIR/shard-N.store, warm-loaded at startup. Placement is a \
                pure function of the shard count, so each shard's store \
                stays authoritative for its keys across restarts.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:"Per shard, at most N request lines per batch; a batch never \
                waits for lines that have not arrived.")
  in
  let cache_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Per-shard plan-cache capacity (default 4096; 0 disables \
                the caches).")
  in
  let defaults = Fusecu_service.Server.default_socket_config in
  let max_conns =
    Arg.(
      value
      & opt int defaults.Fusecu_service.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Per-shard concurrent-connection cap.")
  in
  let timeout =
    Arg.(
      value
      & opt float defaults.Fusecu_service.Server.idle_timeout
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Idle/read/write liveness bound, applied by the router to a \
                backend that owes answers and per connection by the shards. \
                0 disables it.")
  in
  let max_line =
    max_line_arg
      ~doc:"Longest accepted request or response line (e.g. 64KB, 1MB)."
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:"Serve live fleet-wide Prometheus text on a TCP listener at \
                ADDR (PORT or HOST:PORT): the router's own series (requests, \
                routed bytes, fan-outs, per-shard in-flight gauges) unlabeled \
                plus every backend's series labeled {shard=\"i\"}, scraped \
                out-of-band with quiet metrics requests that move no counter \
                — concurrent scrapes cannot perturb the routed transcript.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"DIR"
          ~doc:"Profile the whole fleet: the router writes its spans \
                (enqueue, route, reassemble) to DIR/router.json, each forked \
                shard writes DIR/shard-N.json on exit, and the router merges \
                everything into DIR/merged.json — one Chrome trace with a \
                process lane per shard, spans correlated by the propagated \
                trace context. Tracing never writes to stdout, so the routed \
                transcript is unchanged.")
  in
  let term =
    Term.(
      const run $ shards $ backends $ socket_dir $ store_dir $ batch
      $ cache_entries $ max_conns $ timeout $ max_line $ metrics_addr $ trace_dir $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Front a sharded planning tier: consistent-hash each request's \
             canonical cache key onto N backend shards ('serve --socket' \
             processes, forked by the router or given via --backend), forward \
             the NDJSON lines, and reassemble responses in request order on \
             stdout. The transcript is byte-identical for every shard count \
             (control lines excepted — stats and metrics fan out to every \
             shard and return the Fleet merge: counters summed, histograms \
             merged bucket-wise, per-shard payloads under 'shards'). \
             --store-dir makes the fleet persistent: shard caches survive \
             restarts and warm-load at startup. Observability: --trace merges \
             router and shard profiles into one timeline, --metrics-addr \
             serves fleet-wide Prometheus text with per-shard labels.")
    term

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let plan_cmd =
  let run model_name layers buf mode intensity =
    match Fusecu_workloads.Zoo.find model_name with
    | None ->
      Printf.eprintf "unknown model %S (try: %s)\n" model_name
        (String.concat ", "
           (List.map
              (fun (m : Fusecu_workloads.Model.t) -> m.name)
              Fusecu_workloads.Zoo.all));
      exit 1
    | Some model -> (
      let open Fusecu_planner in
      let open Fusecu_workloads in
      let g = Graph.stack (Graph.of_model model) ~layers in
      let overlap = { Overlap.intensity } in
      match Partition.plan ~overlap ~mode g buf with
      | Error e ->
        prerr_endline e;
        exit 1
      | Ok p ->
        let t =
          Fusecu_util.Table.create
            [ "Group"; "Members"; "Count"; "Ops"; "Traffic"; "Hidden" ]
        in
        let rows =
          List.mapi
            (fun i (gr : Partition.group) ->
              [ string_of_int i;
                String.concat " > "
                  (List.map (fun (n : Graph.node) -> n.Graph.name)
                     gr.Partition.members);
                string_of_int gr.Partition.count;
                string_of_int
                  (List.fold_left
                     (fun a n -> a + List.length (Group.ops n))
                     0 gr.Partition.members);
                Fusecu_util.Units.pp_count gr.Partition.traffic;
                Fusecu_util.Units.pp_count gr.Partition.hidden ])
            p.Partition.groups
        in
        Fusecu_util.Table.print (Fusecu_util.Table.add_rows t rows);
        let name_of id = (Graph.find g id).Graph.name in
        (match p.Partition.selected with
        | [] -> print_endline "fused edges: none (all-singleton is optimal)"
        | es ->
          Printf.printf "fused edges: %s\n"
            (String.concat ", "
               (List.map
                  (fun (e : Partition.edge) ->
                    Printf.sprintf "%s->%s" (name_of e.Partition.src)
                      (name_of e.Partition.dst))
                  es)));
        Printf.printf "effective traffic: %s (raw %s, %s hidden by overlap)\n"
          (Fusecu_util.Units.pp_count p.Partition.effective)
          (Fusecu_util.Units.pp_count p.Partition.traffic)
          (Fusecu_util.Units.pp_count p.Partition.hidden);
        let saved =
          p.Partition.unfused_effective - p.Partition.effective
        in
        Printf.printf "vs unfused baseline %s: %s saved (%.1f%%)\n"
          (Fusecu_util.Units.pp_count p.Partition.unfused_effective)
          (Fusecu_util.Units.pp_count saved)
          (if p.Partition.unfused_effective = 0 then 0.0
           else
             100.0 *. float_of_int saved
             /. float_of_int p.Partition.unfused_effective);
        let s = p.Partition.stats in
        Printf.printf
          "search: %d candidate edges, %d components, %d dp states, %d b&b \
           nodes (%d pruned), %d group evals\n"
          s.Partition.candidate_edges s.Partition.components
          s.Partition.dp_states s.Partition.bnb_nodes s.Partition.bnb_pruned
          s.Partition.group_evals)
  in
  let model =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Model name from Table II (e.g. Bert, LLaMA2).")
  in
  let layers =
    Arg.(
      value & opt int 1
      & info [ "layers" ] ~docv:"N" ~doc:"Encoder layers to stack.")
  in
  let intensity =
    Arg.(
      value & opt int Fusecu_planner.Overlap.default.intensity
      & info [ "intensity" ] ~docv:"I"
          ~doc:"Arithmetic-intensity threshold of the inter-group overlap \
                model: boundary spills up to macs/I - traffic are hidden \
                behind compute by double-buffering. 0 disables the credit.")
  in
  let term =
    Term.(const run $ model $ layers $ buffer_arg $ mode_arg $ intensity)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Partition a whole model graph into fusion groups: dynamic \
             programming over chain regions (branch-and-bound elsewhere) \
             picks the globally optimal grouping under the principle-based \
             per-group cost, re-materialization charges, and the \
             double-buffering overlap credit.")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let open Fusecu_oracle in
  let run cases seed max_dim repro mapper graphs nests trace log_level =
    with_observability ~trace ~log_level @@ fun () ->
    let check (o : _ Oracle.t) =
      match repro with
      | Some spec -> (
        match Oracle.check_spec o spec with
        | Error e ->
          prerr_endline ("--repro: " ^ e);
          exit 2
        | Ok (p, outcome) ->
          Format.printf "%s: %d checks@." (o.to_spec p) outcome.Oracle.checks;
          if outcome.Oracle.failures = [] then Format.printf "no divergence@."
          else begin
            List.iter (Format.printf "%a@." Oracle.pp_failure) outcome.Oracle.failures;
            exit 1
          end)
      | None ->
        let report = Oracle.run ~log:prerr_endline ?max_dim o ~cases ~seed in
        Format.printf "%a@." (Oracle.pp_report o) report;
        if not (Oracle.ok report) then exit 1
    in
    if nests then check Nest_check.oracle
    else if graphs then check Graph_check.oracle
    else check (Check.oracle mapper)
  in
  let cases =
    Arg.(
      value & opt int 500
      & info [ "cases" ] ~docv:"N" ~doc:"Random problems to generate and check.")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"S"
          ~doc:"PRNG seed; the whole run is a pure function of (seed, cases, \
                max-dim), on any machine and OCaml version.")
  in
  let max_dim =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-dim" ] ~docv:"D"
          ~doc:
            (Printf.sprintf
               "Largest generated dimension (small keeps the exhaustive \
                ground truth cheap while still crossing every regime \
                boundary). Defaults to %d for matmul problems, %d with \
                $(b,--nests) (which clamps it at 12 to keep rank-7 conv \
                ground truth exact) and %d with $(b,--graphs), where it \
                also bounds node counts and the buffer."
               (Check.oracle Check.Principles).Oracle.max_dim
               Nest_check.oracle.Oracle.max_dim
               Graph_check.oracle.Oracle.max_dim))
  in
  let repro =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"SPEC"
          ~doc:"Re-check a single problem given by its spec — the one-liner \
                printed for every shrunk counterexample — instead of a \
                soak. The spec is a matmul problem (e.g. \
                m=7,k=3,l=4,l2=2,bs=16), a nest problem with $(b,--nests) \
                (e.g. kind=conv,n=1,c=2,h=6,w=6,k=3,r=3,s=3,st=1,di=1,pa=0,bs=64) \
                or a graph with $(b,--graphs) (e.g. \
                'm=4,b=256,nodes=1*3:5|1*5:2,edges=0-1').")
  in
  let mapper =
    Arg.(
      value
      & opt
          (enum
             [ ("principles", Check.Principles); ("bnb", Check.Bnb) ])
          Check.Principles
      & info [ "mapper" ] ~docv:"MAPPER"
          ~doc:"Check set for matmul problems: 'principles' (default) runs \
                the three-way conformance checks; 'bnb' additionally \
                asserts the branch-and-bound mapper reproduces the \
                exhaustive optimum bit-for-bit on every generated problem.")
  in
  let graphs =
    Arg.(
      value & flag
      & info [ "graphs" ]
          ~doc:"Check the whole-model fusion planner instead: on seeded \
                random workload graphs, the DP / branch-and-bound \
                partitioner must match exhaustive enumeration exactly \
                (cost, traffic, and chosen cuts under the deterministic \
                tie-break).")
  in
  let nests =
    Arg.(
      value & flag
      & info [ "nests" ]
          ~doc:"Check the projective loop-nest IR instead (takes precedence \
                over $(b,--graphs)): on seeded random nests (matmul, \
                conv2d, batched/grouped matmul, attention pairs), the nest \
                branch-and-bound must reproduce the exhaustive \
                Divisors-lattice optimum bit-for-bit, the analytic cost \
                must match the tile-replay simulator, and matmul winners \
                must match the legacy exhaustive search.")
  in
  let term =
    Term.(
      const run $ cases $ seed $ max_dim $ repro $ mapper $ graphs $ nests
      $ trace_file_arg $ log_level_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential conformance oracle: cross-check the principles \
             against exhaustive search (on the exact, divisors and pow2 \
             lattices), the analytic cost model against the \
             loop-nest simulator, and both against the communication lower \
             bounds, on seeded random problems spanning all buffer regimes \
             ($(b,--nests) and $(b,--graphs) pick the loop-nest and \
             whole-model oracles instead). Failures are shrunk to minimal \
             counterexamples and printed as reproducible \
             $(b,--repro) one-liners; exits non-zero on any divergence.")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let run m k l1 l2 n seed column =
    let open Fusecu_rtl in
    let cluster = Fusecu_sim.create ~n () in
    let a = Matrix.random ~seed ~rows:m ~cols:k () in
    let b = Matrix.random ~seed:(seed + 1) ~rows:k ~cols:l1 () in
    let d = Matrix.random ~seed:(seed + 2) ~rows:l1 ~cols:l2 () in
    let reference = Matrix.mul (Matrix.mul a b) d in
    let result =
      if column then
        Fusecu_sim.run_column_fused cluster Fusecu_sim.Square ~a ~b ~d
      else Fusecu_sim.run_tile_fused cluster Fusecu_sim.Square ~a ~b ~d
    in
    match result with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok (e, cycles) ->
      Printf.printf "fused (%s) (%dx%d x %dx%d) x %dx%d on a %dx%d CU: %d cycles\n"
        (if column then "column" else "tile")
        m k k l1 l1 l2 n n cycles;
      if Matrix.equal e reference then
        print_endline "result matches the reference product"
      else begin
        print_endline "MISMATCH against the reference product";
        exit 1
      end
  in
  let int_opt name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let term =
    Term.(
      const run
      $ int_opt "m" 8 "Rows of A."
      $ int_opt "k" 8 "Columns of A."
      $ int_opt "l1" 8 "Columns of B (intermediate width)."
      $ int_opt "l2" 8 "Columns of D."
      $ int_opt "n" 16 "Compute-unit dimension."
      $ int_opt "seed" 7 "Random data seed."
      $ Arg.(value & flag & info [ "column" ] ~doc:"Use column fusion instead of tile fusion."))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a fused matmul chain on the cycle-level FuseCU array model.")
    term

(* ------------------------------------------------------------------ *)
(* trace-merge                                                         *)

let trace_merge_cmd =
  let run output inputs =
    let parts =
      List.map
        (fun path ->
          let text =
            try In_channel.with_open_text path In_channel.input_all
            with Sys_error msg ->
              prerr_endline msg;
              exit 1
          in
          match Fusecu_util.Json.parse text with
          | Ok j -> j
          | Error e ->
            prerr_endline (path ^ ": " ^ e);
            exit 1)
        inputs
    in
    match Fusecu_util.Trace.merge_chrome parts with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok merged ->
      let text = Fusecu_util.Json.print merged ^ "\n" in
      if output = "-" then print_string text
      else
        Out_channel.with_open_text output (fun oc ->
            Out_channel.output_string oc text)
  in
  let inputs =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:"Chrome trace-event JSON profiles to merge (e.g. the \
                router.json and shard-N.json files a traced 'route' run \
                leaves behind).")
  in
  let output =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the merged trace to FILE ('-' for stdout).")
  in
  let term = Term.(const run $ output $ inputs) in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:"Merge per-process Chrome trace profiles into one timeline: \
             events are pooled and stably sorted by timestamp (process-name \
             metadata first), so a traced routed run becomes a single \
             chrome://tracing / Perfetto view with a lane per process — \
             router enqueue/route/reassemble spans over each shard's \
             parse/cache/mapper/respond spans, correlated by the propagated \
             trace context ('tc') span arguments. All processes share the \
             wall clock, so no timestamp fix-up is applied.")
    term

let () =
  let doc = "principle-based dataflow optimization for operator-fused tensor accelerators" in
  let info = Cmd.info "fusecu_opt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ intra_cmd; fuse_cmd; regime_cmd; search_cmd; eval_cmd; explain_cmd;
            trace_cmd; hierarchy_cmd; chain_cmd; plan_cmd; sweep_cmd;
            graph_cmd; area_cmd; simulate_cmd; serve_cmd; route_cmd;
            trace_merge_cmd; check_cmd ]))
