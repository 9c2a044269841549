(* Optimizer wall-clock comparison (the paper's motivating claim:
   search-based DSE is time-consuming, the principles are one-shot),
   plus the sequential-vs-parallel DSE engine benchmark: every searched
   hot path (exhaustive search, per-class search, buffer sweep, fused
   search, workload eval) is timed on one domain and on the full pool.

   [run] prints a Bechamel table; [write_json] times the same tasks with
   a monotonic wall clock and writes BENCH_dse.json so the perf
   trajectory is tracked across commits; [smoke] runs tiny variants of
   everything once (and checks parallel = sequential) so the bench code
   cannot bit-rot. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse

(* bechamel's own [Bechamel.Monotonic_clock] measure shadows the raw
   clock module once [Bechamel] is opened — alias it first *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit
module Pool = Fusecu_util.Pool

let bert = Matmul.make ~name:"bert-proj" ~m:1024 ~k:768 ~l:768 ()

let buf = Buffer.of_kib 512

let attention_pair =
  Fused.make_pair_exn
    (Matmul.make ~name:"qk" ~m:1024 ~k:64 ~l:1024 ())
    (Matmul.make ~name:"sv" ~m:1024 ~k:1024 ~l:64 ())

(* ------------------------------------------------------------------ *)
(* The DSE engine tasks, parameterized by pool so each runs both ways  *)

type task = { name : string; run : pool:Pool.t -> unit }

let dse_tasks ~op ~buf ~pair ~fused_buf ~model ~sweep_bytes =
  let workload = Fusecu_workloads.Workload.of_model model in
  [ { name = "exhaustive-search";
      run = (fun ~pool -> ignore (Exhaustive.search ~pool op buf)) };
    { name = "best-per-class";
      run = (fun ~pool -> ignore (Exhaustive.best_per_class ~pool op buf)) };
    { name = "buffer-sweep";
      run = (fun ~pool -> ignore (Buffer_sweep.run ~pool op ~bytes:sweep_bytes)) };
    { name = "fused-search";
      run = (fun ~pool -> ignore (Fused_search.exhaustive ~pool pair fused_buf)) };
    { name = "workload-eval";
      run =
        (fun ~pool ->
          ignore
            (Fusecu_arch.Perf.eval_workload ~pool Fusecu_arch.Platform.fusecu buf
               workload)) } ]

let paper_tasks () =
  dse_tasks ~op:bert ~buf ~pair:attention_pair ~fused_buf:(Buffer.of_kib 64)
    ~model:Fusecu_workloads.Zoo.bert
    ~sweep_bytes:
      (Buffer_sweep.geometric ~from_bytes:(32 * 1024)
         ~to_bytes:(8 * 1024 * 1024) ~steps_per_octave:2 ())

let tiny_tasks () =
  dse_tasks
    ~op:(Matmul.make ~name:"tiny" ~m:64 ~k:48 ~l:36 ())
    ~buf:(Buffer.make 2048)
    ~pair:
      (Fused.make_pair_exn
         (Matmul.make ~name:"qk" ~m:16 ~k:4 ~l:16 ())
         (Matmul.make ~name:"sv" ~m:16 ~k:16 ~l:4 ()))
    ~fused_buf:(Buffer.make 512)
    ~model:
      (Fusecu_workloads.Model.make ~name:"tiny" ~batch:1 ~heads:2 ~seq:32
         ~hidden:32 ())
    ~sweep_bytes:(Buffer_sweep.geometric ~from_bytes:256 ~to_bytes:4096 ())

(* ------------------------------------------------------------------ *)
(* Wall-clock timing (monotonic; Sys.time would count CPU time across
   all domains and hide any parallel speedup)                          *)

let time_ns ?(repeats = 3) f =
  f ();
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Mclock.now () in
    f ();
    let dt = Int64.to_float (Int64.sub (Mclock.now ()) t0) in
    if dt < !best then best := dt
  done;
  !best

let pp_time ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let measure_tasks ?repeats tasks =
  let pool = Pool.get_global () in
  (* On a one-domain pool the "parallel" run takes the sequential code
     path anyway, so timing it separately would launder measurement
     noise into a fake speedup column. Reuse the sequential timing and
     report the bypass honestly (the [pool_bypassed] JSON field). *)
  let bypassed = Pool.size pool = 1 in
  let rows =
    List.map
      (fun t ->
        let seq_ns = time_ns ?repeats (fun () -> t.run ~pool:Pool.sequential) in
        let par_ns =
          if bypassed then seq_ns
          else time_ns ?repeats (fun () -> t.run ~pool)
        in
        (t.name, seq_ns, par_ns))
      tasks
  in
  (rows, bypassed)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound vs exhaustive: same optimum, a fraction of the
   cost evaluations. Each fixture runs both searches and records the
   counts; [bnb_check] is the smoke-level guard (optimality must hold
   exactly, evaluations must stay under 10% of the enumeration).       *)

type bnb_row = {
  bnb_task : string;
  traffic_bnb : int;
  traffic_exhaustive : int;
  evaluated : int;  (** B&B cost evaluations *)
  enumerated : int;  (** exhaustive cost evaluations on the same space *)
  nodes : int;
  pruned_bound : int;
  pruned_infeasible : int;
}

type bnb_fixture =
  | B_intra of Matmul.t * Buffer.t
  | B_fused of Fused.pair * Buffer.t

let bnb_fixtures () =
  [ ("bnb-bert-512k", B_intra (bert, buf));
    ("bnb-bert-64k", B_intra (bert, Buffer.of_kib 64));
    ("bnb-bert-8k", B_intra (bert, Buffer.of_kib 8));
    ("bnb-attention-fused-64k", B_fused (attention_pair, Buffer.of_kib 64)) ]

let bnb_rows ?(fixtures = bnb_fixtures ()) () =
  List.filter_map
    (fun (name, fixture) ->
      match fixture with
      | B_intra (op, b) -> (
        let seed =
          match Intra.optimize op b with
          | Ok p -> Some p.Intra.schedule
          | Error _ -> None
        in
        match
          (Bnb.search_with_stats ?seed op b,
           Exhaustive.search ~pool:Pool.sequential op b)
        with
        | (Some br, stats), Some er ->
          Some
            { bnb_task = name;
              traffic_bnb = br.Exhaustive.cost.Cost.total;
              traffic_exhaustive = er.Exhaustive.cost.Cost.total;
              evaluated = stats.Bnb.explored;
              enumerated = er.Exhaustive.explored;
              nodes = stats.Bnb.nodes;
              pruned_bound = stats.Bnb.pruned_bound;
              pruned_infeasible = stats.Bnb.pruned_infeasible }
        | _ -> None)
      | B_fused (pair, b) -> (
        match
          (Bnb.search_fused_with_stats pair b,
           Fused_search.exhaustive ~pool:Pool.sequential pair b)
        with
        | (Some br, stats), Some er ->
          Some
            { bnb_task = name;
              traffic_bnb = br.Fused_search.traffic;
              traffic_exhaustive = er.Fused_search.traffic;
              evaluated = stats.Bnb.explored;
              enumerated = er.Fused_search.explored;
              nodes = stats.Bnb.nodes;
              pruned_bound = stats.Bnb.pruned_bound;
              pruned_infeasible = stats.Bnb.pruned_infeasible }
        | _ -> None))
    fixtures

let bnb_ratio r = float_of_int r.evaluated /. float_of_int r.enumerated

let bnb_row_json r =
  let module Json = Fusecu_util.Json in
  Json.Obj
    [ ("task", Json.String r.bnb_task);
      ("traffic", Json.Int r.traffic_bnb);
      ("traffic_exhaustive", Json.Int r.traffic_exhaustive);
      ("explored", Json.Int r.evaluated);
      ("enumerated", Json.Int r.enumerated);
      ("ratio", Json.Float (bnb_ratio r));
      ("nodes", Json.Int r.nodes);
      ("pruned_bound", Json.Int r.pruned_bound);
      ("pruned_infeasible", Json.Int r.pruned_infeasible) ]

let bnb_check rows =
  if rows = [] then failwith "bnb: no fixture produced a result";
  List.iter
    (fun r ->
      Printf.printf
        "bnb: %-24s traffic %d (exhaustive %d), %d/%d evaluations (%.1f%%), \
         pruned %d+%d\n"
        r.bnb_task r.traffic_bnb r.traffic_exhaustive r.evaluated r.enumerated
        (100. *. bnb_ratio r)
        r.pruned_bound r.pruned_infeasible;
      if r.traffic_bnb > r.traffic_exhaustive then
        failwith
          (Printf.sprintf "bnb: %s: B&B traffic %d exceeds exhaustive %d"
             r.bnb_task r.traffic_bnb r.traffic_exhaustive);
      if r.traffic_bnb < r.traffic_exhaustive then
        failwith
          (Printf.sprintf
             "bnb: %s: B&B traffic %d below exhaustive %d (bound unsound?)"
             r.bnb_task r.traffic_bnb r.traffic_exhaustive);
      if 10 * r.evaluated > r.enumerated then
        failwith
          (Printf.sprintf
             "bnb: %s: %d evaluations is over 10%% of the %d enumerated"
             r.bnb_task r.evaluated r.enumerated))
    rows

let bnb_smoke () =
  bnb_check (bnb_rows ());
  print_endline "smoke: bnb = exhaustive optimum within the evaluation budget"

(* ------------------------------------------------------------------ *)
(* BENCH_dse.json                                                      *)

let write_json ?(path = "BENCH_dse.json") ?repeats ?(tasks = paper_tasks ())
    ?(bnb = bnb_rows ()) ?(nest = ([] : Fusecu_util.Json.t list)) () =
  let module Trace = Fusecu_util.Trace in
  let module Json = Fusecu_util.Json in
  (* Span durations must come from the same monotonic clock as the
     measurements; the default Trace clock is wall time. *)
  Trace.set_clock (fun () -> Int64.to_float (Mclock.now ()) /. 1e9);
  Trace.start ();
  Pool.reset_stats (Pool.get_global ());
  let domains = Pool.size (Pool.get_global ()) in
  let rows, pool_bypassed = measure_tasks ?repeats tasks in
  Trace.stop ();
  (* total recorded span time per phase (enumerate / evaluate / merge /
     pool), exact regardless of ring eviction *)
  let trace_json =
    Json.Obj
      (List.map
         (fun (s : Trace.cat_summary) ->
           ( s.cat,
             Json.Obj
               [ ("total_s", Json.Float s.total_s);
                 ("count", Json.Int s.count) ] ))
         (Trace.summary ()))
  in
  let pool_json = Pool.stats_json (Pool.get_global ()) in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"domains\": %d,\n  \"pool_bypassed\": %b,\n  \"tasks\": [\n"
    domains pool_bypassed;
  List.iteri
    (fun i (name, seq_ns, par_ns) ->
      Printf.fprintf oc
        "    {\"task\": %S, \"seq_ns\": %.0f, \"par_ns\": %.0f, \"speedup\": \
         %.3f}%s\n"
        name seq_ns par_ns (seq_ns /. par_ns)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"bnb\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    %s%s\n"
        (Json.print (bnb_row_json r))
        (if i = List.length bnb - 1 then "" else ","))
    bnb;
  Printf.fprintf oc "  ],\n  \"nest\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    %s%s\n" (Json.print r)
        (if i = List.length nest - 1 then "" else ","))
    nest;
  Printf.fprintf oc "  ],\n  \"trace\": %s,\n  \"pool\": %s\n}\n"
    (Json.print trace_json) (Json.print pool_json);
  close_out oc;
  Printf.printf "wrote %s (%d domains):\n" path domains;
  List.iter
    (fun (name, seq_ns, par_ns) ->
      Printf.printf "  %-18s seq %-10s par %-10s speedup %.2fx\n" name
        (pp_time seq_ns) (pp_time par_ns) (seq_ns /. par_ns))
    rows

(* ------------------------------------------------------------------ *)
(* Smoke: run every task once on tiny inputs, check parallel results
   match sequential ones, and exercise the JSON writer                 *)

let smoke () =
  let tasks = tiny_tasks () in
  let pool = Pool.get_global () in
  List.iter
    (fun t ->
      t.run ~pool:Pool.sequential;
      t.run ~pool;
      Printf.printf "smoke: %-18s ok\n" t.name)
    tasks;
  let op = Matmul.make ~m:64 ~k:48 ~l:36 () in
  let b = Buffer.make 2048 in
  (match
     ( Exhaustive.search ~pool:Pool.sequential op b,
       Exhaustive.search ~pool op b )
   with
  | Some s, Some p
    when Schedule.equal s.schedule p.schedule
         && s.cost.Cost.total = p.cost.Cost.total && s.explored = p.explored ->
    Printf.printf "smoke: parallel search = sequential search (explored %d)\n"
      s.explored
  | _ -> failwith "smoke: parallel and sequential search disagree");
  let json = Filename.temp_file "fusecu_bench" ".json" in
  let tiny_bnb =
    bnb_rows
      ~fixtures:
        [ ("bnb-tiny", B_intra (op, b));
          ("bnb-tiny-fused",
           B_fused
             ( Fused.make_pair_exn
                 (Matmul.make ~name:"qk" ~m:16 ~k:4 ~l:16 ())
                 (Matmul.make ~name:"sv" ~m:16 ~k:16 ~l:4 ()),
               Buffer.make 512 )) ]
      ()
  in
  write_json ~path:json ~repeats:1 ~tasks ~bnb:tiny_bnb ();
  (* the file must parse and carry the embedded observability sections *)
  let contents = In_channel.with_open_text json In_channel.input_all in
  (match Fusecu_util.Json.parse contents with
  | Error e -> failwith ("smoke: BENCH_dse.json does not parse: " ^ e)
  | Ok obj ->
    List.iter
      (fun field ->
        if Fusecu_util.Json.member field obj = None then
          failwith ("smoke: BENCH_dse.json is missing \"" ^ field ^ "\""))
      [ "domains"; "pool_bypassed"; "tasks"; "bnb"; "nest"; "trace"; "pool" ]);
  Sys.remove json;
  Printf.printf "smoke: bench ok (%d domains)\n" (Pool.size pool)

(* ------------------------------------------------------------------ *)
(* Bechamel table: principles vs searched baselines, seq vs par        *)

(* A function, not a value: it starts the global pool's domains, and
   the fork-based drills ([--store-smoke] and friends) abort once any
   domain exists. *)
let tests () =
  let engine =
    List.concat_map
      (fun t ->
        [ Test.make
            ~name:(t.name ^ " (1 domain)")
            (Staged.stage (fun () -> t.run ~pool:Pool.sequential));
          Test.make
            ~name:
              (Printf.sprintf "%s (%d domains)" t.name
                 (Pool.size (Pool.get_global ())))
            (Staged.stage (fun () -> t.run ~pool:(Pool.get_global ()))) ])
      (paper_tasks ())
  in
  Test.make_grouped ~name:"optimizers"
    ([ Test.make ~name:"intra/principles (one-shot)"
         (Staged.stage (fun () -> ignore (Intra.optimize bert buf : _ result)));
       Test.make ~name:"intra/genetic-DSE (DAT proxy)"
         (Staged.stage (fun () ->
              ignore (Genetic.search bert buf : Exhaustive.result option)));
       Test.make ~name:"fusion/principles (one-shot)"
         (Staged.stage (fun () ->
              ignore (Fusion.plan_pair attention_pair buf : _ result)));
       Test.make ~name:"fusion/genetic-DSE (DAT proxy)"
         (Staged.stage (fun () ->
              ignore
                (Fused_search.genetic attention_pair buf
                  : Fused_search.result option))) ]
    @ engine)

let run () =
  Printf.printf "\n=== Optimizer timing (Bechamel) ===\n\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !rows in
  let t = Fusecu_util.Table.create [ "Optimizer"; "time/run"; "vs fastest" ] in
  let fastest = match sorted with (_, ns) :: _ -> ns | [] -> 1. in
  let t =
    Fusecu_util.Table.add_rows t
      (List.map
         (fun (name, ns) ->
           [ name; pp_time ns; Printf.sprintf "%.0fx" (ns /. fastest) ])
         sorted)
  in
  Fusecu_util.Table.print t;
  Printf.printf
    "\nThe principle-based optimizer is one-shot; the searched baselines\n\
     evaluate thousands of schedules (the paper's motivation). The\n\
     \"(N domains)\" rows run the same search on the domain pool\n\
     (FUSECU_DOMAINS overrides the size).\n"
