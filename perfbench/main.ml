(* The serving benchmark: three request workloads through the real
   planning daemon, with a traced in-process replay that attributes the
   time to layers.

     perfbench/main.exe --workload W --seed S --seconds T --trace 0|1
                        [--repeat N] [--server EXE]
     perfbench/main.exe --smoke [--benchmark-json FILE]

   --trace 0 measures the end-to-end metrics; --trace 1 the per-layer
   ones. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Sockets, stores and Chrome traces live under .perfbench/ in the
   working directory. See perfbench/README.md. *)

open Fusecu_util
open Fusecu_service

type metric = { name : string; value : float; unit : string; samples : int }

let m name unit samples value = { name; value; unit; samples }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-only lines: failures, digests *)
}

type config = {
  exe : string;
  expected_dir : string;
  dir : string;  (** this process's files: sockets and stores *)
}

let work_dir = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let p = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      p)
    "" (String.split_on_char '/' path)
  |> ignore

let path cfg f = Filename.concat cfg.dir f

let parse_calls requests =
  Array.map
    (fun l -> match Protocol.parse_line l with Ok (_, _, Protocol.Call c) -> Some c | _ -> None)
    requests

(* ------------------------------------------------------------------ *)
(* Server configuration per workload                                   *)

let cache_entries (g : Gen.t) =
  Option.value g.Gen.cache_entries ~default:(Engine.default_config ()).Engine.cache_entries

let cache_args (g : Gen.t) =
  match g.Gen.cache_entries with
  | Some n -> [ "--cache-entries"; string_of_int n ]
  | None -> []

(* The store file server lifetime [i] starts from, fresh when the
   workload asks for one. *)
let store_file cfg (g : Gen.t) i =
  match g.Gen.store with
  | Gen.No_store -> None
  | Gen.Fresh_store ->
    let f = path cfg (Printf.sprintf "store-%d" i) in
    rm_rf f;
    Some f
  | Gen.Prepared _ -> Some (path cfg "prepared.store")

let server_args cfg g i ~batch =
  [ "--batch"; string_of_int batch ]
  @ cache_args g
  @ match store_file cfg g i with Some f -> [ "--store"; f ] | None -> []

(* hit_repeat's store: the hot problems computed by the real engine,
   then the cold records, whose intra plans come from the principles
   alone (no request ever reads them back). Untimed. *)
let prepare cfg (g : Gen.t) =
  match g.Gen.store with
  | Gen.Prepared { hot; cold } ->
    let file = path cfg "prepared.store" in
    rm_rf file;
    let store = match Store.open_ ~path:file with Ok s -> s | Error e -> failwith e in
    let config =
      { (Engine.default_config ()) with Engine.cache_entries = 65536; pool = Some Pool.sequential }
    in
    let engine = Engine.create ~store config in
    ignore (Engine.handle_lines engine ~batch:64 (Gen.warmup_line :: hot));
    let principles = Engine.create { config with Engine.mapper = Engine.Mapper_principles } in
    List.iter
      (fun call ->
        match Engine.compute principles call with
        | Ok o -> Store.append store (Protocol.cache_key call) o
        | Error (_, e) -> failwith ("cold record: " ^ e))
      (Gen.cold_calls cold);
    Store.close store
  | Gen.No_store | Gen.Fresh_store -> ()

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

type failures = (int, string) Hashtbl.t

let fail (f : failures) i why = if not (Hashtbl.mem f i) then Hashtbl.replace f i why

let same_replies f ~what a b =
  Array.iteri
    (fun i x ->
      match (x, b.(i)) with
      | Some x, Some y when x = y -> ()
      | Some _, Some _ -> fail f i (what ^ " differ")
      | None, _ -> fail f i "no closed-loop reply"
      | _, None -> fail f i ("no reply in " ^ what))
    a

let digest replies =
  Hash.fnv1a64
    (String.concat "\n" (Array.to_list (Array.map (Option.value ~default:"") replies)))

(* Per-seed transcript digests: [expected/<workload>.txt], lines of
   "seed requests digest". *)
let expected_digest cfg (g : Gen.t) ~seed =
  let file = Filename.concat cfg.expected_dir (Gen.name g.Gen.workload ^ ".txt") in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
    List.find_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | [ s'; t; d ] when s' = string_of_int seed && t = string_of_int (Array.length g.Gen.requests) -> Some d
        | _ -> None)
      (String.split_on_char '\n' s)

let summarize_failures f =
  let l = List.sort compare (Hashtbl.fold (fun i why acc -> (i, why) :: acc) f []) in
  List.filteri (fun k _ -> k < 5) l
  |> List.map (fun (i, why) -> Printf.sprintf "failed request %d: %s" i why)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

(* Server lifetime [i] of a run, configured for the workload, up to its
   warm-up reply. *)
let spawn_server cfg (g : Gen.t) i ~batch =
  Serve.start ~exe:cfg.exe ~socket:(path cfg (Printf.sprintf "s%d.sock" i))
    ~args:(server_args cfg g i ~batch) ~warmup:Gen.warmup_line

(* ... and past its untimed cache fill. *)
let start_server cfg (g : Gen.t) i ~batch =
  let s = spawn_server cfg g i ~batch in
  Serve.fill s g.Gen.fill;
  s

let ms l = List.map (fun x -> x *. 1000.) l

let answered replies rtt =
  List.filteri (fun i _ -> replies.(i) <> None) (Array.to_list rtt)

(* A run replays the whole request list in [g.passes] passes, each on
   fresh servers, so a miss workload misses on every pass. The count is
   fixed by --seconds, not by how fast the passes go, except that a host
   so slow that the passes would overrun --seconds by a quarter stops
   them early, after at least [min_passes]: the whole benchmark has a
   fixed time budget.

   Every time is scaled to reference speed (see [Calib]). A pass's
   factor comes from the slices taken through its closed loop, one
   between requests every 50 ms; it scales the pass's round trips and
   the stream that follows. Set-up times take the whole run's factor.
   The median latency is taken over the scaled round trips of every
   pass together. The 99th percentile is taken per pass (at least ten
   round trips beyond it in each) and then its median over passes, so a
   pass that a host stall hit does not set it. Throughput is every
   streamed request over the streams' scaled seconds. *)

(* Server lifetimes whose set-up time [setup_s] is the median of, at
   least. *)
let setup_spawns = 11

let min_passes = 3

(* One pass as measured, with its host speed factor. *)
type pass = { lat : float list; stream_s : float; rss : float; speed : float }

let end_to_end cfg (g : Gen.t) ~seed ~seconds =
  prepare cfg g;
  let n = Array.length g.Gen.requests in
  let failures = Hashtbl.create 16 in
  let cal = Calib.create () in
  let setups = ref [] in
  let spawn ~batch =
    Calib.sample cal 2;
    let s = spawn_server cfg g (List.length !setups) ~batch in
    setups := s.Serve.setup_s :: !setups;
    s
  in
  let phase ~batch f =
    let s = spawn ~batch in
    Fun.protect ~finally:(fun () -> Serve.stop s) @@ fun () ->
    Serve.fill s g.Gen.fill;
    let c = Serve.connect s in
    Calib.sample cal 5;
    let r = f c in
    Serve.close c;
    (r, Serve.peak_rss_mb s.Serve.pid)
  in
  (* the first pass's closed-loop answers are the reference every other
     answer must equal byte for byte *)
  let reference = ref [||] in
  let against_reference what replies =
    if !reference = [||] then reference := replies
    else same_replies failures ~what !reference replies
  in
  let rounds = g.Gen.stream_rounds in
  let stream_requests = Array.concat (List.init rounds (fun _ -> g.Gen.requests)) in
  let pass () =
    let since = Calib.mark cal in
    let (replies, rtt), rss_closed =
      phase ~batch:1 (fun c -> Serve.closed_loop ~between:(fun () -> Calib.tick cal) c g.Gen.requests)
    in
    let speed = Calib.factor ~since cal in
    against_reference "closed-loop replies of two passes" replies;
    let (stream_replies, stream_s), rss_stream = phase ~batch:64 (fun c -> Serve.stream c stream_requests) in
    for r = 0 to rounds - 1 do
      against_reference "closed-loop and stream replies" (Array.sub stream_replies (r * n) n)
    done;
    { lat = ms (answered replies rtt); stream_s; rss = Float.max rss_closed rss_stream; speed }
  in
  let deadline = Calib.now () +. (1.25 *. float_of_int seconds) in
  let rec passes acc i =
    if i = g.Gen.passes || (i >= min_passes && Calib.now () > deadline) then List.rev acc
    else passes (pass () :: acc) (i + 1)
  in
  let runs = passes [] 0 in
  (* set-up only: spawn, warm-up reply, stop *)
  while List.length !setups < setup_spawns do
    Serve.stop (spawn ~batch:64)
  done;
  let run_speed = Calib.factor cal in
  let replies = !reference in
  let check = Check.run ~seed (parse_calls g.Gen.requests) replies in
  List.iter (fun (i, why) -> fail failures i why) check.Check.failures;
  let d = Printf.sprintf "%x" (digest replies) in
  let digest_ok, digest_note =
    match expected_digest cfg g ~seed with
    | Some e when e <> d -> (false, Printf.sprintf "transcript digest %s, expected %s" d e)
    | Some _ -> (true, "transcript digest matches expected/")
    | None -> (true, "no expected digest for this seed and size")
  in
  let scaled p = List.map (fun x -> x /. p.speed) p.lat in
  let lat = List.concat_map scaled runs in
  let raw = List.concat_map (fun p -> p.lat) runs in
  let samples = List.length lat in
  let k = List.length runs in
  let streamed = float_of_int (k * rounds * n) in
  let rps p = Stat.ratio (float_of_int (rounds * n)) p.stream_s in
  let failed = Hashtbl.length failures in
  let list f = String.concat " " (List.map (fun p -> Printf.sprintf "%.4g" (f p)) runs) in
  { correct = failed = 0 && digest_ok;
    attempted = n;
    failed;
    metrics =
      [ m "setup_s" "s" (List.length !setups) (Stat.median !setups /. run_speed);
        m "latency_p50_ms" "ms" samples (Stat.percentile lat 0.50);
        m "latency_p99_ms" "ms" samples (Stat.median (List.map (fun p -> Stat.percentile (scaled p) 0.99) runs));
        m "throughput_rps" "1/s" (k * rounds * n)
          (Stat.ratio streamed (Stat.sum (List.map (fun p -> p.stream_s /. p.speed) runs)));
        m "peak_rss_mb" "MB" (2 * k) (Stat.median (List.map (fun p -> p.rss) runs));
        (* sorted, so the seed's request order cannot move the last bit *)
        m "traffic_over_bound" "ratio" (List.length check.Check.ratios)
          (Stat.geomean (List.sort compare check.Check.ratios)) ];
    notes =
      Printf.sprintf "failed_frac %.6f (%d of %d requests; %d reference checks)"
        (Stat.ratio (float_of_int failed) (float_of_int n)) failed n check.Check.references
      :: Printf.sprintf "as measured: setup_s %.6g s, latency_p50_ms %.6g, latency_p99_ms %.6g, throughput_rps %.6g"
           (Stat.median !setups) (Stat.percentile raw 0.50)
           (Stat.median (List.map (fun p -> Stat.percentile p.lat 0.99) runs))
           (Stat.ratio streamed (Stat.sum (List.map (fun p -> p.stream_s) runs)))
      :: Printf.sprintf "host speed factor %.4f over %d Calib slices; per pass %s" run_speed cal.Calib.count
           (list (fun p -> p.speed))
      :: Printf.sprintf "%d passes as measured: p50 %s ms; p99 %s ms; %s req/s" k
           (list (fun p -> Stat.percentile p.lat 0.50))
           (list (fun p -> Stat.percentile p.lat 0.99))
           (list rps)
      :: Printf.sprintf "transcript_digest %s %d %d %s" (Gen.name g.Gen.workload) seed n d
      :: digest_note :: summarize_failures failures }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* Trace events kept for the Chrome file: enough for every span of one
   traced run; a larger ring costs the garbage collector on every span. *)
let trace_capacity = 16384

let replay_store cfg (g : Gen.t) tag =
  match g.Gen.store with
  | Gen.No_store -> None
  | Gen.Fresh_store ->
    let f = path cfg ("replay-" ^ tag ^ ".store") in
    rm_rf f;
    Some f
  | Gen.Prepared _ -> Some (path cfg "prepared.store")

(* Replay time with spans on over replay time with spans off, minus 1.
   Both sides replay the same prefix on the same state, warmed first so
   that every timed round does identical work (the hit path, where
   spans cost the most relative to the work). The host's speed drifts
   within a second, so the estimate is the median ratio over 25 adjacent
   on/off pairs of ~20 ms rounds, alternating which side goes first. *)
let trace_overhead cfg g prefix =
  let st, _, _ =
    Replay.fresh ~store_path:(replay_store cfg g "overhead") ~cache_entries:(cache_entries g)
  in
  ignore (Replay.run st ~spans:false prefix);
  let round spans reps =
    if spans then Trace.start ~capacity:trace_capacity ();
    let t0 = Serve.now () in
    for _ = 1 to reps do
      ignore (Replay.run st ~spans prefix)
    done;
    let dt = Serve.now () -. t0 in
    if spans then begin
      Trace.stop ();
      Spans.reset ()
    end;
    dt
  in
  let reps = max 1 (int_of_float (0.02 /. round false 1)) in
  let ratios =
    List.init 25 (fun i ->
        if i mod 2 = 0 then
          let off = round false reps in
          round true reps /. off
        else
          let on = round true reps in
          on /. round false reps)
  in
  Replay.close st;
  Stat.median ratios -. 1.

(* Engine.handle_lines at batch 64 on a pool of [nproc] domains: the
   share of worker time spent waiting for work. *)
let pool_wait cfg (g : Gen.t) prefix =
  let pool = Pool.create (Serve.domains ()) in
  let store =
    match g.Gen.store with
    | Gen.Prepared _ -> Result.to_option (Store.open_ ~path:(path cfg "prepared.store"))
    | _ -> None
  in
  let engine =
    Engine.create ?store
      { (Engine.default_config ()) with Engine.cache_entries = cache_entries g; pool = Some pool }
  in
  let out = Engine.handle_lines engine ~batch:64 (Array.to_list prefix) in
  let _, workers = Pool.stats pool in
  Pool.shutdown pool;
  Option.iter Store.close store;
  let wait = Stat.sum (List.map (fun (w : Pool.worker_stat) -> w.Pool.wait_s) workers) in
  let run = Stat.sum (List.map (fun (w : Pool.worker_stat) -> w.Pool.run_s) workers) in
  (Array.of_list (List.map Option.some out), Stat.ratio wait (wait +. run))

(* Closed-loop medians of the workload's first requests, once they are
   cached, through [route --shards 1] and straight to [serve]. *)
let router_hop cfg (g : Gen.t) =
  let reqs = Array.sub g.Gen.requests 0 (min 200 (Array.length g.Gen.requests)) in
  let cached = [ "--batch"; "1"; "--cache-entries"; "65536" ] in
  let direct =
    let s = Serve.start ~exe:cfg.exe ~socket:(path cfg "hop.sock") ~args:cached ~warmup:Gen.warmup_line in
    Fun.protect ~finally:(fun () -> Serve.stop s) (fun () ->
        let c = Serve.connect s in
        ignore (Serve.closed_loop c reqs);
        let _, rtt = Serve.closed_loop c reqs in
        Serve.close c;
        Array.to_list rtt)
  in
  let r = Serve.start_router ~exe:cfg.exe ~args:([ "--shards"; "1"; "--socket-dir"; path cfg "route" ] @ cached) in
  let routed =
    Fun.protect ~finally:(fun () -> Serve.stop_router r) (fun () ->
        ignore (Serve.closed_loop r.Serve.rconn reqs);
        Array.to_list (snd (Serve.closed_loop r.Serve.rconn reqs)))
  in
  ((Stat.median routed -. Stat.median direct) *. 1e6, Array.length reqs)

let traced cfg (g : Gen.t) =
  prepare cfg g;
  let n = Array.length g.Gen.requests in
  let replies, rtt =
    let s = start_server cfg g 0 ~batch:1 in
    Fun.protect ~finally:(fun () -> Serve.stop s) @@ fun () ->
    let c = Serve.connect s in
    let r = Serve.closed_loop c g.Gen.requests in
    Serve.close c;
    r
  in
  let failures = Hashtbl.create 16 in
  (* the replay, spans on *)
  Spans.reset ();
  Trace.start ~capacity:trace_capacity ();
  let st, recover_s, records =
    Replay.fresh ~store_path:(replay_store cfg g "main") ~cache_entries:(cache_entries g)
  in
  Replay.fill st g.Gen.fill;
  let before = Cache.stats st.Replay.cache in
  let out, replay_s, sampled = Replay.run st ~spans:true g.Gen.requests in
  same_replies failures ~what:"server and replay answers" replies (Array.map Option.some out);
  let after = Cache.stats st.Replay.cache in
  let tally, unattributed = Replay.decompose st in
  Trace.stop ();
  mkdir_p (Filename.concat work_dir "traces");
  let trace_file = Filename.concat work_dir (Printf.sprintf "traces/%s.json" (Gen.name g.Gen.workload)) in
  Trace.export ~process_name:"perfbench" trace_file;
  let dropped = Trace.dropped () in
  let cs =
    { Cache.hits = after.Cache.hits - before.Cache.hits;
      misses = after.Cache.misses - before.Cache.misses;
      evictions = after.Cache.evictions - before.Cache.evictions;
      entries = after.Cache.entries }
  in
  Replay.close st;
  let med name = Stat.median (Spans.self_us name) and count name = List.length (Spans.self_us name) in
  let us name metric = m metric "us" (count name) (med name) in
  (* per traced request: its closed-loop round trip minus its in-process time *)
  let overheads =
    List.filter_map
      (fun (i, us) -> if replies.(i) = None then None else Some ((rtt.(i) *. 1e6) -. us))
      sampled
  in
  let bnb_us = Spans.total_us "dse.bnb" in
  let eval_us = Stat.median tally.Replay.eval_us in
  let per_search x = Stat.ratio (float_of_int x) (float_of_int tally.Replay.searches) in
  let nest_searches = count "nest.search" in
  let layer =
    [ us "protocol.parse" "protocol.parse_us";
      us "protocol.canonicalize" "protocol.canonicalize_us";
      us "protocol.serialize" "protocol.serialize_us";
      us "cache.find" "cache.find_us";
      m "cache.hit_frac" "ratio" (cs.Cache.hits + cs.Cache.misses) (Cache.hit_rate cs);
      m "server.overhead_us" "us" (List.length overheads) (Stat.median overheads);
      us "cache.add" "cache.add_us";
      m "cache.evictions" "count" 1 (float_of_int cs.Cache.evictions);
      us "store.append" "store.append_us";
      m "store.recover_s" "s" 1 recover_s;
      m "store.records" "count" 1 (float_of_int records);
      us "core.plan" "core.plan_us";
      us "dse.bnb" "dse.bnb_us";
      m "dse.bnb_nodes" "count" tally.Replay.searches (per_search tally.Replay.nodes);
      m "dse.bnb_explored" "count" tally.Replay.searches (per_search tally.Replay.explored);
      m "dse.improved_frac" "ratio" tally.Replay.searches (per_search tally.Replay.improved);
      m "loopnest.eval_us" "us" (List.length tally.Replay.eval_us) eval_us;
      m "dse.eval_share" "ratio" tally.Replay.searches
        (Stat.ratio (float_of_int tally.Replay.explored *. eval_us) (Stat.sum bnb_us));
      us "nest.search" "nest.search_us";
      m "nest.explored" "count" nest_searches
        (Stat.ratio (float_of_int tally.Replay.nest_evaluated) (float_of_int nest_searches));
      m "nest.explored_frac" "ratio" nest_searches
        (Stat.ratio (float_of_int tally.Replay.nest_evaluated) (float_of_int tally.Replay.nest_exhaustive));
      m "nest.bound_gap" "ratio" (List.length tally.Replay.bound_gaps) (Stat.mean tally.Replay.bound_gaps);
      us "decompose.compute" "engine.compute_us";
      m "engine.unattributed_frac" "ratio" (List.length unattributed) (Stat.median unattributed) ]
  in
  Spans.reset ();
  (* a prefix worth ~0.3 s of replay for the overhead and pool rounds *)
  let per_request = Stat.ratio replay_s (float_of_int n) in
  let k = max 64 (min n (int_of_float (Stat.ratio 0.3 per_request))) in
  let prefix = Array.sub g.Gen.requests 0 k in
  let overhead = trace_overhead cfg g prefix in
  let pool_out, wait_frac = pool_wait cfg g prefix in
  same_replies failures ~what:"server and batch-64 engine answers" (Array.sub replies 0 k) pool_out;
  let hop_us, hop_n = router_hop cfg g in
  let failed = Hashtbl.length failures in
  { correct = failed = 0;
    attempted = n;
    failed;
    metrics =
      layer
      @ [ m "pool.wait_frac" "ratio" k wait_frac;
          m "router.hop_us" "us" hop_n hop_us;
          m "trace.overhead_frac" "ratio" k overhead ];
    notes =
      Printf.sprintf "replay: %d requests in %.3f s, spans on 1 in %d; Chrome trace %s (%d events dropped)"
        n replay_s Replay.trace_every trace_file dropped
      :: summarize_failures failures }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_of (r : result) =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
             r.metrics) ) ]

let print_table (r : result) =
  List.iter
    (fun x -> Printf.printf "  %-26s %14.6g %-6s (n=%d)\n" x.name x.value x.unit x.samples)
    r.metrics;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes

let run_once cfg workload ~seed ~seconds ~trace =
  let g = Gen.make workload ~seed ~seconds in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b requests=%d passes=%d fill=%d domains=%d\n%!"
    (Gen.name workload) seed seconds trace (Array.length g.Gen.requests) g.Gen.passes (Array.length g.Gen.fill)
    (Serve.domains ());
  ignore (Unix.alarm 170);
  let r = if trace then traced cfg g else end_to_end cfg g ~seed ~seconds in
  ignore (Unix.alarm 0);
  print_table r;
  r

(* --repeat: one run per seed from [seed], then each metric's median,
   quartiles and spread (IQR / median) across them. *)
let repeat cfg workload ~seed ~seconds ~trace ~times =
  let runs = List.init times (fun i -> run_once cfg workload ~seed:(seed + i) ~seconds ~trace) in
  let first = List.hd runs in
  Printf.printf "%s over %d seeds:\n  %-26s %12s %12s %12s %8s\n" (Gen.name workload) times "metric" "median" "q1"
    "q3" "spread";
  let metrics =
    List.map
      (fun (x : metric) ->
        let vs = List.map (fun r -> (List.find (fun y -> y.name = x.name) r.metrics).value) runs in
        let q1, q3 = Stat.quartiles vs and med = Stat.median vs in
        Printf.printf "  %-26s %12.6g %12.6g %12.6g %8.4f\n" x.name med q1 q3 (Stat.ratio (q3 -. q1) (Float.abs med));
        { x with value = med })
      first.metrics
  in
  { correct = List.for_all (fun r -> r.correct) runs;
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs;
    failed = List.fold_left (fun a r -> a + r.failed) 0 runs;
    metrics;
    notes = [] }

(* Metric names BENCHMARK.json declares, end-to-end and per-layer. *)
let declared file =
  let names key j =
    match Json.member key j with
    | Some (Json.List l) ->
      List.filter_map (fun x -> Option.bind (Json.member "name" x) (fun v -> Result.to_option (Json.to_string_v v))) l
    | _ -> []
  in
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> (names "end_to_end" j, names "per_layer" j)
  | Error e -> failwith (file ^ ": " ^ e)

(* Every workload at a tenth of the default size, end-to-end and traced,
   one repeat each: fails unless every declared metric is printed and no
   request fails. *)
let smoke cfg ~benchmark_json =
  let e2e_names, layer_names =
    match benchmark_json with
    | Some f -> declared f
    | None -> ([], [])
  in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, want) ->
          let r = run_once cfg w ~seed:1 ~seconds:1 ~trace in
          let got = List.map (fun x -> x.name) r.metrics in
          let missing = List.filter (fun x -> not (List.mem x got)) want in
          if (not r.correct) || r.failed > 0 || missing <> [] then begin
            ok := false;
            Printf.printf "SMOKE FAIL %s trace=%b: failed=%d missing=[%s]\n" (Gen.name w) trace r.failed
              (String.concat "," missing)
          end)
        [ (false, e2e_names); (true, layer_names) ])
    Gen.all;
  !ok

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let usage =
  "usage: main.exe --workload W --seed N --seconds N --trace 0|1 [--repeat N] [--server EXE] \
   [--expected DIR]\n       main.exe --smoke [--benchmark-json FILE] [--server EXE]\n\
   workloads: miss_mix hit_repeat nest_miss"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let opts = match parse [] args with Some o -> o | None -> prerr_endline usage; exit 2 in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "repeat"; "server"; "expected"; "smoke"; "benchmark-json" ] in
  (match List.find_opt (fun (k, _) -> not (List.mem k known)) opts with
  | Some (k, _) ->
    prerr_endline ("unknown option --" ^ k ^ "\n" ^ usage);
    exit 2
  | None -> ());
  let get k = List.assoc_opt k opts in
  let int k default =
    match get k with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        prerr_endline ("--" ^ k ^ " needs an integer\n" ^ usage);
        exit 2)
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let cfg =
    { exe = Option.value (get "server") ~default:"_build/default/bin/fusecu_opt.exe";
      expected_dir = Option.value (get "expected") ~default:"perfbench/expected";
      dir }
  in
  if not (Sys.file_exists cfg.exe) then begin
    prerr_endline ("server binary not found: " ^ cfg.exe);
    exit 2
  end;
  mkdir_p dir;
  let finish () =
    Serve.cleanup ();
    Calib.stop ();
    rm_rf dir
  in
  at_exit finish;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: run exceeded its time limit";
         exit 3));
  (* stopped from outside: still stop the servers (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 4))) [ Sys.sigterm; Sys.sigint ];
  match get "smoke" with
  | Some _ ->
    let ok = smoke cfg ~benchmark_json:(get "benchmark-json") in
    print_endline (if ok then "benchmark smoke: ok" else "benchmark smoke: FAILED");
    exit (if ok then 0 else 1)
  | None -> (
    match Option.bind (get "workload") Gen.of_name with
    | None ->
      prerr_endline usage;
      exit 2
    | Some w ->
      let seed = int "seed" 1 and seconds = int "seconds" 10 and trace = int "trace" 0 <> 0 in
      let times = int "repeat" 1 in
      let r =
        try
          if times > 1 then repeat cfg w ~seed ~seconds ~trace ~times
          else run_once cfg w ~seed ~seconds ~trace
        with e ->
          prerr_endline ("perfbench: " ^ Printexc.to_string e);
          exit 1
      in
      print_endline (Json.print (json_of r));
      exit (if r.correct then 0 else 1))
