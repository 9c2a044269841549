(* The @obs-smoke drill: distributed observability must cost zero bytes.

   A 2-shard router fleet replays the service fixture twice — once
   plain, once with every observability surface live at once: tracing
   in the router and both shards, debug logging everywhere, a router
   metrics registry, and the fleet Prometheus exporter being scraped
   concurrently over TCP for the whole replay. Every planning line must
   agree byte for byte, the stats fan-out must agree except for the
   connection-lifecycle counters the scrapes' own connections bump, and
   the planning lines must equal the single-server golden — DESIGN.md
   §6b's no-perturbation rule, extended across process boundaries.

   The instrumented pass then has to prove the observability actually
   observed something: the per-process Chrome traces (router +
   shard-0 + shard-1) must merge into one well-formed timeline whose
   backend spans carry the router-stamped trace contexts, and the
   in-band fleet metrics response must be exactly the {!Fleet} merge of
   the per-shard snapshots it itself carries under "shards". *)

open Fusecu_util
open Fusecu_service

let response_op line =
  match Json.parse line with
  | Ok r -> (
    match Json.member "op" r with Some (Json.String op) -> Some op | _ -> None)
  | Error _ -> None

let non_control = Drill.non_control

(* Out-of-band quiet scrapes move no tick and no request counter, but
   they are real connections: the servers' conns_accepted/conns_closed
   legitimately observe them. Strip exactly those two counters so the
   stats comparison pins everything else to byte equality. *)
let rec strip_conns = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "conns_accepted" || k = "conns_closed" then None
           else Some (k, strip_conns v))
         fields)
  | Json.List l -> Json.List (List.map strip_conns l)
  | x -> x

let normalize_stats line =
  match Json.parse line with
  | Ok j -> Json.print (strip_conns j)
  | Error _ -> line

let check = Drill.check ~drill:"obs"

(* ------------------------------------------------------------------ *)
(* Merged-trace validation                                             *)

let looks_like_tc = function
  | Json.String s ->
    String.length s >= 4
    && s.[0] = 'r'
    && String.contains s '.'
    && String.for_all (fun c -> c = 'r' || c = '.' || (c >= '0' && c <= '9')) s
  | _ -> false

let validate_merged_trace ~router_pid ~child_pids merged =
  let events =
    match Json.member "traceEvents" merged with
    | Some (Json.List evs) -> evs
    | _ -> failwith "obs drill: merged trace has no traceEvents list"
  in
  let field ev k = Json.member k ev in
  let pid_of ev =
    match field ev "pid" with Some (Json.Int p) -> Some p | _ -> None
  in
  let name_of ev =
    match field ev "name" with Some (Json.String n) -> Some n | _ -> None
  in
  (* every process contributed events under its real pid *)
  List.iter
    (fun pid ->
      if not (List.exists (fun ev -> pid_of ev = Some pid) events) then
        failwith
          (Printf.sprintf "obs drill: merged trace has no events for pid %d" pid))
    (router_pid :: child_pids);
  (* process lanes are named: one metadata event per process *)
  let lanes =
    List.filter_map
      (fun ev ->
        match (field ev "ph", name_of ev, field ev "args") with
        | Some (Json.String "M"), Some "process_name", Some args -> (
          match Json.member "name" args with
          | Some (Json.String n) -> Some n
          | _ -> None)
        | _ -> None)
      events
  in
  List.iter
    (fun lane ->
      if not (List.mem lane lanes) then
        failwith ("obs drill: merged trace is missing the " ^ lane ^ " lane"))
    [ "router"; "shard-0"; "shard-1" ];
  (* the router's pipeline spans are present *)
  List.iter
    (fun span ->
      if not (List.exists (fun ev -> name_of ev = Some span) events) then
        failwith ("obs drill: merged trace has no " ^ span ^ " span"))
    [ "router.enqueue"; "router.route"; "router.reassemble" ];
  (* backend spans opened under router-stamped trace contexts, in both
     shards: cross-process propagation end to end *)
  List.iter
    (fun pid ->
      let stamped =
        List.exists
          (fun ev ->
            pid_of ev = Some pid
            &&
            match field ev "args" with
            | Some args -> (
              match Json.member "tc" args with
              | Some tc -> looks_like_tc tc
              | None -> false)
            | None -> false)
          events
      in
      if not stamped then
        failwith
          (Printf.sprintf
             "obs drill: no span in shard pid %d carries a propagated trace \
              context"
             pid))
    child_pids;
  (* timestamps are merged into one non-decreasing timeline (metadata
     events lead) *)
  let ts_of ev =
    match field ev "ts" with
    | Some (Json.Float t) -> Some t
    | Some (Json.Int t) -> Some (float_of_int t)
    | _ -> None
  in
  let rec monotonic last = function
    | [] -> ()
    | ev :: rest -> (
      match ts_of ev with
      | None -> monotonic last rest
      | Some t ->
        if t < last then failwith "obs drill: merged trace is not time-sorted";
        monotonic t rest)
  in
  monotonic neg_infinity
    (List.filter
       (fun ev -> field ev "ph" <> Some (Json.String "M"))
       events);
  List.length events

(* ------------------------------------------------------------------ *)
(* Fleet-metrics self-consistency                                      *)

(* The fleet metrics response carries the raw per-shard snapshots it
   was merged from; recomputing the merge from them must reproduce the
   response exactly (counter sums, bucket-wise histograms, gauge sums,
   the router-owned uptime_ticks). *)
let validate_fleet_metrics line =
  let result =
    match Json.parse line with
    | Ok r -> (
      match Json.member "result" r with
      | Some res -> res
      | None -> failwith "obs drill: metrics response has no result")
    | Error e -> failwith ("obs drill: metrics response unparsable: " ^ e)
  in
  let shard_dumps =
    match Json.member "shards" result with
    | Some (Json.List rows) ->
      List.map
        (fun row ->
          match Json.member "result" row with
          | Some dump -> dump
          | None -> failwith "obs drill: shards row has no result")
        rows
    | _ -> failwith "obs drill: fleet metrics has no shards breakdown"
  in
  if List.length shard_dumps <> 2 then
    failwith "obs drill: expected 2 per-shard metric snapshots";
  let uptime =
    match Json.member "gauges" result with
    | Some gauges -> (
      match Json.member "uptime_ticks" gauges with
      | Some (Json.Float u) -> int_of_float u
      | Some (Json.Int u) -> u
      | _ -> failwith "obs drill: fleet metrics has no uptime_ticks gauge")
    | None -> failwith "obs drill: fleet metrics has no gauges"
  in
  match Fleet.merge_metrics ~uptime_ticks:uptime shard_dumps with
  | Error e -> failwith ("obs drill: fleet merge failed: " ^ e)
  | Ok expected ->
    if Json.print expected <> Json.print result then
      failwith
        "obs drill: fleet metrics response is not the merge of its own \
         per-shard snapshots"

(* ------------------------------------------------------------------ *)

let scrape_exporter port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let buf = Buffer.create 4096 and scratch = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd scratch 0 (Bytes.length scratch) with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf scratch 0 n;
          drain ()
      in
      drain ())

let run () =
  let requests = Drill.fixture () @ [ "{\"op\":\"metrics\",\"id\":990}" ] in
  let golden = Drill.golden () in
  Drill.with_temp_dir "fusecu_obs" @@ fun dir ->
  Fun.protect
    ~finally:(fun () -> Log.set_level None)
    (fun () ->
      (* pass A: plain 2-shard replay, nothing instrumented *)
      let fleet_a = Drill.spawn_fleet ~dir ~shards:2 () in
      let plain = Drill.route_replay ~requests (Drill.sockets fleet_a) in
      Router.stop_children fleet_a;
      check "plain 2-shard vs golden (non-control)" (non_control golden)
        (non_control plain);
      (* pass B: everything on at once. Debug level is set before the
         fork so the children inherit it; spawn_shard tags their
         records with the shard index. *)
      Log.set_level (Some Log.Debug);
      let fleet_b = Drill.spawn_fleet ~trace:true ~dir ~shards:2 () in
      let sockets = Drill.sockets fleet_b in
      Trace.start ();
      let router_metrics = Metrics.create () in
      let exporter =
        Server.start_metrics_exporter
          ~render:(fun () ->
            Router.fleet_prometheus_render ~metrics:router_metrics ~sockets ())
          ~addr:"127.0.0.1:0"
      in
      let port = Server.exporter_port exporter in
      let scraping = Atomic.make true in
      let scrapes = ref [] in
      let scraper =
        Thread.create
          (fun () ->
            while Atomic.get scraping do
              (try scrapes := scrape_exporter port :: !scrapes
               with Unix.Unix_error _ | Failure _ -> ());
              Thread.delay 0.02
            done)
          ()
      in
      let instrumented =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set scraping false;
            Thread.join scraper;
            Server.stop_metrics_exporter exporter)
          (fun () ->
            let out = Drill.route_replay ~metrics:router_metrics ~requests sockets in
            (* one guaranteed scrape while the fleet is still up *)
            scrapes := scrape_exporter port :: !scrapes;
            out)
      in
      Trace.stop ();
      let router_pid = Unix.getpid () in
      Trace.export ~pid:router_pid ~process_name:"router"
        (Filename.concat dir "router.json");
      Router.stop_children fleet_b;
      Log.set_level None;
      (* zero perturbation: every planning byte identical; the stats
         fan-out identical except the connection-lifecycle counters the
         concurrent scrapes legitimately bump; the metrics line excluded
         outright (its latency histograms measure wall time) *)
      check "instrumented vs plain (planning lines)" (non_control plain)
        (non_control instrumented);
      check "instrumented vs plain (stats, sans conn counters)"
        (List.filter_map
           (fun l ->
             if response_op l = Some "stats" then Some (normalize_stats l)
             else None)
           plain)
        (List.filter_map
           (fun l ->
             if response_op l = Some "stats" then Some (normalize_stats l)
             else None)
           instrumented);
      check "instrumented vs golden (non-control)" (non_control golden)
        (non_control instrumented);
      (* the concurrent scrapes really happened and really were fleet
         expositions *)
      let scrape_count = List.length !scrapes in
      if scrape_count = 0 then failwith "obs drill: exporter was never scraped";
      let contains hay needle =
        let hn = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= hn && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      let last_scrape = List.hd !scrapes in
      List.iter
        (fun needle ->
          if not (contains last_scrape needle) then
            failwith (Printf.sprintf "obs drill: exposition lacks %S" needle))
        [ "fusecu_router_requests"; "shard=\"0\""; "shard=\"1\"" ];
      (* merge the three per-process profiles and validate the timeline *)
      let parts =
        List.map
          (fun f ->
            let path = Filename.concat dir f in
            match Json.parse (In_channel.with_open_text path In_channel.input_all) with
            | Ok j -> j
            | Error e -> failwith ("obs drill: " ^ path ^ ": " ^ e))
          [ "router.json"; "shard-0.json"; "shard-1.json" ]
      in
      let merged =
        match Trace.merge_chrome parts with
        | Ok m -> m
        | Error e -> failwith ("obs drill: trace merge failed: " ^ e)
      in
      let child_pids = List.map (fun (c : Router.child) -> c.pid) fleet_b in
      let n_events = validate_merged_trace ~router_pid ~child_pids merged in
      (* the in-band fleet metrics line is the merge of its own shards *)
      (match List.rev instrumented with
      | last :: _ -> validate_fleet_metrics last
      | [] -> failwith "obs drill: empty instrumented transcript");
      Printf.printf
        "obs drill: instrumented 2-shard replay byte-identical (%d planning \
         lines), %d concurrent scrapes, merged trace has %d events across 3 \
         process lanes, fleet metrics = shard-wise merge\n"
        (List.length (non_control golden))
        scrape_count n_events;
      print_endline "obs drill: ok")
