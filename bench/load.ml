(* Load generator for the serving tier: sustained concurrent traffic
   over a realistic request mix, measured end to end through the real
   Unix-socket server.

   Two measurements, matching how the tier is actually operated:

   - {b closed-loop latency}: C client threads, each with one
     connection at [batch = 1], send-one-wait-one; every request's
     wall-clock round trip is recorded and summarized as p50/p99.
   - {b streaming throughput}: one connection at the default batch
     size pipelines the whole request list and drains responses —
     the saturation shape (batching amortizes planner work across the
     pool), reported as requests/second.

   Both run twice against the same persistent store file: a cold pass
   (empty store) and a warm pass (fresh server process state,
   store-recovered cache), so BENCH_service.json records the
   warm-start hit rate next to the latency rows. Responses must be
   byte-identical cold vs. warm per client stream (control lines
   excluded) — the store can only change how much is recomputed. *)

open Fusecu_util
open Fusecu_service

(* ------------------------------------------------------------------ *)
(* Deterministic request mix                                           *)

(* SplitMix64, same generator family as the oracle: the mix is a pure
   function of the seed, so load-bench numbers are comparable across
   runs and machines. *)
let mix_state = ref 0L

let rnd () =
  let open Int64 in
  mix_state := add !mix_state 0x9E3779B97F4A7C15L;
  let z = !mix_state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 1)
  land Stdlib.max_int

let pick arr = arr.(rnd () mod Array.length arr)

(* A bounded pool of distinct problems with repeats drawn from it: the
   mix has the redundancy production traffic has (same shapes priced
   again and again), which is what makes hit rate and warm starts
   meaningful. Shares the fixture's op distribution: mostly intra,
   then fuse/chain, a few plan_model. *)
let generate ~seed ~pool ~n =
  mix_state := Int64.of_int seed;
  let dims = [| 64; 96; 128; 192; 256; 384; 512; 768 |] in
  let buffers = [| "128KB"; "256KB"; "512KB"; "1MB" |] in
  let models = [| "bert"; "llama2"; "gpt-2" |] in
  let problem i =
    match rnd () mod 10 with
    | 0 | 1 ->
      Printf.sprintf
        "{\"op\":\"fuse\",\"id\":%d,\"m\":%d,\"k\":%d,\"l\":%d,\"l2\":%d,\"buffer\":\"%s\"}"
        i (pick dims) (pick dims) (pick dims) (pick dims) (pick buffers)
    | 2 | 3 ->
      Printf.sprintf
        "{\"op\":\"chain\",\"id\":%d,\"m\":%d,\"ks\":[%d,%d,%d],\"buffer\":\"%s\"}"
        i (pick dims) (pick dims) (pick dims) (pick dims) (pick buffers)
    | 4 ->
      Printf.sprintf
        "{\"op\":\"plan_model\",\"id\":%d,\"model\":\"%s\",\"buffer\":\"%s\"}"
        i (pick models) (pick buffers)
    | _ ->
      Printf.sprintf
        "{\"op\":\"intra\",\"id\":%d,\"m\":%d,\"k\":%d,\"l\":%d,\"buffer\":\"%s\"}"
        i (pick dims) (pick dims) (pick dims) (pick buffers)
  in
  let templates = Array.init pool problem in
  List.init n (fun i ->
      (* re-stamp the id so responses are traceable per request *)
      let t = templates.(rnd () mod pool) in
      match Json.parse t with
      | Ok (Json.Obj fields) ->
        Json.print
          (Json.Obj
             (List.map
                (function "id", _ -> ("id", Json.Int i) | kv -> kv)
                fields))
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Socket clients                                                      *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Minimal buffered line reader for client sockets (the server side
   uses {!Server.Line_reader}; clients just need blocking reads). *)
type rx = { fd : Unix.file_descr; buf : Buffer.t; scratch : Bytes.t }

let rx fd = { fd; buf = Buffer.create 4096; scratch = Bytes.create 4096 }

let rec read_response r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)
  | None -> (
    match Unix.read r.fd r.scratch 0 (Bytes.length r.scratch) with
    | 0 -> None
    | n ->
      Buffer.add_subbytes r.buf r.scratch 0 n;
      read_response r
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)
(* Measurement passes                                                  *)

type pass = {
  p50_ms : float;
  p99_ms : float;
  latency_rps : float;  (** closed-loop aggregate request rate *)
  stream_rps : float;  (** single-connection batched throughput *)
  hit_rate : float;
  latencies : float array;  (** every closed-loop round trip, seconds *)
  transcripts : string list list;  (** per latency client, response lines *)
  stream_transcript : string list;
}

(* Full tail shape, not just two percentiles: the same log2 bucket
   layout the service's own latency histograms use, serialized by the
   same encoder so BENCH rows and metrics dumps are comparable bucket
   for bucket. *)
let latency_histogram latencies =
  let bins = Array.make Metrics.buckets 0 in
  Array.iter
    (fun l ->
      let b = Metrics.bucket_of_seconds l in
      bins.(b) <- bins.(b) + 1)
    latencies;
  Metrics.histogram_json ~count:(Array.length latencies)
    ~total_s:(Array.fold_left ( +. ) 0. latencies)
    bins

let with_server ~store_path ~batch f =
  let config =
    { (Engine.default_config ()) with Engine.cache_entries = 65536 }
  in
  let store =
    match store_path with
    | None -> None
    | Some path -> (
      match Store.open_ ~path with
      | Ok s -> Some s
      | Error e -> failwith e)
  in
  let engine = Engine.create ?store config in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_load_%d_%d.sock" (Unix.getpid ()) (rnd () mod 10000))
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let server =
    Thread.create
      (fun () ->
        Server.serve_socket engine ~batch
          ~config:{ Server.max_conns = 64; idle_timeout = 30.; max_line = 1 lsl 20 }
          ~path:sock ())
      ()
  in
  let rec wait n =
    if n = 0 then failwith "load: server did not come up";
    match Unix.stat sock with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> ()
    | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
      Thread.delay 0.02;
      wait (n - 1)
  in
  wait 250;
  let result = f sock engine in
  (try
     let fd = connect sock in
     send_all fd "{\"op\":\"shutdown\"}\n";
     Unix.shutdown fd Unix.SHUTDOWN_SEND;
     let r = rx fd in
     let rec drain () = match read_response r with Some _ -> drain () | None -> () in
     drain ();
     Unix.close fd
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join server;
  (match store with Some s -> Store.close s | None -> ());
  result

(* One measurement pass against one server lifetime. *)
let run_pass ~store_path ~concurrency ~latency_requests ~stream_requests () =
  (* closed-loop latency at batch 1 *)
  let latencies = Array.make (List.length latency_requests) 0. in
  let shares = Array.make concurrency [] in
  List.iteri
    (fun i req -> shares.(i mod concurrency) <- (i, req) :: shares.(i mod concurrency))
    latency_requests;
  Array.iteri (fun i s -> shares.(i) <- List.rev s) shares;
  let transcripts = Array.make concurrency [] in
  let lat_elapsed =
    with_server ~store_path ~batch:1 (fun sock _engine ->
        let t0 = Unix.gettimeofday () in
        let threads =
          Array.mapi
            (fun ci share ->
              Thread.create
                (fun () ->
                  let fd = connect sock in
                  let r = rx fd in
                  let out = ref [] in
                  List.iter
                    (fun (i, req) ->
                      let t = Unix.gettimeofday () in
                      send_all fd (req ^ "\n");
                      match read_response r with
                      | Some line ->
                        latencies.(i) <- Unix.gettimeofday () -. t;
                        out := line :: !out
                      | None -> failwith "load: server closed mid-request")
                    share;
                  transcripts.(ci) <- List.rev !out;
                  Unix.close fd)
                ())
            shares
        in
        Array.iter Thread.join threads;
        Unix.gettimeofday () -. t0)
  in
  (* streaming throughput at the default batch on a fresh server
     lifetime (same store: it has absorbed the latency pass's plans) *)
  let stream_transcript, stream_elapsed, hit_rate_stream =
    with_server ~store_path ~batch:64 (fun sock engine ->
        let fd = connect sock in
        let t0 = Unix.gettimeofday () in
        send_all fd (String.concat "\n" stream_requests ^ "\n");
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let r = rx fd in
        let rec drain acc =
          match read_response r with
          | Some l -> drain (l :: acc)
          | None -> List.rev acc
        in
        let lines = drain [] in
        let elapsed = Unix.gettimeofday () -. t0 in
        Unix.close fd;
        (lines, elapsed, Cache.hit_rate (Engine.cache_stats engine)))
  in
  let sorted = Array.map (fun l -> l *. 1000.) latencies in
  Array.sort compare sorted;
  { p50_ms = percentile sorted 0.50;
    p99_ms = percentile sorted 0.99;
    latency_rps = float_of_int (Array.length latencies) /. lat_elapsed;
    stream_rps = float_of_int (List.length stream_requests) /. stream_elapsed;
    hit_rate = hit_rate_stream;
    latencies;
    transcripts = Array.to_list transcripts;
    stream_transcript }

let pass_json p =
  Json.Obj
    [ ("p50_ms", Json.Float p.p50_ms);
      ("p99_ms", Json.Float p.p99_ms);
      ("closed_loop_rps", Json.Float p.latency_rps);
      ("stream_rps", Json.Float p.stream_rps);
      ("hit_rate", Json.Float p.hit_rate);
      ("latency", latency_histogram p.latencies) ]

(* ------------------------------------------------------------------ *)
(* Routed closed-loop pass                                             *)

(* Same send-one-wait-one measurement, but through the sharding front
   end: a forked shard fleet behind an in-process {!Router.run} driven
   over pipes, so every round trip crosses the real routing hop
   (stamp, consistent-hash, socket, reassemble, strip). Runs once per
   shard count; the transcripts must be byte-identical across shard
   counts (the mix is all calls, and routing never changes a call's
   response bytes). *)
let routed_pass ~shards ~requests =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_load_fleet_%d_%d" (Unix.getpid ()) shards)
  in
  Unix.mkdir dir 0o700;
  let config =
    { (Engine.default_config ()) with Engine.cache_entries = 65536 }
  in
  let server_config =
    { Server.max_conns = 64; idle_timeout = 30.; max_line = 1 lsl 20 }
  in
  let children =
    List.init shards (fun i ->
        let socket = Filename.concat dir (Printf.sprintf "shard-%d.sock" i) in
        (* batch 1: closed-loop send-one-wait-one would deadlock against
           a shard holding the lone in-flight response in a larger batch *)
        Router.spawn_shard ~batch:1
          ~make_engine:(fun _ -> Engine.create config)
          ~socket ~server_config i)
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop_children children;
      List.iter
        (fun (c : Router.child) ->
          try Sys.remove c.socket with Sys_error _ -> ())
        children;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun (c : Router.child) ->
          if not (Router.wait_for_socket c.socket) then
            failwith "load: routed shard socket never appeared")
        children;
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let router =
        Thread.create
          (fun () ->
            Router.run
              ~backends:
                (List.map (fun (c : Router.child) -> c.socket) children)
              ~input:req_r ~output:resp_w ();
            Unix.close resp_w)
          ()
      in
      let latencies = Array.make (List.length requests) 0. in
      let r = rx resp_r in
      let t0 = Unix.gettimeofday () in
      let transcript =
        List.mapi
          (fun i req ->
            let t = Unix.gettimeofday () in
            send_all req_w (req ^ "\n");
            match read_response r with
            | Some line ->
              latencies.(i) <- Unix.gettimeofday () -. t;
              line
            | None -> failwith "load: router closed mid-request")
          requests
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Unix.close req_w;
      Thread.join router;
      Unix.close req_r;
      Unix.close resp_r;
      (transcript, latencies, elapsed))

let routed_json ~shards latencies elapsed =
  let sorted = Array.map (fun l -> l *. 1000.) latencies in
  Array.sort compare sorted;
  Json.Obj
    [ ("shards", Json.Int shards);
      ("requests", Json.Int (Array.length latencies));
      ("p50_ms", Json.Float (percentile sorted 0.50));
      ("p99_ms", Json.Float (percentile sorted 0.99));
      ("closed_loop_rps",
       Json.Float (float_of_int (Array.length latencies) /. elapsed));
      ("latency", latency_histogram latencies) ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let run ?(quick = false) () =
  let n = if quick then 200 else 2000 in
  let pool = if quick then 40 else 200 in
  let concurrency = 4 in
  (* routed passes first: they fork shard fleets, and forking is only
     safe before anything in this process touches the global domain
     pool (the unrouted passes below spin up in-process servers) *)
  let routed_n = if quick then 120 else 600 in
  let routed_requests = generate ~seed:17 ~pool ~n:routed_n in
  let routed =
    List.map
      (fun shards ->
        let transcript, latencies, elapsed =
          routed_pass ~shards ~requests:routed_requests
        in
        (shards, transcript, routed_json ~shards latencies elapsed))
      [ 1; 2 ]
  in
  (match routed with
  | (_, t1, _) :: rest ->
    List.iter
      (fun (shards, t, _) ->
        if t <> t1 then begin
          let reported = ref false in
          List.iteri
            (fun i (a, b) ->
              if a <> b && not !reported then begin
                reported := true;
                Printf.eprintf
                  "load: first divergence at line %d:\n  1 shard:  %s\n  \
                   %d shards: %s\n%!"
                  i a shards b
              end)
            (List.combine t1 t);
          failwith
            (Printf.sprintf
               "load: routed responses diverge between 1 and %d shards" shards)
        end)
      rest
  | [] -> ());
  let latency_requests = generate ~seed:11 ~pool ~n in
  let stream_requests = generate ~seed:13 ~pool ~n in
  let store_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_load_%d.store" (Unix.getpid ()))
  in
  (try Sys.remove store_path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove store_path with Sys_error _ -> ())
    (fun () ->
      let cold =
        run_pass ~store_path:(Some store_path) ~concurrency ~latency_requests
          ~stream_requests ()
      in
      let warm =
        run_pass ~store_path:(Some store_path) ~concurrency ~latency_requests
          ~stream_requests ()
      in
      (* correctness gates: warm state must change only speed *)
      if warm.transcripts <> cold.transcripts then
        failwith "load: warm closed-loop responses diverge from cold";
      if warm.stream_transcript <> cold.stream_transcript then
        failwith "load: warm streaming responses diverge from cold";
      if not (warm.hit_rate > cold.hit_rate) then
        failwith
          (Printf.sprintf
             "load: warm start did not raise the hit rate (cold %.3f, warm %.3f)"
             cold.hit_rate warm.hit_rate);
      Printf.printf
        "load: %d reqs x%d conns  cold p50 %.2f ms p99 %.2f ms (%.0f rps \
         closed, %.0f rps stream, hit %.3f)\n\
         load: warm p50 %.2f ms p99 %.2f ms (%.0f rps closed, %.0f rps \
         stream, hit %.3f)\n"
        n concurrency cold.p50_ms cold.p99_ms cold.latency_rps cold.stream_rps
        cold.hit_rate warm.p50_ms warm.p99_ms warm.latency_rps warm.stream_rps
        warm.hit_rate;
      Json.Obj
        [ ("requests", Json.Int n);
          ("distinct_problems", Json.Int pool);
          ("concurrency", Json.Int concurrency);
          ("cold", pass_json cold);
          ("warm", pass_json warm);
          ("warm_identical_to_cold", Json.Bool true);
          ("routed", Json.List (List.map (fun (_, _, j) -> j) routed)) ])

let smoke () =
  ignore (run ~quick:true ());
  print_endline
    "load smoke: cold/warm byte-identical, routed transcripts identical \
     across shard counts, warm hit rate higher"
