(* The socket fault drill behind `dune build @service-smoke`: the
   fixture's planning lines pushed through the real concurrent
   [Server.serve_socket] accept loop the way misbehaving production
   traffic would — several concurrent fast clients, one slow-loris
   connection the idle timeout must evict, and one client that
   disconnects mid-batch without reading. Every fast client must get
   the sequential golden transcript, the loris must be timed out, and
   shutdown must remove the socket file. *)

open Fusecu_util
open Fusecu_service

let config =
  { Server.max_conns = 2 (* below the client count: exercises backpressure *);
    idle_timeout = 0.5;
    max_line = 64 * 1024 }

let run ?(clients = 4) () =
  (* stats answers legitimately differ once connections share the
     engine, so the drill replays only the planning traffic *)
  let requests = Drill.non_control (Drill.fixture ()) in
  let golden = Engine.handle_lines (Engine.create (Engine.default_config ())) requests in
  let engine = Engine.create (Engine.default_config ()) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_bench_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let server = Drill.start_server ~config engine path in
  (* fault injection: a slow loris (incomplete line, then silence) and a
     mid-batch disconnect (requests sent, connection closed unread) *)
  let loris = Drill.connect path in
  Drill.send_all loris "{\"op\":\"intra\",";
  let dropper = Drill.connect path in
  Drill.send_all dropper (String.concat "\n" (List.filteri (fun i _ -> i < 2) requests) ^ "\n");
  Unix.close dropper;
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun i ->
        Thread.create (fun () -> results.(i) <- Drill.exchange path requests) ())
  in
  List.iter Thread.join threads;
  let mismatches = Array.fold_left (fun n lines -> if lines <> golden then n + 1 else n) 0 results in
  (* wait out the loris eviction, then stop the daemon in-band *)
  ignore (Drill.recv_lines loris);
  (try Unix.close loris with Unix.Unix_error _ -> ());
  Drill.stop_server path server;
  if mismatches > 0 then
    failwith
      (Printf.sprintf
         "socket drill: %d of %d concurrent clients diverged from the sequential golden \
          transcript"
         mismatches clients);
  if Sys.file_exists path then failwith "socket drill: socket file survived shutdown";
  let m = Engine.metrics engine in
  if Metrics.get m "conn_idle_timeouts" < 1 then
    failwith "socket drill: the slow-loris client was never timed out";
  let counter name = (name, Json.Int (Metrics.get m name)) in
  print_endline
    ("socket drill: "
    ^ Json.print
        (Json.Obj
           [ ("clients", Json.Int clients);
             ("requests_per_client", Json.Int (List.length requests));
             counter "conns_accepted";
             counter "conns_closed";
             counter "conn_idle_timeouts";
             counter "conn_client_drops";
             counter "conn_oversized_lines" ]))
