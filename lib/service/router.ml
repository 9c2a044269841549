module Hash = Fusecu_util.Hash
module Json = Fusecu_util.Json
module Log = Fusecu_util.Log
module Trace = Fusecu_util.Trace

(* The sharding front end: consistent-hashes each request's canonical
   cache key onto one of N backend sockets (each an ordinary
   [serve --socket] process), forwards the raw NDJSON line, and
   reassembles responses in request order.

   Determinism argument (DESIGN.md §9): a backend's response bytes for a
   call depend only on the call — canonicalization runs on every
   request, and cache state only decides whether a plan is recomputed,
   never what it is (the PR 2 invariant, re-proven per mapper in PR 6).
   Routing by canonical key keeps each key's traffic on one shard (so
   caches still deduplicate), and order reassembly makes the output
   stream a permutation-free merge: the transcript is byte-identical
   for every shard count, cold or warm. Control lines are the one
   exception — [stats]/[metrics] counters are per-process state, so
   they are fanned out to every backend and merged ({!Fleet}): counters
   sum, histograms add bucket-wise, and the fleet's [uptime_ticks] is
   the router's own request-line count (a pure function of client
   traffic — summed backend ticks would count each fan-out N times). A
   1-shard tier emits backend 0's control responses verbatim, so it
   reproduces the single-server transcript exactly, control lines
   included; cross-shard-count comparisons still exclude control lines
   because the counters themselves are shard-count dependent.

   Trace propagation: each routable call is stamped with a trace
   context ["r<trace>.<seq>"] (the ["tc"] envelope member, spliced
   textually — {!Protocol.with_tc} — so no other byte of the line can
   change). Backends echo it on their responses and attach it to their
   spans; the router strips the exact echo before emitting, so routed
   output stays byte-identical to unrouted output whether or not anyone
   is tracing. A client-supplied ["tc"] wins (first binding) and passes
   through untouched.

   Plumbing: one reader thread per backend pushes response lines into
   that backend's FIFO; the forwarding loop never waits for responses
   (a backend holds requests in a batch until it flushes, so
   stop-and-wait would deadlock against batching); an emitter thread
   pops (request order → backend) assignments and blocks on the right
   FIFO. Per-backend ordering is guaranteed by the server (responses in
   request order per connection), which is all the emitter needs. *)

type backend = {
  index : int;
  fd : Unix.file_descr;
  reader : Server.Line_reader.t;
  lines : string Queue.t;  (* response FIFO, reader thread -> emitter *)
  mutable closed : bool;  (* reader saw EOF/timeout; no more lines *)
  mutex : Mutex.t;
  cond : Condition.t;
}

type config = { idle_timeout : float; max_line : int; vnodes : int }

let default_config = { idle_timeout = 30.; max_line = 1 lsl 20; vnodes = 64 }

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring                                                *)

(* Ring points are hashed from backend *indices*, not socket paths, so
   the ring — and therefore every key's placement — is a pure function
   of the shard count: stable across restarts and across machines. *)
let build_ring ~vnodes n =
  let points =
    Array.init (n * vnodes) (fun i ->
        let b = i / vnodes and v = i mod vnodes in
        (Hash.fnv1a64_positive (Printf.sprintf "backend-%d-vnode-%d" b v), b))
  in
  Array.sort compare points;
  points

let ring_lookup ring h =
  let n = Array.length ring in
  (* first point with hash >= h, wrapping to ring.(0) *)
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst ring.(mid) < h then bsearch (mid + 1) hi else bsearch lo mid
  in
  let i = bsearch 0 n in
  snd ring.(if i = n then 0 else i)

(* Where a raw request line goes. Calls route by canonical cache key —
   the same string that keys the plan cache and the store, so one key's
   repeats always land on the shard that cached it. Rejects route by the
   raw line (any backend computes identical reject bytes; hashing just
   spreads the load). [stats]/[metrics] fan out to every backend for the
   fleet merge; [shutdown] broadcasts so every backend stops. *)
type routing =
  | To of { backend : int; stamp : bool }  (** forward to one backend *)
  | Fanout of { op : string }  (** stats/metrics: ask everyone, merge *)
  | Broadcast  (** shutdown: every backend must stop *)

let route_line ring line =
  match Protocol.parse_line line with
  | Ok (_, _, Protocol.Call c) ->
    let canonical, _ = Protocol.canonicalize c in
    To
      { backend =
          ring_lookup ring (Hash.fnv1a64_positive (Protocol.cache_key canonical));
        stamp = true }
  | Ok (_, _, Protocol.Stats) -> Fanout { op = "stats" }
  | Ok (_, _, Protocol.Metrics_req _) -> Fanout { op = "metrics" }
  | Ok (_, _, Protocol.Shutdown) -> Broadcast
  | Error _ ->
    To { backend = ring_lookup ring (Hash.fnv1a64_positive line); stamp = false }

(* ------------------------------------------------------------------ *)
(* Backend plumbing                                                    *)

let connect_backend ~index path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { index;
      fd;
      reader = Server.Line_reader.create fd;
      lines = Queue.create ();
      closed = false;
      mutex = Mutex.create ();
      cond = Condition.create () }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "route: cannot connect to backend %s: %s" path
         (Unix.error_message err))

let reader_loop ~stop ~config b () =
  let running = ref true in
  while !running do
    match
      Server.Line_reader.read ~stop ~idle_timeout:config.idle_timeout
        ~max_line:config.max_line b.reader
    with
    | Server.Line_reader.Line l ->
      Mutex.lock b.mutex;
      Queue.add l b.lines;
      Condition.signal b.cond;
      Mutex.unlock b.mutex
    | Eof | Timeout | Oversized | Stopped ->
      Mutex.lock b.mutex;
      b.closed <- true;
      Condition.broadcast b.cond;
      Mutex.unlock b.mutex;
      running := false
  done

(* Pop the next response from a backend; [None] when it closed without
   delivering one (death mid-request — the emitter substitutes an error
   line so the client still gets one response per request). *)
let pop_line b =
  Mutex.lock b.mutex;
  let rec go () =
    if not (Queue.is_empty b.lines) then Some (Queue.pop b.lines)
    else if b.closed then None
    else begin
      Condition.wait b.cond b.mutex;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock b.mutex;
  r

(* ------------------------------------------------------------------ *)
(* The front loop                                                      *)

type order_entry =
  | Expect of { backend : int; tc : string option }
      (** emit the next line from this backend, stripping the echoed
          trace context *)
  | Expect_fanout of { op : string; uptime : int }
      (** stats/metrics fan-out: pop one line from {e every} backend (in
          shard order) and emit the {!Fleet} merge; [uptime] is the
          router's line count at the moment the request was read *)
  | Expect_broadcast
      (** shutdown fan-out: emit backend 0's ack, discard the rest *)
  | Done

let run ?(config = default_config) ?metrics ~backends ~input ~output () =
  if backends = [] then invalid_arg "Router.run: no backends";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let bs = List.mapi (fun i path -> connect_backend ~index:i path) backends in
  let barr = Array.of_list bs in
  let n = Array.length barr in
  let ring = build_ring ~vnodes:config.vnodes n in
  let stop = Atomic.make false in
  let readers =
    Array.map (fun b -> Thread.create (reader_loop ~stop ~config b) ()) barr
  in
  (* Instrumentation: all optional, all off the response path, so routed
     bytes are invariant to whether a registry is attached. In-flight is
     tracked per backend (sends minus emitted responses). *)
  let mincr ?by name =
    match metrics with Some m -> Metrics.incr ?by m name | None -> ()
  in
  let mgauge name v =
    match metrics with Some m -> Metrics.set_gauge m name v | None -> ()
  in
  let inflight = Array.init n (fun _ -> Atomic.make 0) in
  let inflight_gauge = Array.init n (Printf.sprintf "router_inflight_shard_%d") in
  let note_sent i =
    let v = Atomic.fetch_and_add inflight.(i) 1 + 1 in
    mgauge inflight_gauge.(i) (float_of_int v)
  in
  let note_emitted i =
    let v = Atomic.fetch_and_add inflight.(i) (-1) - 1 in
    mgauge inflight_gauge.(i) (float_of_int v)
  in
  let order = Queue.create () in
  let omutex = Mutex.create () in
  let ocond = Condition.create () in
  let push_order e =
    Mutex.lock omutex;
    Queue.add e order;
    let depth = Queue.length order in
    Mutex.unlock omutex;
    Condition.signal ocond;
    mgauge "router_reassembly_depth" (float_of_int depth)
  in
  let backend_error b =
    Protocol.response_error ~id:Json.Null ~code:Protocol.Bad_request
      ~message:
        (Printf.sprintf "router: backend %d closed before responding" b)
  in
  (* One trace id per router run; each routed call gets "r<id>.<seq>". *)
  let trace_run = Trace.new_trace_id () in
  let lines_seen = ref 0 in
  let emit_line line =
    output_string output line;
    output_char output '\n';
    flush output
  in
  (* Pop one response from every backend, shard order. *)
  let pop_all () = Array.to_list (Array.map pop_line barr) in
  let merge_fanout ~op ~uptime =
    match pop_all () with
    | [ only ] ->
      (* 1-shard fleet: the single backend's control response verbatim,
         byte-identical to an unrouted server *)
      (match only with Some l -> l | None -> backend_error 0)
    | popped -> (
      let parse_result (i, l) =
        match l with
        | None -> Error (Printf.sprintf "backend %d closed" i)
        | Some l -> (
          match Json.parse l with
          | Error e -> Error (Printf.sprintf "backend %d: %s" i e)
          | Ok r -> (
            match (Json.member "id" r, Json.member "result" r) with
            | Some id, Some result -> Ok (id, result)
            | _ -> Error (Printf.sprintf "backend %d: not an ok response" i)))
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
          match parse_result x with
          | Ok r -> collect (r :: acc) rest
          | Error _ as e -> e)
      in
      match collect [] (List.mapi (fun i l -> (i, l)) popped) with
      | Error e ->
        mincr "router_backend_errors";
        Protocol.response_error ~id:Json.Null ~code:Protocol.Bad_request
          ~message:(Printf.sprintf "router: fleet %s merge failed: %s" op e)
      | Ok results -> (
        let id = match results with (id, _) :: _ -> id | [] -> Json.Null in
        let payloads = List.map snd results in
        let merged =
          if op = "stats" then Fleet.merge_stats ~uptime_ticks:uptime payloads
          else Fleet.merge_metrics ~uptime_ticks:uptime payloads
        in
        match merged with
        | Ok result -> Protocol.response_ok_json ~id ~op ~result
        | Error e ->
          mincr "router_backend_errors";
          Protocol.response_error ~id ~code:Protocol.Bad_request
            ~message:(Printf.sprintf "router: fleet %s merge failed: %s" op e)))
  in
  let emitter =
    Thread.create
      (fun () ->
        let running = ref true in
        while !running do
          Mutex.lock omutex;
          while Queue.is_empty order do
            Condition.wait ocond omutex
          done;
          let entry = Queue.pop order in
          let depth = Queue.length order in
          Mutex.unlock omutex;
          mgauge "router_reassembly_depth" (float_of_int depth);
          match entry with
          | Done -> running := false
          | Expect { backend = i; tc } ->
            Trace.with_span ~cat:"router"
              ~args:[ ("backend", Json.Int i) ]
              "router.reassemble"
            @@ fun () ->
            let line =
              match pop_line barr.(i) with
              | Some l -> (
                match tc with Some t -> Protocol.strip_tc ~tc:t l | None -> l)
              | None ->
                mincr "router_backend_errors";
                backend_error i
            in
            note_emitted i;
            emit_line line
          | Expect_fanout { op; uptime } ->
            Trace.with_span ~cat:"router"
              ~args:[ ("op", Json.String op) ]
              "router.reassemble"
            @@ fun () ->
            let line = merge_fanout ~op ~uptime in
            Array.iteri (fun i _ -> note_emitted i) barr;
            emit_line line
          | Expect_broadcast ->
            let line =
              match pop_line barr.(0) with
              | Some l -> l
              | None ->
                mincr "router_backend_errors";
                backend_error 0
            in
            (* the other backends' acks are intentionally left in their
               FIFOs: one request, one response line *)
            note_emitted 0;
            emit_line line
        done)
      ()
  in
  let send b line =
    try
      Server.write_all ~idle_timeout:config.idle_timeout b.fd (line ^ "\n");
      true
    with
    | Server.Write_stalled -> false
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      false
  in
  let bytes_counter = Array.init n (Printf.sprintf "router_routed_bytes_shard_%d") in
  let send_counted b line =
    (match metrics with
    | Some m ->
      let by = String.length line + 1 in
      Metrics.incr m ~by "router_routed_bytes";
      Metrics.incr m ~by bytes_counter.(b.index)
    | None -> ());
    note_sent b.index;
    ignore (send b line)
  in
  let shutting_down = ref false in
  (try
     while not !shutting_down do
       match In_channel.input_line input with
       | None -> shutting_down := true
       | Some line ->
         (* Blank lines produce no response from a backend (the engine
            skips them), so forwarding one would wedge the reassembly
            order — skip them here exactly as an unrouted server does. *)
         if String.trim line = "" then ()
         else begin
           incr lines_seen;
           mincr "router_requests";
           mgauge "router_lines_seen" (float_of_int !lines_seen);
           let seq = !lines_seen in
           Trace.with_span ~cat:"router"
             ~args:[ ("seq", Json.Int seq) ]
             "router.enqueue"
           @@ fun () ->
           match
             Trace.with_span ~cat:"router" "router.route" (fun () ->
                 route_line ring line)
           with
           | To { backend = i; stamp } ->
             let tc =
               if stamp then Some (Printf.sprintf "r%d.%d" trace_run seq)
               else None
             in
             send_counted barr.(i) (Protocol.with_tc tc line);
             push_order (Expect { backend = i; tc })
           | Fanout { op } ->
             mincr "router_fanouts";
             Array.iter (fun b -> send_counted b line) barr;
             push_order (Expect_fanout { op; uptime = !lines_seen })
           | Broadcast ->
             send_counted barr.(0) line;
             Array.iteri (fun i b -> if i > 0 then ignore (send b line)) barr;
             push_order Expect_broadcast;
             shutting_down := true
         end
     done
   with Sys_error _ -> ());
  (* Half-close every backend: the servers see EOF, flush their final
     partial batch, respond, and close — exactly the drain an ordinary
     client disconnect gets. *)
  Array.iter
    (fun b ->
      try Unix.shutdown b.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    barr;
  push_order Done;
  Thread.join emitter;
  Atomic.set stop true;
  Array.iter Thread.join readers;
  Array.iter
    (fun b -> try Unix.close b.fd with Unix.Unix_error _ -> ())
    barr

(* ------------------------------------------------------------------ *)
(* Out-of-band scraping (Prometheus exporter)                          *)

(* A fresh connection per scrape, sending a *quiet* metrics request: the
   backend answers without ticking its logical clock or moving any
   counter, so an exporter polling concurrently with a golden replay
   cannot perturb a single deterministic byte. *)
let scrape_metrics ?(timeout = 5.) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "scrape %s: %s" path (Unix.error_message err))
      | () -> (
        match
          Server.write_all ~idle_timeout:timeout fd
            "{\"op\":\"metrics\",\"quiet\":true}\n"
        with
        | exception Server.Write_stalled -> Error ("scrape " ^ path ^ ": stalled")
        | exception Unix.Unix_error (err, _, _) ->
          Error (Printf.sprintf "scrape %s: %s" path (Unix.error_message err))
        | () -> (
          let reader = Server.Line_reader.create fd in
          match
            Server.Line_reader.read ~stop:(Atomic.make false)
              ~idle_timeout:timeout ~max_line:(1 lsl 22) reader
          with
          | Server.Line_reader.Line l -> (
            match Json.parse l with
            | Error e -> Error (Printf.sprintf "scrape %s: %s" path e)
            | Ok r -> (
              match Json.member "result" r with
              | Some result -> Ok result
              | None -> Error ("scrape " ^ path ^ ": no result payload")))
          | Eof | Timeout | Oversized | Stopped ->
            Error ("scrape " ^ path ^ ": no response"))))

let fleet_prometheus_render ?prefix ~metrics ~sockets () =
  let shard_dumps =
    List.map
      (fun path ->
        match scrape_metrics path with
        | Ok dump -> dump
        | Error e ->
          Metrics.incr metrics "router_scrape_errors";
          Log.warn ~fields:[ ("error", Json.String e) ] "fleet scrape failed";
          (* an unscrapeable shard contributes no series this pass *)
          Json.Obj [])
      sockets
  in
  match Fleet.fleet_prometheus ?prefix ~router:(Metrics.to_json metrics) shard_dumps with
  | Ok text -> text
  | Error e -> Printf.sprintf "# fleet exposition failed: %s\n" e

(* ------------------------------------------------------------------ *)
(* Spawning a local shard fleet                                        *)

(* Fork one [serve --socket] child per shard. Used by the [route]
   subcommand when the caller wants the router to own its backends
   rather than connect to externally-managed ones. The child re-execs
   nothing: it runs [Server.serve_socket] directly on a fresh engine in
   the forked image, so flags (cache size, store) are plain OCaml
   values. *)
type child = { pid : int; socket : string }

let wait_for_socket ?(timeout = 10.) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_SOCK -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      if Unix.gettimeofday () >= deadline then false
      else begin
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
  in
  go ()

let spawn_shard ?batch ?trace ~make_engine ~socket ~server_config i =
  (* don't let the child inherit (and re-flush at exit) buffered output *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* child: serve until shutdown/SIGTERM, then exit — never return to
       the caller's code *)
    let status =
      try
        (* shard identity for merged stderr and (via the environment)
           any exec'd descendants *)
        Log.set_shard i;
        Unix.putenv "FUSECU_LOG_SHARD" (string_of_int i);
        (match trace with Some _ -> Trace.start () | None -> ());
        let engine : Engine.t = make_engine i in
        Server.serve_socket engine ?batch ~config:server_config ~path:socket ();
        (match Engine.store engine with
        | Some s -> Store.close s
        | None -> ());
        (match trace with
        | Some path ->
          Trace.export ~pid:(Unix.getpid ())
            ~process_name:(Printf.sprintf "shard-%d" i)
            path
        | None -> ());
        0
      with e ->
        prerr_endline ("route shard: " ^ Printexc.to_string e);
        1
    in
    Stdlib.exit status
  | pid -> { pid; socket }

let stop_children children =
  List.iter
    (fun c -> try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
    children;
  List.iter
    (fun c ->
      try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ())
    children
