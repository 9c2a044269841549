module Hash = Fusecu_util.Hash
module Json = Fusecu_util.Json
module Log = Fusecu_util.Log
module Trace = Fusecu_util.Trace

(* The sharding front end (DESIGN.md §9; router.mli has the contract).
   A call's response bytes depend only on the call, so routing by
   canonical cache key and reassembling in request order keeps the
   transcript byte-identical for every shard count, cold or warm.
   [stats]/[metrics] fan out to every backend and are merged
   ({!Fleet}), with the router's own request-line count as the fleet's
   [uptime_ticks] (summed backend ticks would count each fan-out N
   times); a 1-shard tier passes backend 0's control lines through
   verbatim. Each routable call is stamped with a trace context
   ["r<trace>.<seq>"], spliced textually ({!Protocol.with_tc}); the
   backends echo it and the router strips the exact echo, so tracing
   moves no byte. A client-supplied ["tc"] wins (first binding) and
   passes through untouched.

   Plumbing: one [select] loop on the calling thread. Each turn reads
   every readable backend's answers into that backend's FIFO, writes
   each writable backend's buffer of unsent requests, reads and routes
   the client's lines, then drains the reassembly FIFO of (request →
   backend) entries in request order into the client's output, which
   is written once at the end of the turn. Answers are read in every
   turn, so a pipelined client cannot make the router and a shard block
   on each other's writes; the client is not read while any backend
   holds [max_unsent] bytes, which bounds the unsent requests. Per
   backend, answers arrive in request order (the server's per-connection
   guarantee), which is all reassembly needs.

   Liveness: a backend's deadline runs only while it owes answers. A
   shard closes a connection that sits idle past its own timeout; the
   router sees the close (every open backend is in the read set) and
   reopens the connection for the next request routed there. A backend
   that closes, or misses its deadline, while it owes answers yields
   one error line per owed request. *)

type config = { idle_timeout : float; max_line : int }

let default_config = { idle_timeout = 30.; max_line = 1 lsl 20 }

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring                                                *)

(* Ring points are hashed from backend *indices*, not socket paths, so
   the ring — and therefore every key's placement — is a pure function
   of the shard count: stable across restarts and across machines. The
   vnode count is part of that function, so it is a constant: another
   value can move keys away from the shard whose store holds them. *)
let vnodes = 64

(* FNV-1a's last multiply barely reaches the top bits, so points whose
   names differ only in their last characters sort together and the
   ring degenerates into one arc per backend. SplitMix64's finalizer
   spreads every input bit over the whole word; both ring points and
   keys go through it. *)
let mix h =
  let open Int64 in
  let z = of_int h in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 1)

let point s = mix (Hash.fnv1a64_positive s)

type ring = (int * int) array  (* (point hash, backend), ascending *)

let build_ring n : ring =
  let points =
    Array.init (n * vnodes) (fun i ->
        let b = i / vnodes and v = i mod vnodes in
        (point (Printf.sprintf "backend-%d-vnode-%d" b v), b))
  in
  Array.sort
    (fun (h, b) (h', b') -> if h <> h' then Int.compare h h' else Int.compare b b')
    points;
  points

let ring_lookup (ring : ring) h =
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

let shard_of_key ~shards =
  let ring = build_ring shards in
  fun key -> ring_lookup ring (point key)

(* Where a raw request line goes, given where a key goes ([shard_of_key]).
   Calls route by canonical cache key — the same string that keys the
   plan cache and the store, so one key's repeats always land on the
   shard that cached it. Rejects route by the raw line (any backend
   computes identical reject bytes; hashing just spreads the load).
   [stats]/[metrics] fan out to every backend for the fleet merge;
   [shutdown] broadcasts so every backend stops. *)
type routing =
  | To of { backend : int; stamp : bool }  (** forward to one backend *)
  | Fanout of { op : string }  (** stats/metrics: ask everyone, merge *)
  | Broadcast  (** shutdown: every backend must stop *)

let route_line place line =
  match Protocol.parse_line line with
  | Ok (_, _, Protocol.Call c) ->
    let canonical, _ = Protocol.canonicalize c in
    To { backend = place (Protocol.cache_key canonical); stamp = true }
  | Ok (_, _, Protocol.Stats) -> Fanout { op = "stats" }
  | Ok (_, _, Protocol.Metrics_req _) -> Fanout { op = "metrics" }
  | Ok (_, _, Protocol.Shutdown) -> Broadcast
  | Error _ -> To { backend = place line; stamp = false }

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* The client is not read while any backend holds this many unsent
   bytes: one read chunk. *)
let max_unsent = 65536

type conn = {
  fd : Unix.file_descr;  (* non-blocking *)
  reader : Server.Line_reader.t;
  mutable half_closed : bool;  (* the end of input was passed on *)
}

type backend = {
  index : int;
  path : string;
  mutable conn : conn option;  (* [None]: closed; the next request reopens it *)
  unsent : Buffer.t;  (* requests not yet written *)
  answers : string option Queue.t;
      (* answers not yet emitted, in request order; [None] for a request
         the backend closed without answering *)
  mutable owed : int;  (* requests queued or sent and not yet answered *)
  mutable deadline : float;  (* while [owed > 0]: when the next answer is due *)
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.set_nonblock fd;
    { fd; reader = Server.Line_reader.create fd; half_closed = false }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "route: cannot connect to backend %s: %s" path
         (Unix.error_message err))

(* Close a backend's connection: its unsent requests are dropped, and
   each request it still owes an answer is lost. *)
let close_backend b =
  Option.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) b.conn;
  b.conn <- None;
  Buffer.clear b.unsent;
  for _ = 1 to b.owed do
    Queue.add None b.answers
  done;
  b.owed <- 0

type entry =
  | Expect of { backend : int; tc : string option }
      (** emit the next answer of this backend, stripping the echoed
          trace context *)
  | Expect_fanout of { op : string; uptime : int }
      (** stats/metrics fan-out: take one answer from {e every} backend
          (in shard order) and emit the {!Fleet} merge; [uptime] is the
          router's line count at the moment the request was read *)

let backend_error b =
  Protocol.response_error ~id:Json.Null ~code:Protocol.Bad_request
    ~message:(Printf.sprintf "router: backend %d closed before responding" b)

let run ?(config = default_config) ?metrics ~backends ~input ~output () =
  if backends = [] then invalid_arg "Router.run: no backends";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let barr =
    Array.of_list
      (List.mapi
         (fun index path ->
           { index; path; conn = Some (connect path); unsent = Buffer.create 4096;
             answers = Queue.create (); owed = 0; deadline = infinity })
         backends)
  in
  let n = Array.length barr in
  let place = shard_of_key ~shards:n in
  let patience =
    if config.idle_timeout > 0. then config.idle_timeout else infinity
  in
  let now = ref (Unix.gettimeofday ()) in
  (* Instrumentation: all optional, all off the response path, so routed
     bytes are invariant to whether a registry is attached. A backend's
     in-flight count is its requests queued minus answers emitted: what
     it owes plus the answers waiting for reassembly. *)
  let mincr ?by name =
    match metrics with Some m -> Metrics.incr ?by m name | None -> ()
  in
  let mgauge name v =
    match metrics with Some m -> Metrics.set_gauge m name v | None -> ()
  in
  let inflight_gauge = Array.init n (Printf.sprintf "router_inflight_shard_%d") in
  let bytes_counter = Array.init n (Printf.sprintf "router_routed_bytes_shard_%d") in
  let note_inflight b =
    mgauge inflight_gauge.(b.index)
      (float_of_int (b.owed + Queue.length b.answers))
  in
  (* Queue [line] for [b], reopening a closed connection. An [awaited]
     request is counted and owes an answer — a lost one at once when the
     connection cannot be reopened. *)
  let send ~awaited b line =
    if Option.is_none b.conn then
      (try b.conn <- Some (connect b.path) with Failure _ -> ());
    (match b.conn with
    | None -> if awaited then Queue.add None b.answers
    | Some _ ->
      Buffer.add_string b.unsent line;
      Buffer.add_char b.unsent '\n';
      if awaited then begin
        if b.owed = 0 then b.deadline <- !now +. patience;
        b.owed <- b.owed + 1
      end);
    if awaited then begin
      let by = String.length line + 1 in
      mincr ~by "router_routed_bytes";
      mincr ~by bytes_counter.(b.index);
      note_inflight b
    end
  in
  let order = Queue.create () in
  let push e =
    Queue.add e order;
    mgauge "router_reassembly_depth" (float_of_int (Queue.length order))
  in
  (* One trace id per router run; each routed call gets "r<id>.<seq>". *)
  let trace_run = Trace.new_trace_id () in
  let lines_seen = ref 0 in
  let input_done = ref false in
  let route_request line =
    (* Blank lines produce no response from a backend (the engine skips
       them), so forwarding one would wedge the reassembly order — skip
       them here exactly as an unrouted server does. *)
    if String.trim line <> "" then begin
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
            route_line place line)
      with
      | To { backend = i; stamp } ->
        let tc =
          if stamp then Some (Printf.sprintf "r%d.%d" trace_run seq) else None
        in
        send ~awaited:true barr.(i) (Protocol.with_tc tc line);
        push (Expect { backend = i; tc })
      | Fanout { op } ->
        mincr "router_fanouts";
        Array.iter (fun b -> send ~awaited:true b line) barr;
        push (Expect_fanout { op; uptime = seq })
      | Broadcast ->
        (* every backend must stop; the client sees backend 0's ack *)
        Array.iter (fun b -> send ~awaited:(b.index = 0) b line) barr;
        push (Expect { backend = 0; tc = None });
        input_done := true
    end
  in
  let take b =
    let a = Queue.pop b.answers in
    note_inflight b;
    a
  in
  let answer i ~tc =
    match take barr.(i) with
    | Some l -> (match tc with Some t -> Protocol.strip_tc ~tc:t l | None -> l)
    | None ->
      mincr "router_backend_errors";
      backend_error i
  in
  let merge_fanout ~op ~uptime =
    let failed id e =
      mincr "router_backend_errors";
      Protocol.response_error ~id ~code:Protocol.Bad_request
        ~message:(Printf.sprintf "router: fleet %s merge failed: %s" op e)
    in
    match Array.to_list (Array.map take barr) with
    | [ only ] ->
      (* 1-shard fleet: the single backend's control response verbatim,
         byte-identical to an unrouted server *)
      (match only with Some l -> l | None -> backend_error 0)
    | answers -> (
      let result i = function
        | None -> Error (Printf.sprintf "backend %d closed" i)
        | Some l -> (
          match Json.parse l with
          | Error e -> Error (Printf.sprintf "backend %d: %s" i e)
          | Ok r -> (
            match (Json.member "id" r, Json.member "result" r) with
            | Some id, Some result -> Ok (id, result)
            | _ -> Error (Printf.sprintf "backend %d: not an ok response" i)))
      in
      let results = List.mapi result answers in
      match List.find_map (function Error e -> Some e | Ok _ -> None) results with
      | Some e -> failed Json.Null e
      | None -> (
        let results = List.filter_map Result.to_option results in
        let id = match results with (id, _) :: _ -> id | [] -> Json.Null in
        let merge = if op = "stats" then Fleet.merge_stats else Fleet.merge_metrics in
        match merge ~uptime_ticks:uptime (List.map snd results) with
        | Ok result -> Protocol.response_ok_json ~id ~op ~result
        | Error e -> failed id e))
  in
  (* Reassembly: emit the head of [order] while its answers are in. *)
  let out = Buffer.create 4096 in
  let emit line =
    Buffer.add_string out line;
    Buffer.add_char out '\n'
  in
  let ready = function
    | Expect { backend; _ } -> not (Queue.is_empty barr.(backend).answers)
    | Expect_fanout _ -> Array.for_all (fun b -> not (Queue.is_empty b.answers)) barr
  in
  let rec reassemble () =
    match Queue.peek_opt order with
    | Some e when ready e ->
      ignore (Queue.pop order);
      mgauge "router_reassembly_depth" (float_of_int (Queue.length order));
      (match e with
      | Expect { backend = i; tc } ->
        Trace.with_span ~cat:"router"
          ~args:[ ("backend", Json.Int i) ]
          "router.reassemble"
          (fun () -> emit (answer i ~tc))
      | Expect_fanout { op; uptime } ->
        Trace.with_span ~cat:"router"
          ~args:[ ("op", Json.String op) ]
          "router.reassemble"
          (fun () -> emit (merge_fanout ~op ~uptime)));
      reassemble ()
    | _ -> ()
  in
  (* Readiness handlers: the client's lines, a backend's answers (a line
     no request awaits is dropped), a backend's unsent requests. *)
  let client = Server.Line_reader.create input in
  let rec read_client readable =
    if not !input_done then
      match Server.Line_reader.step ~max_line:max_int ~readable client with
      | Some (Server.Line_reader.Line l) ->
        route_request l;
        read_client false
      | Some _ -> input_done := true
      | None -> ()
  in
  let rec read_answers b c readable =
    match Server.Line_reader.step ~max_line:config.max_line ~readable c.reader with
    | Some (Server.Line_reader.Line l) ->
      if b.owed > 0 then begin
        Queue.add (Some l) b.answers;
        b.owed <- b.owed - 1;
        b.deadline <- !now +. patience
      end;
      read_answers b c false
    | Some _ -> close_backend b
    | None -> ()
  in
  let write_unsent b c =
    let s = Buffer.contents b.unsent in
    match Unix.single_write_substring c.fd s 0 (String.length s) with
    | k ->
      Buffer.clear b.unsent;
      Buffer.add_substring b.unsent s k (String.length s - k)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> close_backend b
  in
  let turn () =
    let fds keep =
      List.filter_map
        (fun b -> match b.conn with Some c when keep b -> Some c.fd | _ -> None)
        (Array.to_list barr)
    in
    let reads = fds (fun _ -> true) in
    let reads =
      if !input_done
         || Array.exists (fun b -> Buffer.length b.unsent >= max_unsent) barr
      then reads
      else input :: reads
    in
    let writes = fds (fun b -> Buffer.length b.unsent > 0) in
    let due =
      Array.fold_left
        (fun d b -> if b.owed > 0 then Float.min d b.deadline else d)
        infinity barr
    in
    let wait = if due = infinity then -1. else Float.max 0. (due -. !now) in
    let readable, writable, _ =
      try Unix.select reads writes [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    now := Unix.gettimeofday ();
    Array.iter
      (fun b ->
        let on ready f = Option.iter (fun c -> if List.memq c.fd ready then f b c) b.conn in
        on readable (fun b c -> read_answers b c true);
        on writable write_unsent)
      barr;
    if List.memq input readable then read_client true;
    Array.iter
      (fun b -> if b.owed > 0 && !now >= b.deadline then close_backend b)
      barr;
    if !input_done then
      (* Half-close each backend once its requests are out, to tell the
         shard that no more requests are coming: it has answered every
         line as it arrived, and now closes its end. *)
      Array.iter
        (fun b ->
          match b.conn with
          | Some c when (not c.half_closed) && Buffer.length b.unsent = 0 ->
            (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            c.half_closed <- true
          | _ -> ())
        barr;
    reassemble ();
    if Buffer.length out > 0 then begin
      Server.write_all ~idle_timeout:0. output (Buffer.contents out);
      Buffer.clear out
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iter close_backend barr)
    (fun () ->
      while not (!input_done && Queue.is_empty order) do
        turn ()
      done)

(* ------------------------------------------------------------------ *)
(* Out-of-band scraping (Prometheus exporter)                          *)

(* A fresh connection per scrape, sending a *quiet* metrics request: the
   backend answers without ticking its logical clock or moving any
   counter, so an exporter polling concurrently with a golden replay
   cannot perturb a single deterministic byte. *)
let scrape_metrics ?(timeout = 5.) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fail e = Error (Printf.sprintf "scrape %s: %s" path e) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Unix.connect fd (Unix.ADDR_UNIX path);
        Server.write_all ~idle_timeout:timeout fd
          "{\"op\":\"metrics\",\"quiet\":true}\n";
        Server.Line_reader.read ~idle_timeout:timeout ~max_line:(1 lsl 22)
          (Server.Line_reader.create fd)
      with
      | exception Server.Write_stalled -> fail "stalled"
      | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)
      | Server.Line_reader.Line l -> (
        match Result.map (Json.member "result") (Json.parse l) with
        | Ok (Some result) -> Ok result
        | Ok None -> fail "no result payload"
        | Error e -> fail e)
      | Eof | Timeout | Oversized | Stopped -> fail "no response")

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
      Unix.gettimeofday () < deadline && (Unix.sleepf 0.05; go ())
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
        Option.iter Store.close (Engine.store engine);
        Option.iter
          (Trace.export ~pid:(Unix.getpid ())
             ~process_name:(Printf.sprintf "shard-%d" i))
          trace;
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
