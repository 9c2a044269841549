(* Transport layer for the planning daemon.

   Stdin mode and socket mode run one connection loop
   ([serve_connection]): a select-based bounded line reader hands the
   lines that have arrived to [Engine.answer], and response lines
   collect in one output buffer that is written once per batch. Socket
   mode adds a concurrent accept loop: every connection gets its own
   systhread, with a connection cap (backpressure: the accept loop
   stops accepting while the cap is reached), per-connection idle/read
   timeouts, an input line-length bound, and graceful shutdown (SIGINT
   / SIGTERM / in-band [shutdown]) that stops accepting, answers the
   lines already received, closes the listener and unlinks the socket
   path.

   Sharing one [Engine] across connection threads is safe: the cache and
   metrics registry are mutex-guarded, and concurrent [Pool] regions
   degrade to inline sequential execution. Per-client response bytes
   stay deterministic because canonicalization runs on every request
   whether or not its result is served from the cache — a hit returns
   bit-for-bit what a fresh computation would (DESIGN.md §5). *)

type socket_config = {
  max_conns : int;
  idle_timeout : float;
  max_line : int;
}

let default_socket_config =
  { max_conns = 16; idle_timeout = 30.; max_line = 1 lsl 20 }

(* How often blocking loops re-check the stop flag, in seconds. Bounds
   both shutdown latency and idle-timeout precision. *)
let poll_slice = 0.05

(* ------------------------------------------------------------------ *)
(* Select-based bounded line reader                                    *)

type read_result =
  | Line of string
  | Eof
  | Timeout  (** no complete line within the idle timeout *)
  | Oversized  (** line exceeded [max_line] before its newline *)
  | Stopped  (** server shutdown requested *)

(* The most one [read] asks for; also the reader's initial buffer. *)
let read_chunk = 65536

(* Received bytes not yet returned as lines are [buf.[start, stop)];
   [buf.[start, scanned)] holds no newline. Reads append at [stop]. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
  mutable at_eof : bool;
}

let reader_of_fd fd =
  { fd; buf = Bytes.create read_chunk; start = 0; stop = 0; scanned = 0;
    at_eof = false }

let reset r =
  r.start <- 0;
  r.stop <- 0;
  r.scanned <- 0

(* Take the first '\n'-terminated line out of [r], scanning only bytes
   not scanned before. *)
let take_line r =
  let buf = r.buf and stop = r.stop in
  let rec find i =
    if i >= stop then None
    else if Bytes.unsafe_get buf i = '\n' then Some i
    else find (i + 1)
  in
  match find r.scanned with
  | None ->
    r.scanned <- stop;
    None
  | Some i ->
    let line = Bytes.sub_string buf r.start (i - r.start) in
    (* an emptied buffer starts over at its front, so the next read
       gets the whole buffer and a closed loop never splits a request *)
    if i + 1 = stop then reset r
    else begin
      r.start <- i + 1;
      r.scanned <- i + 1
    end;
    Some line

(* One [read] into the free tail of [r.buf]. The unread bytes slide to
   the front only when the buffer is full, and it grows only when they
   fill it — one pending line, since [take_line] found no newline — so
   the caller's [max_line] check bounds a partial line at [max_line]
   plus one read. *)
let fill r =
  if r.stop = Bytes.length r.buf then begin
    let pending = r.stop - r.start in
    if r.start = 0 then begin
      let grown = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf 0 grown 0 pending;
      r.buf <- grown
    end
    else Bytes.blit r.buf r.start r.buf 0 pending;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.stop <- pending
  end;
  match
    Unix.read r.fd r.buf r.stop (min read_chunk (Bytes.length r.buf - r.stop))
  with
  | 0 -> r.at_eof <- true
  | n -> r.stop <- r.stop + n
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
    ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    r.at_eof <- true

let rec readable fd wait =
  match Unix.select [ fd ] [] [] wait with
  | [], _, _ -> false
  | _ :: _, _, _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable fd wait

(* The next buffered line, or the end or oversize that ends the input;
   [None] while more input is needed. A partial line followed by EOF is
   returned as a line (matching [In_channel.input_line]). *)
let buffered ~max_line r =
  match take_line r with
  | Some line ->
    Some (if String.length line > max_line then Oversized else Line line)
  | None ->
    let pending = r.stop - r.start in
    if pending > max_line then Some Oversized
    else if not r.at_eof then None
    else if pending = 0 then Some Eof
    else begin
      let line = Bytes.sub_string r.buf r.start pending in
      reset r;
      Some (Line line)
    end

(* [buffered], with one read first when nothing is buffered and the
   caller knows [r.fd] is readable. *)
let step ~max_line ~readable r =
  match buffered ~max_line r with
  | None when readable ->
    fill r;
    buffered ~max_line r
  | res -> res

(* One line, or the reason there is none. The idle deadline covers the
   whole wait for one complete line, so a client trickling bytes
   forever (slow loris) still times out. Once [stop] is set the reader
   still serves the lines the client delivered before it, reading only
   what is already readable ("drain in-flight"). *)
let read_line ~stop ~idle_timeout ~max_line r =
  let deadline =
    if idle_timeout > 0. then Unix.gettimeofday () +. idle_timeout
    else infinity
  in
  let rec go ready =
    match step ~max_line ~readable:ready r with
    | Some res -> res
    | None ->
      if Atomic.get stop then if readable r.fd 0. then go true else Stopped
      else
        let now = Unix.gettimeofday () in
        if now >= deadline then Timeout
        else go (readable r.fd (Float.min poll_slice (deadline -. now)))
  in
  go false

(* Write [b.[0, len)] with a liveness bound: a peer that stops reading
   cannot wedge the connection thread past [idle_timeout]. On a
   non-blocking descriptor (a server connection) each [write] takes only
   what the socket buffer holds, so a batch larger than the buffer waits
   for the peer in [select] slices, under the deadline, not in [write]. *)
exception Write_stalled

let write_prefix ~idle_timeout fd b len =
  let deadline =
    if idle_timeout > 0. then Unix.gettimeofday () +. idle_timeout
    else infinity
  in
  let rec go off =
    if off < len then begin
      let now = Unix.gettimeofday () in
      if now >= deadline then raise Write_stalled;
      match Unix.select [] [ fd ] [] (Float.min poll_slice (deadline -. now)) with
      | _, [], _ -> go off
      | _, _ :: _, _ -> (
        match Unix.write fd b off (len - off) with
        | n -> go (off + n)
        | exception
            Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          go off)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

(* [Unix.write] only reads its buffer, so the string is not copied. *)
let write_all ~idle_timeout fd s =
  write_prefix ~idle_timeout fd (Bytes.unsafe_of_string s) (String.length s)

(* Re-export the transport primitives for other line-protocol front
   ends (the {!Router}): same reads, line bounds and stalled-write
   protection as server connections. *)
module Line_reader = struct
  type t = reader

  type result = read_result =
    | Line of string
    | Eof
    | Timeout
    | Oversized
    | Stopped

  let create = reader_of_fd
  let step = step
  let read ?(stop = Atomic.make false) = read_line ~stop
end

(* ------------------------------------------------------------------ *)
(* The connection loop                                                 *)

(* Serve requests read from [input] until end of input, writing the
   responses to [output]. The loop waits for one complete line, takes
   at most [batch - 1] more of the complete lines the reader already
   holds, with no further read, and hands them to the engine as one
   batch, so no request waits for input that has not arrived. Response
   lines collect in [out.[0, used)], one buffer for the life of the
   connection, grown when a batch outgrows it; it is written once per
   batch, before the next read, so a closed loop makes one read and one
   write per request. The store's records are written right after the
   replies, so no reply waits for the store and a batch's records are
   in the file before the connection reads again. The reader turns
   timeout / oversize / shutdown into end of input (reported to
   [on_close]) after the lines received before it. *)
let serve_connection engine ?(batch = 64) ~stop ~idle_timeout ~max_line
    ?(on_close = ignore) input output =
  let reader = reader_of_fd input in
  let store = Engine.store engine in
  let out = ref (Bytes.create 4096) and used = ref 0 in
  let emit line =
    let len = String.length line in
    let n = !used + len + 1 in
    if n > Bytes.length !out then begin
      let grown = Bytes.create (max n (2 * Bytes.length !out)) in
      Bytes.blit !out 0 grown 0 !used;
      out := grown
    end;
    Bytes.blit_string line 0 !out !used len;
    Bytes.set !out (n - 1) '\n';
    used := n
  in
  let flush () =
    if !used > 0 then begin
      let len = !used in
      used := 0;
      write_prefix ~idle_timeout output !out len;
      Option.iter Store.flush store
    end
  in
  (* up to [n] more buffered lines, and the end of input if it is
     buffered right after them *)
  let rec take n lines =
    match if n > 0 then buffered ~max_line reader else None with
    | Some (Line l) -> take (n - 1) (l :: lines)
    | ended -> (List.rev lines, ended)
  in
  let rec serve = function
    | Line l -> (
      let lines, ended = take (max 1 batch - 1) [ l ] in
      let outcome = Engine.answer engine ~emit lines in
      flush ();
      match (outcome, ended) with
      | Engine.Shutdown, _ -> Engine.Shutdown
      | Engine.Drained, Some ended -> serve ended
      | Engine.Drained, None -> serve (read_line ~stop ~idle_timeout ~max_line reader))
    | ended ->
      on_close ended;
      if ended = Oversized then
        (* tell the client why it is being dropped (best effort — it
           may already be gone) *)
        emit
          (Protocol.response_error ~id:Fusecu_util.Json.Null
             ~code:Protocol.Bad_request
             ~message:
               (Printf.sprintf
                  "input line exceeds max-line (%d bytes); closing connection"
                  max_line));
      flush ();
      Engine.Drained
  in
  serve (read_line ~stop ~idle_timeout ~max_line reader)

let serve_fds engine ?batch input output =
  ignore
    (serve_connection engine ?batch ~stop:(Atomic.make false) ~idle_timeout:0.
       ~max_line:max_int input output)

(* ------------------------------------------------------------------ *)
(* Socket mode                                                         *)

type conn = { finished : bool ref; thread : Thread.t }

type server = {
  engine : Engine.t;
  config : socket_config;
  stop : bool Atomic.t;
  lock : Mutex.t;  (** guards [active] and [conns] *)
  mutable active : int;
  mutable conns : conn list;
}

let request_stop srv = Atomic.set srv.stop true

let handle_connection srv ?batch client =
  let { idle_timeout; max_line; _ } = srv.config in
  let m = Engine.metrics srv.engine in
  let on_close = function
    | Timeout -> Metrics.incr m "conn_idle_timeouts"
    | Oversized -> Metrics.incr m "conn_oversized_lines"
    | Line _ | Eof | Stopped -> ()
  in
  (try
     (* so a write waits for a slow reader under the stall deadline *)
     Unix.set_nonblock client;
     match
       serve_connection srv.engine ?batch ~stop:srv.stop ~idle_timeout
         ~max_line ~on_close client client
     with
     | Engine.Shutdown -> request_stop srv
     | Engine.Drained -> ()
   with
  | Sys_error _ | End_of_file | Write_stalled ->
    Metrics.incr m "conn_client_drops"
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    (* client went away mid-batch *)
    Metrics.incr m "conn_client_drops");
  (try Unix.shutdown client Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close client with Unix.Unix_error _ -> ());
  Metrics.incr m "conns_closed"

(* Join connection threads that have finished (their [finished] flag is
   set in the thread's own cleanup, so join returns promptly), keeping
   the tracked list proportional to live connections. *)
let reap srv =
  let done_ =
    Mutex.protect srv.lock (fun () ->
        let d, live = List.partition (fun c -> !(c.finished)) srv.conns in
        srv.conns <- live;
        d)
  in
  List.iter (fun c -> Thread.join c.thread) done_

let serve_socket engine ?batch ?(config = default_socket_config) ~path () =
  if config.max_conns < 1 then invalid_arg "serve_socket: max_conns < 1";
  if config.max_line < 1 then invalid_arg "serve_socket: max_line < 1";
  (* A client that disconnects before reading its responses must not
     kill the daemon: turn SIGPIPE into EPIPE (caught above). *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ ->
    failwith
      (Printf.sprintf
         "serve: %s exists and is not a socket; remove it or pick another \
          --socket path"
         path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let srv =
    { engine;
      config;
      stop = Atomic.make false;
      lock = Mutex.create ();
      active = 0;
      conns = [] }
  in
  (* SIGINT / SIGTERM initiate the same graceful drain as an in-band
     shutdown request. The handlers only flip the atomic — every
     blocking loop re-checks it within [poll_slice]. Previous
     dispositions are restored on exit so embedders (tests) keep their
     own handling. *)
  let install signal =
    try
      Some (signal, Sys.signal signal (Sys.Signal_handle (fun _ -> request_stop srv)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let saved = List.filter_map install [ Sys.sigint; Sys.sigterm ] in
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let metrics = Engine.metrics engine in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (* Drain: connection threads see the stop flag at their next read
         boundary, answer the lines already readable, and exit. *)
      let conns = Mutex.protect srv.lock (fun () -> srv.conns) in
      List.iter (fun c -> Thread.join c.thread) conns;
      List.iter (fun (s, behavior) -> Sys.set_signal s behavior) saved)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock (max 16 config.max_conns);
      Unix.set_nonblock sock;
      while not (Atomic.get srv.stop) do
        reap srv;
        (* Backpressure: while [max_conns] connections are active, wait
           for a slot instead of accepting more. *)
        let have_slot =
          Mutex.protect srv.lock (fun () -> srv.active < config.max_conns)
        in
        if not have_slot then
          ignore
            (try Unix.select [] [] [] poll_slice
             with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
        else
          match Unix.select [ sock ] [] [] poll_slice with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
            match Unix.accept ~cloexec:true sock with
            | exception
                Unix.Unix_error
                  ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                    | Unix.ECONNABORTED),
                    _,
                    _ )
              -> ()
            | client, _ ->
              Metrics.incr metrics "conns_accepted";
              Mutex.protect srv.lock (fun () -> srv.active <- srv.active + 1);
              let finished = ref false in
              let thread =
                Thread.create
                  (fun () ->
                    Fun.protect
                      ~finally:(fun () ->
                        Mutex.protect srv.lock (fun () ->
                            srv.active <- srv.active - 1;
                            finished := true))
                      (fun () -> handle_connection srv ?batch client))
                  ()
              in
              Mutex.protect srv.lock (fun () ->
                  srv.conns <- { finished; thread } :: srv.conns))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

(* ------------------------------------------------------------------ *)
(* Metrics exporter                                                    *)

(* An HTTP-less TCP text endpoint: each accepted connection immediately
   receives [render ()] (Prometheus text exposition) and is closed —
   [nc host port] is a complete client. Runs on its own systhread so it
   never touches the engine's request path; [render] only reads the
   mutex-guarded metrics registry. *)
type exporter = {
  esock : Unix.file_descr;
  eport : int;
  estop : bool Atomic.t;
  mutable ethread : Thread.t option;
}

let parse_metrics_addr addr =
  let host, port_s =
    match String.rindex_opt addr ':' with
    | Some i ->
      (String.sub addr 0 i, String.sub addr (i + 1) (String.length addr - i - 1))
    | None -> ("127.0.0.1", addr)
  in
  let host = if host = "" then "127.0.0.1" else host in
  match int_of_string_opt (String.trim port_s) with
  | Some p when p >= 0 && p <= 65535 -> (host, p)
  | _ ->
    invalid_arg
      (Printf.sprintf "metrics-addr %S: expected PORT or HOST:PORT" addr)

let exporter_loop ex ~render () =
  while not (Atomic.get ex.estop) do
    match Unix.select [ ex.esock ] [] [] poll_slice with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true ex.esock with
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
              | Unix.ECONNABORTED | Unix.EBADF ),
              _,
              _ )
        -> ()
      | client, _ ->
        (try write_all ~idle_timeout:5. client (render ())
         with
        | Write_stalled | Sys_error _ -> ()
        | Unix.Unix_error _ -> ());
        (try Unix.shutdown client Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ()))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set ex.estop true
  done

let start_metrics_exporter ~render ~addr =
  let host, port = parse_metrics_addr addr in
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        invalid_arg (Printf.sprintf "metrics-addr: unknown host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))
  in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (inet, port));
     Unix.listen sock 8;
     Unix.set_nonblock sock
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let ex =
    { esock = sock; eport = bound_port; estop = Atomic.make false;
      ethread = None }
  in
  ex.ethread <- Some (Thread.create (exporter_loop ex ~render) ());
  ex

let exporter_port ex = ex.eport

let stop_metrics_exporter ex =
  if not (Atomic.exchange ex.estop true) then begin
    Option.iter Thread.join ex.ethread;
    ex.ethread <- None;
    try Unix.close ex.esock with Unix.Unix_error _ -> ()
  end
