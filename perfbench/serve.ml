(* The real planning daemon as a child process, and the clients that
   drive it.

   Servers are started with [Unix.create_process_env] (posix_spawn,
   never fork, so the benchmark may already run worker domains) with
   FUSECU_DOMAINS set to the host's core count, and talk NDJSON over a
   Unix socket whose path is relative to the working directory (the
   108-byte sockaddr limit cannot bite however deep the checkout is). *)

let now = Calib.now

let domains () = Fusecu_util.Pool.default_size ()

let child_env () =
  let keep =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"FUSECU_DOMAINS=" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (Printf.sprintf "FUSECU_DOMAINS=%d" (domains ()) :: keep)

(* Every child still running; reaped by [cleanup] when the benchmark
   stops for any reason. *)
let live : int list ref = ref []

let spawn exe args ~stdin ~stdout =
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) stdin stdout
      Unix.stderr
  in
  live := pid :: !live;
  pid

(* Wait for [pid] to exit, killing it if it outlives [grace] seconds. *)
let reap ?(grace = 20.) pid =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

(* Live routers, by request pipe and pid: closing the pipe is how a
   router is told to stop its own shards and exit (a signal would
   orphan them). *)
let routers : (Unix.file_descr * int) list ref = ref []

(* Stop every child still running: routers by closing their input,
   servers with SIGTERM (they drain and unlink their socket), anything
   left after a grace period with SIGKILL. *)
let cleanup () =
  List.iter
    (fun (fd, pid) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      reap ~grace:5. pid)
    !routers;
  routers := [];
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap ~grace:5. pid)
    !live

(* ------------------------------------------------------------------ *)
(* Line I/O                                                            *)

(* Requests go out on [out], replies come back on [ic]: one socket for
   [serve], two pipes for [route]. *)
type conn = { out : Unix.file_descr; ic : in_channel }

(* A client read that waits longer than this counts as no reply, so a
   wedged server fails the run instead of hanging it. *)
let reply_timeout = 60.

let socket_conn fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout
   with Unix.Unix_error _ -> ());
  { out = fd; ic = Unix.in_channel_of_descr fd }

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let send fd s = write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let recv c = try Some (input_line c.ic) with End_of_file | Sys_error _ -> None

let close c =
  let input = Unix.descr_of_in_channel c.ic in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (if input = c.out then [ c.out ] else [ c.out; input ])

(* ------------------------------------------------------------------ *)
(* Server lifetimes                                                    *)

type server = { pid : int; socket : string; setup_s : float }

let connect_retry ~pid socket =
  let deadline = now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> socket_conn fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "server exited before listening");
      if now () > deadline then failwith "server never listened";
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Spawn [fusecu_opt serve --socket] and time it up to the reply to
   [warmup]: the set-up a client pays before its first real request. *)
let start ~exe ~socket ~args ~warmup =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = now () in
  let pid = spawn exe ([ "serve"; "--socket"; socket ] @ args) ~stdin:Unix.stdin ~stdout:Unix.stderr in
  let c = connect_retry ~pid socket in
  send c.out (warmup ^ "\n");
  (* end of input flushes the server's batch at any --batch size *)
  Unix.shutdown c.out Unix.SHUTDOWN_SEND;
  let reply = recv c in
  let setup_s = now () -. t0 in
  close c;
  match reply with
  | Some _ -> { pid; socket; setup_s }
  | None -> failwith "server gave no warm-up reply"

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

let stop s =
  (match connect_retry ~pid:s.pid s.socket with
  | c ->
    send c.out "{\"op\":\"shutdown\"}\n";
    ignore (recv c);
    close c
  | exception Failure _ -> ());
  reap s.pid

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

(* Send-one-wait-one on one connection: what a compiler calling the
   planner sees. Returns each reply (None when it never came) and each
   round trip in seconds; [between] runs untimed before each request. *)
let closed_loop ?(between = ignore) c requests =
  let n = Array.length requests in
  let replies = Array.make n None and rtt = Array.make n 0. in
  let alive = ref true in
  Array.iteri
    (fun i r ->
      if !alive then begin
        between ();
        let t0 = now () in
        match send c.out (r ^ "\n") with
        | () ->
          let reply = recv c in
          rtt.(i) <- now () -. t0;
          replies.(i) <- reply;
          if reply = None then alive := false
        | exception Unix.Unix_error _ -> alive := false
      end)
    requests;
  (replies, rtt)

(* Pipelined: a writer thread streams every request while this thread
   reads the replies. Returns the replies and the seconds from the
   first byte sent to the last reply read. *)
let stream c requests =
  let n = Array.length requests in
  let replies = Array.make n None in
  let t0 = now () in
  let writer =
    Thread.create
      (fun () ->
        let b = Buffer.create (1 lsl 16) in
        let flush () =
          send c.out (Buffer.contents b);
          Buffer.clear b
        in
        (try
           Array.iter
             (fun r ->
               Buffer.add_string b r;
               Buffer.add_char b '\n';
               if Buffer.length b >= 1 lsl 16 then flush ())
             requests;
           flush ();
           Unix.shutdown c.out Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ()))
      ()
  in
  let rec read i =
    if i < n then
      match recv c with
      | Some l ->
        replies.(i) <- Some l;
        read (i + 1)
      | None -> ()
  in
  read 0;
  let elapsed = now () -. t0 in
  Thread.join writer;
  (replies, elapsed)

let connect s = connect_retry ~pid:s.pid s.socket

(* Stream untimed [lines] to [s] on a connection of their own. *)
let fill s lines =
  if lines <> [||] then begin
    let c = connect s in
    let replies, _ = stream c lines in
    close c;
    if Array.exists Option.is_none replies then failwith "server dropped a cache-fill request"
  end

(* [fusecu_opt route] over pipes: its stdin is the request stream, its
   stdout the replies. *)
type router = { rpid : int; rconn : conn }

let start_router ~exe ~args =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let rpid = spawn exe ("route" :: args) ~stdin:req_r ~stdout:resp_w in
  Unix.close req_r;
  Unix.close resp_w;
  routers := (req_w, rpid) :: !routers;
  { rpid; rconn = { out = req_w; ic = Unix.in_channel_of_descr resp_r } }

(* End of input stops the router, which stops its shards. *)
let stop_router r =
  routers := List.filter (fun (_, pid) -> pid <> r.rpid) !routers;
  Unix.close r.rconn.out;
  while recv r.rconn <> None do
    ()
  done;
  close_in_noerr r.rconn.ic;
  reap r.rpid
