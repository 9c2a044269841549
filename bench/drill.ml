(* Plumbing shared by the service drills (store, obs and determinism):
   the checked-in fixture and golden, transcript comparison, Unix-socket
   clients, in-process servers, forked shard fleets, and a routed replay
   through [Router.run]. *)

open Fusecu_util
open Fusecu_service

let read_lines path = In_channel.with_open_text path In_channel.input_lines

(* `dune exec bench/main.exe` runs from the project root, but the alias
   rules run from bench/ — accept either. *)
let resolve p = if Sys.file_exists p then p else Filename.concat ".." p

let fixture () = read_lines (resolve "test/fixtures/service_requests.ndjson")

let golden () = read_lines (resolve "test/fixtures/service_responses.golden")

(* Control lines carry per-process counters (or, for [metrics], wall
   time), so comparisons across processes or configurations skip them.
   A request line and its answer both name the op. *)
let is_control line =
  match Json.parse line with
  | Ok r -> (
    match Json.member "op" r with
    | Some (Json.String ("stats" | "metrics" | "shutdown")) -> true
    | _ -> false)
  | Error _ -> false

let non_control = List.filter (fun l -> not (is_control l))

let check ~drill what expected actual =
  if expected <> actual then begin
    List.iteri
      (fun i (e, a) ->
        if e <> a then
          Printf.eprintf "%s drill: %s line %d:\n  expected %s\n  got      %s\n" drill
            what i e a)
      (try List.combine expected actual with Invalid_argument _ -> []);
    failwith
      (Printf.sprintf "%s drill: %s diverged (%d vs %d lines)" drill what
         (List.length expected) (List.length actual))
  end

(* A fresh directory under the temp dir for [f], removed with its
   files afterwards. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Every line until the peer closes. *)
let recv_lines fd =
  let buf = Buffer.create 4096 in
  let scratch = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf scratch 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")

(* Send every line, half-close, and read the answers until the server
   closes. *)
let exchange path lines =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd (String.concat "\n" lines ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_lines fd)

(* ------------------------------------------------------------------ *)
(* Servers and fleets                                                  *)

let server_config = { Server.max_conns = 16; idle_timeout = 30.; max_line = 1 lsl 20 }

(* [Server.serve_socket] on a thread of this process, listening once
   this returns. *)
let start_server ?batch ?(config = server_config) engine path =
  let th = Thread.create (fun () -> Server.serve_socket engine ?batch ~config ~path ()) () in
  if not (Router.wait_for_socket path) then
    failwith ("drill: server socket never appeared: " ^ path);
  th

(* Stop a [start_server] server in-band and join its thread. *)
let stop_server path th =
  ignore (exchange path [ {|{"op":"shutdown"}|} ]);
  Thread.join th

(* Forked shard processes serving [dir]/shard-i.sock, each with a store
   at [dir]/shard-i.store when [store], and exporting a Chrome trace to
   [dir]/shard-i.json on exit when [trace]. Fork before anything starts
   a domain pool in this process. *)
let spawn_fleet ?(store = false) ?(trace = false) ~dir ~shards () =
  let file i ext = Filename.concat dir (Printf.sprintf "shard-%d.%s" i ext) in
  let make_engine i =
    let store =
      if store then
        match Store.open_ ~path:(file i "store") with Ok s -> Some s | Error e -> failwith e
      else None
    in
    Engine.create ?store (Engine.default_config ())
  in
  let children =
    List.init shards (fun i ->
        Router.spawn_shard
          ?trace:(if trace then Some (file i "json") else None)
          ~make_engine ~socket:(file i "sock") ~server_config i)
  in
  List.iter
    (fun (c : Router.child) ->
      if not (Router.wait_for_socket c.socket) then
        failwith ("drill: shard socket never appeared: " ^ c.socket))
    children;
  children

let sockets = List.map (fun (c : Router.child) -> c.socket)

(* [requests] through [Router.run] in front of the [backends] sockets;
   the answers, in request order. *)
let route_replay ?metrics ~requests backends =
  let tmp_in = Filename.temp_file "fusecu_route" ".in" in
  let tmp_out = Filename.temp_file "fusecu_route" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove tmp_in with Sys_error _ -> ());
      try Sys.remove tmp_out with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin tmp_in (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) requests);
      let input = Unix.openfile tmp_in [ Unix.O_RDONLY ] 0 in
      let output = Unix.openfile tmp_out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close input;
          Unix.close output)
        (fun () -> Router.run ?metrics ~backends ~input ~output ());
      read_lines tmp_out)
