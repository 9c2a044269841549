(* The @store-smoke drill: persistence and sharding against the golden
   transcript.

   Router leg (real processes, forked before any domain pool exists):
   a 1-shard fleet with a persistent store replays the fixture, is
   killed with SIGKILL, restarted on the same store, and replayed
   again — the warm transcript must match the cold one byte for byte
   on every non-control line (stats counters legitimately differ warm:
   recovered entries turn misses into hits). A 2-shard fleet replays
   the same fixture and must produce the identical non-control
   transcript, exercising consistent-hash placement and in-order
   reassembly.

   Store leg (in-process, deterministic damage): the fixture replayed
   through an engine with a store; then the store file is truncated at
   arbitrary byte positions — every torn tail a kill -9 could leave —
   and recovery must keep a clean prefix of records and still replay
   the golden bytes. A corrupted CRC likewise severs the tail. *)

open Fusecu_util
open Fusecu_service

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let golden_path = "test/fixtures/service_responses.golden"

let resolve p = if Sys.file_exists p then p else Filename.concat ".." p

let is_control_line line =
  match Json.parse line with
  | Ok r -> (
    match Json.member "op" r with
    | Some (Json.String ("stats" | "shutdown" | "metrics")) -> true
    | _ -> false)
  | Error _ -> false

let non_control = List.filter (fun l -> not (is_control_line l))

let check what expected actual =
  if expected <> actual then begin
    List.iteri
      (fun i (e, a) ->
        if e <> a then
          Printf.eprintf "store drill: %s line %d:\n  expected %s\n  got      %s\n"
            what i e a)
      (try List.combine expected actual with Invalid_argument _ -> []);
    failwith
      (Printf.sprintf "store drill: %s diverged (%d vs %d lines)" what
         (List.length expected) (List.length actual))
  end

(* ------------------------------------------------------------------ *)
(* Router fleet leg                                                    *)

let spawn_fleet ~dir ~shards ~store =
  let make_engine i =
    let store =
      if not store then None
      else
        let path = Filename.concat dir (Printf.sprintf "shard-%d.store" i) in
        match Store.open_ ~path with
        | Ok s -> Some s
        | Error e -> failwith e
    in
    Engine.create ?store (Engine.default_config ())
  in
  let server_config =
    { Server.max_conns = 16; idle_timeout = 30.; max_line = 1 lsl 20 }
  in
  List.init shards (fun i ->
      Router.spawn_shard ~make_engine
        ~socket:(Filename.concat dir (Printf.sprintf "shard-%d.sock" i))
        ~server_config i)

let await_fleet children =
  List.iter
    (fun (c : Router.child) ->
      if not (Router.wait_for_socket c.socket) then
        failwith ("store drill: shard socket never appeared: " ^ c.socket))
    children

let route_replay ~requests children =
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
        (fun () ->
          Router.run
            ~backends:(List.map (fun (c : Router.child) -> c.socket) children)
            ~input ~output ());
      read_lines tmp_out)

let router_leg ~fixture () =
  let requests = read_lines fixture in
  let golden = read_lines (resolve golden_path) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_drill_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* cold 1-shard fleet with stores *)
      let fleet = spawn_fleet ~dir ~shards:1 ~store:true in
      await_fleet fleet;
      let cold = route_replay ~requests fleet in
      check "router cold vs golden (non-control)" (non_control golden)
        (non_control cold);
      (* kill -9: no drain, no store close — the write-behind flusher
         dies wherever it happens to be *)
      List.iter
        (fun (c : Router.child) ->
          Unix.kill c.pid Sys.sigkill;
          ignore (Unix.waitpid [] c.pid);
          (* SIGKILL skips the server's unlink; clear the socket path
             so the restarted shard can bind it *)
          try Unix.unlink c.socket with Unix.Unix_error _ -> ())
        fleet;
      (* restart on the same stores: warm replay, byte-identical *)
      let fleet2 = spawn_fleet ~dir ~shards:1 ~store:true in
      await_fleet fleet2;
      let warm = route_replay ~requests fleet2 in
      (* the restarted shard's registry must surface what recovery
         found: a quiet scrape (moves no deterministic counter) shows
         the loaded-record count from the kill-9 crash image *)
      (match Router.scrape_metrics (List.hd fleet2).Router.socket with
      | Error e -> failwith ("store drill: warm scrape failed: " ^ e)
      | Ok dump ->
        let loaded =
          match Json.member "counters" dump with
          | Some (Json.Obj kvs) -> (
            match List.assoc_opt "store_records_loaded" kvs with
            | Some (Json.Int n) -> n
            | _ -> 0)
          | _ -> 0
        in
        if loaded = 0 then
          failwith
            "store drill: kill-9 restart registered no store_records_loaded");
      Router.stop_children fleet2;
      check "router warm-after-kill vs cold (non-control)" (non_control cold)
        (non_control warm);
      let store_file = Filename.concat dir "shard-0.store" in
      (match Store.open_ ~path:store_file with
      | Error e -> failwith e
      | Ok s ->
        let rec_ = Store.recovered s in
        Store.close s;
        if rec_.Store.records = 0 then
          failwith "store drill: kill-9 left an empty store";
        Printf.printf
          "store drill: kill-9 store recovered %d records (%d dropped)\n"
          rec_.Store.records rec_.Store.dropped_records);
      (* 2-shard fleet, no stores: same non-control transcript *)
      let fleet3 = spawn_fleet ~dir ~shards:2 ~store:false in
      await_fleet fleet3;
      let sharded = route_replay ~requests fleet3 in
      Router.stop_children fleet3;
      check "router 2-shard vs golden (non-control)" (non_control golden)
        (non_control sharded);
      Printf.printf
        "store drill: 1-shard cold, kill-9 warm restart, and 2-shard replays \
         all match the golden (%d planning lines)\n"
        (List.length (non_control golden)))

(* ------------------------------------------------------------------ *)
(* Deterministic damage leg                                            *)

let replay_with_store ~requests store_path =
  let store =
    match Store.open_ ~path:store_path with
    | Ok s -> s
    | Error e -> failwith e
  in
  let engine = Engine.create ~store (Engine.default_config ()) in
  let responses = Engine.handle_lines engine requests in
  let recovered = List.length (Store.recovered store).Store.entries in
  Store.flush store;
  Store.close store;
  (responses, recovered)

let damage_leg ~fixture () =
  let requests = read_lines fixture in
  let golden = read_lines (resolve golden_path) in
  let store_path = Filename.temp_file "fusecu_drill" ".store" in
  Sys.remove store_path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove store_path with Sys_error _ -> ())
    (fun () ->
      let cold, recovered0 = replay_with_store ~requests store_path in
      if recovered0 <> 0 then failwith "store drill: fresh store not empty";
      check "engine cold vs golden" golden cold;
      let pristine =
        In_channel.with_open_bin store_path In_channel.input_all
      in
      let total = String.length pristine in
      if total = 0 then failwith "store drill: cold run wrote nothing";
      let write_store s =
        Out_channel.with_open_bin store_path (fun oc ->
            Out_channel.output_string oc s)
      in
      let count_records () =
        match Store.open_ ~path:store_path with
        | Error e -> failwith e
        | Ok s ->
          let n = List.length (Store.recovered s).Store.entries in
          Store.close s;
          n
      in
      let full = count_records () in
      (* torn tails: truncate at every prefix length across the last
         two records plus a spread over the whole file — recovery must
         never lose more than the damaged tail, and the warm replay
         must stay golden byte for byte (stats excluded: warm hits). *)
      let cuts =
        List.filter
          (fun c -> c > 0 && c < total)
          (List.concat
             [ List.init 40 (fun i -> total - 1 - (i * 7));
               List.init 10 (fun i -> (i + 1) * total / 11) ])
      in
      List.iter
        (fun cut ->
          write_store (String.sub pristine 0 cut);
          let n = count_records () in
          if n > full then
            failwith "store drill: truncation grew the store?";
          let warm, recovered = replay_with_store ~requests store_path in
          if recovered <> n then
            failwith "store drill: warm load does not match recovery count";
          check
            (Printf.sprintf "warm-after-truncate@%d vs golden (non-control)" cut)
            (non_control golden) (non_control warm))
        cuts;
      (* corrupted CRC in the middle: the damaged record and everything
         after it are dropped; the clean prefix still warms golden *)
      let mid = total / 2 in
      let flipped = Bytes.of_string pristine in
      Bytes.set flipped mid
        (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x01));
      write_store (Bytes.to_string flipped);
      let n_corrupt = count_records () in
      if n_corrupt >= full then
        failwith "store drill: CRC corruption went undetected";
      let warm, _ = replay_with_store ~requests store_path in
      check "warm-after-corruption vs golden (non-control)"
        (non_control golden) (non_control warm);
      Printf.printf
        "store drill: %d truncations + 1 CRC flip recovered cleanly (%d \
         records intact -> %d after mid-file corruption)\n"
        (List.length cuts) full n_corrupt)

let run ~fixture () =
  (* fork the fleet before anything touches the global domain pool *)
  router_leg ~fixture ();
  damage_leg ~fixture ();
  print_endline "store drill: ok"
