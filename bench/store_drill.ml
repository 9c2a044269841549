(* The @store-smoke drill: persistence against the golden transcript.

   Kill leg (real processes, forked before any domain pool exists): a
   1-shard router fleet with a persistent store replays the fixture, is
   killed with SIGKILL, restarted on the same store, and replayed
   again — the warm transcript must match the cold one byte for byte
   on every non-control line (stats counters legitimately differ warm:
   recovered entries turn misses into hits), and the restarted shard
   must report the records it recovered.

   Store leg (in-process, deterministic damage): the fixture replayed
   through an engine with a store; then the store file is truncated at
   arbitrary byte positions — every torn tail a kill -9 could leave —
   and recovery must keep a clean prefix of records and still replay
   the golden bytes. A corrupted CRC likewise severs the tail. *)

open Fusecu_util
open Fusecu_service

let check = Drill.check ~drill:"store"
let non_control = Drill.non_control

(* ------------------------------------------------------------------ *)
(* Kill leg                                                            *)

let kill_leg ~requests ~golden () =
  Drill.with_temp_dir "fusecu_drill" @@ fun dir ->
  (* cold 1-shard fleet with stores *)
  let fleet = Drill.spawn_fleet ~store:true ~dir ~shards:1 () in
  let cold = Drill.route_replay ~requests (Drill.sockets fleet) in
  check "router cold vs golden (non-control)" (non_control golden) (non_control cold);
  (* kill -9: no drain, no store close. The shard writes a batch's
     records right after its replies, so the kill loses at most the
     records of a batch whose replies were being written. *)
  List.iter
    (fun (c : Router.child) ->
      Unix.kill c.pid Sys.sigkill;
      ignore (Unix.waitpid [] c.pid);
      (* SIGKILL skips the server's unlink; clear the socket path so
         the restarted shard can bind it *)
      try Unix.unlink c.socket with Unix.Unix_error _ -> ())
    fleet;
  (* restart on the same stores: warm replay, byte-identical *)
  let fleet2 = Drill.spawn_fleet ~store:true ~dir ~shards:1 () in
  let warm = Drill.route_replay ~requests (Drill.sockets fleet2) in
  (* the restarted shard's registry must surface what recovery found: a
     quiet scrape (moves no deterministic counter) shows the
     loaded-record count from the kill-9 crash image *)
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
    if loaded = 0 then failwith "store drill: kill-9 restart registered no store_records_loaded");
  Router.stop_children fleet2;
  check "router warm-after-kill vs cold (non-control)" (non_control cold) (non_control warm);
  match Store.open_ ~path:(Filename.concat dir "shard-0.store") with
  | Error e -> failwith e
  | Ok s ->
    let rec_ = Store.recovered s in
    Store.close s;
    if rec_.Store.records = 0 then failwith "store drill: kill-9 left an empty store";
    Printf.printf
      "store drill: kill-9 store recovered %d records (%d dropped); cold and warm replays \
       match the golden (%d planning lines)\n"
      rec_.Store.records rec_.Store.dropped_records
      (List.length (non_control golden))

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
  Store.close store;
  (responses, recovered)

let damage_leg ~requests ~golden () =
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

let run () =
  let requests = Drill.fixture () and golden = Drill.golden () in
  (* fork the fleet before anything touches the global domain pool *)
  kill_leg ~requests ~golden ();
  damage_leg ~requests ~golden ();
  print_endline "store drill: ok"
