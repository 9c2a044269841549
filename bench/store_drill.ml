(* The @store-smoke drill: persistence across a real crash. A 1-shard
   router fleet with a persistent store (forked before any domain pool
   exists) replays the fixture, is killed with SIGKILL, restarted on the
   same store, and replayed again. The warm transcript must match the
   cold one byte for byte on every non-control line (stats counters
   legitimately differ warm: recovered entries turn misses into hits),
   and the restarted shard must report the records it recovered.
   Recovery from torn tails and CRC damage at chosen offsets is
   [test_store]'s "warm replay byte-identical to golden". *)

open Fusecu_util
open Fusecu_service

let check = Drill.check ~drill:"store"
let non_control = Drill.non_control

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

let run () =
  kill_leg ~requests:(Drill.fixture ()) ~golden:(Drill.golden ()) ();
  print_endline "store drill: ok"
