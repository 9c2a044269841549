(* Persistent plan store: framing, recovery from every kind of damaged
   tail, duplicate-key resolution, a failed write contained, and
   warm-replay byte-identity against the checked-in golden transcript. *)

open Fusecu_util
open Fusecu_service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_tmp f =
  let path = Filename.temp_file "fusecu_test" ".store" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_exn path =
  match Store.open_ ~path with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* a few structurally different outcomes to persist; computed through
   the real engine so they exercise the full outcome serializer *)
let sample_outcomes =
  lazy
    (let engine = Engine.create (Engine.default_config ()) in
     List.filter_map
       (fun line ->
         match Protocol.parse_line line with
         | Ok (_, _, Protocol.Call c) -> (
           let canonical, _ = Protocol.canonicalize c in
           match Engine.compute engine canonical with
           | Ok outcome -> Some (Protocol.cache_key canonical, outcome)
           | Error _ -> None)
         | _ -> None)
       [ "{\"op\":\"intra\",\"m\":64,\"k\":48,\"l\":36,\"buffer\":\"64KB\"}";
         "{\"op\":\"fuse\",\"m\":64,\"k\":48,\"l\":36,\"l2\":24,\"buffer\":\"64KB\"}";
         "{\"op\":\"chain\",\"m\":32,\"ks\":[16,24,16],\"buffer\":\"64KB\"}";
         "{\"op\":\"regime\",\"m\":64,\"k\":48,\"l\":36,\"buffer\":\"64KB\"}" ])

let file_contents path = In_channel.with_open_bin path In_channel.input_all

let test_roundtrip () =
  let samples = Lazy.force sample_outcomes in
  check_bool "have samples" true (List.length samples >= 3);
  with_tmp (fun path ->
      let s = open_exn path in
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.flush s;
      check_int "appended" (List.length samples) (Store.appended s);
      Store.close s;
      let s = open_exn path in
      let r = Store.recovered s in
      Store.close s;
      check_int "records" (List.length samples) r.Store.records;
      check_int "dropped" 0 r.Store.dropped_records;
      check_int "dropped bytes" 0 r.Store.dropped_bytes;
      List.iter2
        (fun (k, o) (k', o') ->
          check_bool ("key " ^ k) true (k = k');
          check_bool ("outcome of " ^ k) true (o = o'))
        samples r.Store.entries)

let test_duplicate_keys_last_wins () =
  let samples = Lazy.force sample_outcomes in
  let k0, o0 = List.nth samples 0 and _, o1 = List.nth samples 1 in
  with_tmp (fun path ->
      let s = open_exn path in
      Store.append s k0 o0;
      Store.append s "other" o1;
      Store.append s k0 o1 (* re-computation supersedes *);
      Store.close s;
      let s = open_exn path in
      let r = Store.recovered s in
      Store.close s;
      check_int "records before dedup" 3 r.Store.records;
      check_int "entries after dedup" 2 (List.length r.Store.entries);
      match List.assoc_opt k0 r.Store.entries with
      | Some o -> check_bool "later record won" true (o = o1)
      | None -> Alcotest.fail "deduped key vanished")

(* every proper prefix of the file is a valid crash image: recovery
   keeps exactly the records whose full frame (newline included)
   survived, drops the tail, and truncates the file so appends never
   graft onto a fragment *)
let test_torn_tail_every_prefix () =
  let samples = Lazy.force sample_outcomes in
  with_tmp (fun path ->
      let s = open_exn path in
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.close s;
      let pristine = file_contents path in
      let total = String.length pristine in
      (* frame boundaries: byte offsets just after each '\n' *)
      let boundaries = ref [ 0 ] in
      String.iteri
        (fun i c -> if c = '\n' then boundaries := (i + 1) :: !boundaries)
        pristine;
      for cut = 0 to total - 1 do
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub pristine 0 cut));
        let expected =
          List.length (List.filter (fun b -> b <= cut && b > 0) !boundaries)
        in
        let s = open_exn path in
        let r = Store.recovered s in
        check_int
          (Printf.sprintf "records after cut@%d" cut)
          expected r.Store.records;
        (* the truncated file must now be the clean prefix: reopening
           finds no further damage *)
        Store.close s;
        let s = open_exn path in
        let r2 = Store.recovered s in
        Store.close s;
        check_int
          (Printf.sprintf "stable after cut@%d" cut)
          0 r2.Store.dropped_bytes;
        check_int
          (Printf.sprintf "same records after cut@%d" cut)
          expected r2.Store.records
      done)

let test_corrupt_crc_drops_tail () =
  let samples = Lazy.force sample_outcomes in
  with_tmp (fun path ->
      let s = open_exn path in
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.close s;
      let pristine = file_contents path in
      (* flip one payload byte inside the SECOND record: record 1
         stays valid, records 2.. are dropped *)
      let first_nl = String.index pristine '\n' in
      let target = first_nl + 12 in
      let bytes = Bytes.of_string pristine in
      Bytes.set bytes target
        (Char.chr (Char.code (Bytes.get bytes target) lxor 0x40));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc bytes);
      let s = open_exn path in
      let r = Store.recovered s in
      Store.close s;
      check_int "only the first record survives" 1 r.Store.records;
      check_bool "tail dropped" true (r.Store.dropped_records >= 1);
      check_int "file truncated to the clean prefix" (first_nl + 1)
        (String.length (file_contents path)))

let test_bad_hex_and_short_frames () =
  let samples = Lazy.force sample_outcomes in
  let k0, o0 = List.hd samples in
  List.iter
    (fun garbage ->
      with_tmp (fun path ->
          let s = open_exn path in
          Store.append s k0 o0;
          Store.close s;
          let clean = file_contents path in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (clean ^ garbage));
          let s = open_exn path in
          let r = Store.recovered s in
          Store.close s;
          check_int ("clean prefix survives " ^ String.escaped garbage) 1
            r.Store.records;
          check_bool "garbage dropped" true (r.Store.dropped_bytes > 0)))
    [ "zzzzzzzz {\"k\":\"x\",\"o\":null}\n" (* bad hex *);
      "00000000 {\"k\":\"x\",\"o\":null}\n" (* wrong CRC *);
      "short\n" (* too short for a frame *);
      "deadbeef_{\"k\":\"x\"}\n" (* missing separator space *);
      "deadbeef {not json}\n" (* CRC won't match; unparseable payload *) ]

(* A store written with the earlier tagged outcome payload: correctly
   framed, but its first record does not decode, so the whole file is a
   damaged tail — dropped and truncated on open, after which appends
   recover cleanly. *)
let test_old_format_dropped () =
  let samples = Lazy.force sample_outcomes in
  let frame payload = Printf.sprintf "%08x %s\n" (Hash.crc32 payload) payload in
  let old_records =
    [ "{\"k\":\"r|64|48|36|65536\",\"o\":{\"t\":\"regime\",\"regime\":\"large\",\
       \"tiny_max\":576,\"small_max\":1152,\"medium_max\":1763,\"classes\":[\"Three-NRA\"]}}";
      "{\"k\":\"c|divisors|32|16,24,16|65536\",\"o\":{\"t\":\"chain_full\",\"traffic\":1536,\
       \"fused_bound\":1536}}" ]
  in
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun r -> Out_channel.output_string oc (frame r)) old_records);
      let s = open_exn path in
      let r = Store.recovered s in
      check_int "no entries" 0 (List.length r.Store.entries);
      check_int "no records" 0 r.Store.records;
      check_int "every old record dropped" (List.length old_records)
        r.Store.dropped_records;
      check_int "file truncated" 0 (String.length (file_contents path));
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.close s;
      let s = open_exn path in
      let r = Store.recovered s in
      Store.close s;
      check_int "appends recovered" (List.length samples) r.Store.records;
      check_int "no damage after the upgrade" 0 r.Store.dropped_bytes;
      check_bool "same outcomes" true (r.Store.entries = samples))

(* the end-to-end bar: an engine warm-loaded from a store (even one
   with a torn tail or a corrupted record) must replay the fixture
   byte-identically to the cold golden on every planning line *)
let fixture_lines =
  lazy
    (In_channel.with_open_bin "fixtures/service_requests.ndjson"
       In_channel.input_lines)

let golden_lines =
  lazy
    (In_channel.with_open_bin "fixtures/service_responses.golden"
       In_channel.input_lines)

let is_stats_response line =
  match Json.parse line with
  | Ok r -> Json.member "op" r = Some (Json.String "stats")
  | Error _ -> false

let non_control = List.filter (fun l -> not (is_stats_response l))

let test_warm_replay_matches_golden () =
  with_tmp (fun path ->
      let requests = Lazy.force fixture_lines in
      let golden = Lazy.force golden_lines in
      (* cold run with a store: must match the golden exactly, stats
         included (warm-loading is add-only, counters start at zero) *)
      let s = open_exn path in
      let cold =
        Engine.handle_lines (Engine.create ~store:s (Engine.default_config ()))
          requests
      in
      Store.close s;
      check_bool "cold run with store matches golden" true (cold = golden);
      (* warm run: planning lines byte-identical, hits strictly up *)
      let s = open_exn path in
      check_bool "store has records" true
        ((Store.recovered s).Store.records > 0);
      let engine = Engine.create ~store:s (Engine.default_config ()) in
      let warm = Engine.handle_lines engine requests in
      let warm_stats = Engine.cache_stats engine in
      Store.close s;
      check_bool "warm planning lines match golden" true
        (non_control warm = non_control golden);
      check_bool "warm start raises hits" true
        (warm_stats.Cache.hits > warm_stats.Cache.misses);
      (* damage the file and replay warm from what recovery keeps: still
         golden, and the warm load takes exactly the recovered records *)
      let pristine = file_contents path in
      let total = String.length pristine in
      let write_store contents =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
      in
      let records () =
        let s = open_exn path in
        let n = List.length (Store.recovered s).Store.entries in
        Store.close s;
        n
      in
      let full = records () in
      let warm_replay what =
        let n = records () in
        let s = open_exn path in
        let warm =
          Engine.handle_lines (Engine.create ~store:s (Engine.default_config ()))
            requests
        in
        let loaded = List.length (Store.recovered s).Store.entries in
        Store.close s;
        check_int (what ^ ": warm load = recovered records") n loaded;
        check_bool (what ^ ": warm replay matches golden") true
          (non_control warm = non_control golden);
        n
      in
      (* torn tails: 9 bytes off the end, every 7th byte back from the
         end over the last records, and a spread over the whole file *)
      let cuts =
        List.filter
          (fun c -> c > 0 && c < total)
          ((total - 9)
          :: List.init 40 (fun i -> total - 1 - (i * 7))
          @ List.init 10 (fun i -> (i + 1) * total / 11))
      in
      check_int "every cut inside the file" 51 (List.length cuts);
      List.iter
        (fun cut ->
          write_store (String.sub pristine 0 cut);
          let n = warm_replay (Printf.sprintf "torn at %d" cut) in
          check_bool "a cut never adds records" true (n <= full))
        cuts;
      (* a flipped bit mid-file fails that record's CRC: it and every
         record after it are dropped *)
      let flipped = Bytes.of_string pristine in
      Bytes.set flipped (total / 2)
        (Char.chr (Char.code (Bytes.get flipped (total / 2)) lxor 0x01));
      write_store (Bytes.to_string flipped);
      check_bool "CRC flip severs the tail" true
        (warm_replay "CRC flipped mid-file" < full))

(* The store a build before answers became text wrote over the
   fixture ([serve --store] over service_requests.ndjson, 48 records)
   pins the format: a copy reopens whole, a warm replay from it answers
   every planning line as the golden does, and a cold run of this build
   over the same requests writes it byte for byte. *)
let test_pinned_store () =
  let pinned = file_contents "fixtures/service_requests.store" in
  let requests = Lazy.force fixture_lines in
  let golden = Lazy.force golden_lines in
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc pinned);
      let s = open_exn path in
      let r = Store.recovered s in
      check_int "no dropped records" 0 r.Store.dropped_records;
      check_int "every record read" 48 r.Store.records;
      let engine = Engine.create ~store:s (Engine.default_config ()) in
      let warm = Engine.handle_lines engine requests in
      let st = Engine.cache_stats engine in
      Store.close s;
      check_bool "warm planning lines match golden" true
        (non_control warm = non_control golden);
      check_bool "warm start raises hits" true (st.Cache.hits > st.Cache.misses));
  with_tmp (fun path ->
      let s = open_exn path in
      ignore (Engine.handle_lines (Engine.create ~store:s (Engine.default_config ())) requests);
      Store.close s;
      check_bool "a cold run writes the pinned store" true
        (String.equal pinned (file_contents path)))

(* ------------------------------------------------------------------ *)
(* Instrumentation: flush histograms and recovery counters.
   All of it lives off the response path (DESIGN.md §6b): the checks
   here pin down that a fresh store registers nothing — so the golden
   stats line is untouched — while flush traffic and recovered damage
   are fully visible in the metrics dump. *)

let hist_count metrics name =
  match Json.member "latency" (Metrics.to_json metrics) with
  | Some (Json.Obj kvs) -> (
    match List.assoc_opt name kvs with
    | Some h -> (
      match Json.member "count" h with Some (Json.Int n) -> n | _ -> 0)
    | None -> 0)
  | _ -> 0

(* Each write adds one observation to each histogram before [flush]
   returns; a flush with nothing pending writes nothing. *)
let test_flush_instrumentation () =
  let samples = Lazy.force sample_outcomes in
  with_tmp (fun path ->
      let m = Metrics.create () in
      let s = open_exn path in
      Store.set_metrics s m;
      (* a fresh store registers no recovery counters *)
      check_int "no recovery counters on a fresh store" 0
        (List.length (Metrics.counters m));
      let check_obs what n =
        Alcotest.(check (pair int int)) what (n, n)
          (hist_count m "store_flush_batch", hist_count m "store_append_seconds")
      in
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.flush s;
      check_obs "one write" 1;
      Store.flush s;
      check_obs "an empty flush writes nothing" 1;
      List.iter (fun (k, o) -> Store.append s ("again|" ^ k) o) samples;
      Store.flush s;
      check_obs "a second write" 2;
      check_int "every record written" (2 * List.length samples) (Store.appended s);
      Store.close s)

let test_recovery_counters () =
  let samples = Lazy.force sample_outcomes in
  with_tmp (fun path ->
      let s = open_exn path in
      List.iter (fun (k, o) -> Store.append s k o) samples;
      Store.close s;
      (* clean reopen: the load is counted, damage counters stay
         unregistered (zero-valued counters would pollute the
         deterministic counter set) *)
      let s = open_exn path in
      let m = Metrics.create () in
      Store.set_metrics s m;
      check_int "records loaded" (List.length samples)
        (Metrics.get m "store_records_loaded");
      check_bool "zero-valued damage counters stay unregistered" true
        ((not (List.mem_assoc "store_torn_tail_bytes" (Metrics.counters m)))
        && not (List.mem_assoc "store_dropped_records" (Metrics.counters m)));
      Store.close s;
      (* tear the final record's tail off — the crash image a kill -9
         mid-append leaves — and reopen: the drop is visible *)
      let pristine = file_contents path in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub pristine 0 (String.length pristine - 9)));
      let s = open_exn path in
      let m = Metrics.create () in
      Store.set_metrics s m;
      check_bool "torn bytes counted" true
        (Metrics.get m "store_torn_tail_bytes" > 0);
      check_int "surviving records counted"
        (List.length samples - 1)
        (Metrics.get m "store_records_loaded");
      Store.close s)

(* A store whose writes fail (ENOSPC on Linux's /dev/full) is
   contained: nothing raises, the one failed write is counted, later
   appends are dropped without another write, and a server over it
   answers as the golden does, its stats line counting the failure. *)
let test_failed_write_contained () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let samples = Lazy.force sample_outcomes in
  let m = Metrics.create () in
  let s = open_exn "/dev/full" in
  Store.set_metrics s m;
  List.iter (fun (k, o) -> Store.append s k o) samples;
  Store.flush s;
  check_int "one write error" 1 (Metrics.get m "store_write_errors");
  List.iter (fun (k, o) -> Store.append s k o) samples;
  Store.close s;
  check_int "later appends dropped, never written" 1
    (Metrics.get m "store_write_errors");
  check_int "nothing written" 0 (Store.appended s);
  with_tmp (fun output ->
      let s = open_exn "/dev/full" in
      let input = Unix.openfile "fixtures/service_requests.ndjson" [ Unix.O_RDONLY ] 0 in
      let out = Unix.openfile output [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
      Server.serve_fds (Engine.create ~store:s (Engine.default_config ())) input out;
      List.iter Unix.close [ input; out ];
      Store.close s;
      let answers = In_channel.with_open_bin output In_channel.input_lines in
      check_bool "planning lines match golden" true
        (non_control answers = non_control (Lazy.force golden_lines));
      let write_errors line =
        let ( let* ) = Option.bind in
        let* result = Json.member "result" (Result.get_ok (Json.parse line)) in
        let* counters = Json.member "counters" result in
        Json.member "store_write_errors" counters
      in
      check_bool "the stats line counts the failed write" true
        (List.filter_map write_errors (List.filter is_stats_response answers)
        = [ Json.Int 1 ]))

let () =
  Alcotest.run "fusecu-store"
    [ ( "framing",
        [ Alcotest.test_case "append/recover round trip" `Quick test_roundtrip;
          Alcotest.test_case "duplicate keys: last wins" `Quick
            test_duplicate_keys_last_wins ] );
      ( "recovery",
        [ Alcotest.test_case "torn tail at every byte" `Quick
            test_torn_tail_every_prefix;
          Alcotest.test_case "corrupt CRC severs the tail" `Quick
            test_corrupt_crc_drops_tail;
          Alcotest.test_case "bad hex / short / junk frames" `Quick
            test_bad_hex_and_short_frames;
          Alcotest.test_case "old record format dropped, appends recover"
            `Quick test_old_format_dropped;
          Alcotest.test_case "failed write contained (/dev/full)" `Quick
            test_failed_write_contained ] );
      ( "instrumentation",
        [ Alcotest.test_case "flush histograms" `Quick
            test_flush_instrumentation;
          Alcotest.test_case "recovery counters" `Quick test_recovery_counters
        ] );
      ( "replay",
        [ Alcotest.test_case "warm replay byte-identical to golden" `Quick
            test_warm_replay_matches_golden;
          Alcotest.test_case "pinned store: reopens, replays, rewritten" `Quick
            test_pinned_store ] ) ]
