(* Fusecu_util.Trace: the span collector behind `--trace`. The contract
   under test: disabled collection is a no-op with no events; spans nest
   with per-domain depths; the ring drops oldest events and counts
   them; the Chrome export has a fixed,
   deterministic shape under a synthetic clock; and concurrent recording
   from pool domains never tears an event. *)

open Fusecu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A deterministic clock: every read advances by exactly one second.
   [with_span] reads the clock twice (entry and exit), so span k of a
   straight-line program has a 1 s duration and nesting produces exact,
   predictable timestamps. *)
let install_synthetic_clock () =
  let t = ref (-1.) in
  Trace.set_clock (fun () ->
      t := !t +. 1.;
      !t)

let with_collection ?capacity f =
  Trace.start ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      Trace.clear ();
      Trace.set_clock Unix.gettimeofday)
    f

let test_disabled_is_noop () =
  Trace.set_clock Unix.gettimeofday;
  check_bool "off by default here" false (Trace.is_enabled ());
  let r = Trace.with_span ~cat:"x" "body" (fun () -> 41 + 1) in
  check_int "body ran" 42 r;
  check_int "no events" 0 (List.length (Trace.events ()))

let test_span_nesting () =
  install_synthetic_clock ();
  with_collection (fun () ->
      let r =
        Trace.with_span ~cat:"outer" "a" (fun () ->
            Trace.with_span ~cat:"inner" "b" (fun () -> 7))
      in
      check_int "result" 7 r;
      match Trace.events () with
      | [ inner; outer ] ->
        (* spans are recorded at completion: inner closes first *)
        check_str "inner name" "b" inner.Trace.name;
        check_str "outer name" "a" outer.Trace.name;
        check_int "inner depth" 2 inner.Trace.depth;
        check_int "outer depth" 1 outer.Trace.depth;
        (* clock reads: outer t0 = 0, inner t0 = 1, inner t1 = 2,
           outer t1 = 3 (seconds -> microseconds) *)
        Alcotest.(check (float 0.)) "inner ts" 1e6 inner.Trace.ts_us;
        Alcotest.(check (float 0.)) "inner dur" 1e6 inner.Trace.dur_us;
        Alcotest.(check (float 0.)) "outer ts" 0. outer.Trace.ts_us;
        Alcotest.(check (float 0.)) "outer dur" 3e6 outer.Trace.dur_us
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_records_on_exception () =
  install_synthetic_clock ();
  with_collection (fun () ->
      (try
         Trace.with_span ~cat:"boom" "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      match Trace.events () with
      | [ ev ] ->
        check_str "recorded despite raise" "failing" ev.Trace.name;
        check_int "depth unwound" 1 ev.Trace.depth
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* depth counter must be back to zero: a following span is depth 1 *)
  install_synthetic_clock ();
  with_collection (fun () ->
      Trace.with_span "after" (fun () -> ());
      match Trace.events () with
      | [ ev ] -> check_int "depth reset after raise" 1 ev.Trace.depth
      | _ -> Alcotest.fail "expected 1 event")

let test_ring_overflow () =
  install_synthetic_clock ();
  with_collection ~capacity:4 (fun () ->
      for i = 0 to 9 do
        Trace.with_span ~cat:"tick" (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      let evs = Trace.events () in
      check_int "ring keeps capacity" 4 (List.length evs);
      Alcotest.(check (list string))
        "oldest evicted first"
        [ "s6"; "s7"; "s8"; "s9" ]
        (List.map (fun e -> e.Trace.name) evs);
      check_int "dropped counts overwrites" 6 (Trace.dropped ()))

(* The Chrome export under the synthetic clock, compared against an
   expected JSON value (printed through the same serializer, so the test
   pins structure and values without depending on float formatting). *)
let test_chrome_json_golden () =
  install_synthetic_clock ();
  with_collection (fun () ->
      Trace.with_span ~cat:"enumerate"
        ~args:[ ("n", Json.Int 3) ]
        "search"
        (fun () -> Trace.with_span ~cat:"evaluate" "chunk" (fun () -> ()));
      let tid = (Domain.self () :> int) in
      let event ~name ~cat ~ts ~dur ~depth ~args =
        Json.Obj
          [ ("name", Json.String name);
            ("cat", Json.String cat);
            ("ph", Json.String "X");
            ("ts", Json.Float ts);
            ("dur", Json.Float dur);
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj (("depth", Json.Int depth) :: args)) ]
      in
      let expected =
        Json.Obj
          [ ( "traceEvents",
              Json.List
                [ event ~name:"chunk" ~cat:"evaluate" ~ts:1e6 ~dur:1e6
                    ~depth:2 ~args:[];
                  event ~name:"search" ~cat:"enumerate" ~ts:0. ~dur:3e6
                    ~depth:1
                    ~args:[ ("n", Json.Int 3) ] ] );
            ("displayTimeUnit", Json.String "ms") ]
      in
      check_str "chrome JSON" (Json.print expected)
        (Json.print (Trace.to_chrome_json ()));
      (* and the export round-trips through the parser *)
      let path = Filename.temp_file "fusecu_trace" ".json" in
      Trace.export path;
      let contents = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      match Json.parse contents with
      | Error e -> Alcotest.failf "exported file does not parse: %s" e
      | Ok parsed ->
        check_bool "file equals in-memory JSON" true
          (Json.equal parsed (Trace.to_chrome_json ())))

(* Concurrent spans closed on several pool domains: every event must be
   whole (mutex-serialized recording), the count exact, and each
   domain's depths self-consistent. *)
let test_concurrent_recording () =
  Trace.set_clock Unix.gettimeofday;
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      with_collection (fun () ->
          let spans_per_chunk = 25 in
          let total =
            Pool.parallel_fold ~pool ~chunks:8 ~lo:0 ~hi:8
              ~fold:(fun lo hi ->
                for _ = lo to hi - 1 do
                  for i = 0 to spans_per_chunk - 1 do
                    Trace.with_span ~cat:"work"
                      ~args:[ ("i", Json.Int i) ]
                      "unit"
                      (fun () -> ())
                  done
                done;
                hi - lo)
              ~merge:( + ) 0
          in
          check_int "all chunks ran" 8 total;
          (* user spans + the pool's own per-chunk spans *)
          let evs = Trace.events () in
          let work =
            List.filter (fun (e : Trace.event) -> e.cat = "work") evs
          in
          let pool_spans =
            List.filter (fun (e : Trace.event) -> e.cat = "pool") evs
          in
          check_int "every span recorded whole" (8 * spans_per_chunk)
            (List.length work);
          check_bool "pool chunks traced" true (List.length pool_spans > 0);
          List.iter
            (fun e ->
              check_str "no torn name" "unit" e.Trace.name;
              check_bool "depth positive" true (e.Trace.depth >= 1);
              check_bool "duration non-negative" true (e.Trace.dur_us >= 0.))
            work))

let test_trace_ids_unique () =
  let a = Trace.new_trace_id () in
  let b = Trace.new_trace_id () in
  let c = Trace.new_trace_id () in
  check_bool "positive" true (a >= 1);
  check_bool "strictly increasing" true (a < b && b < c)

let test_clear () =
  install_synthetic_clock ();
  with_collection (fun () ->
      Trace.with_span "x" (fun () -> ());
      Trace.clear ();
      check_int "events cleared" 0 (List.length (Trace.events ()));
      check_int "dropped cleared" 0 (Trace.dropped ());
      check_bool "still collecting" true (Trace.is_enabled ());
      Trace.with_span "y" (fun () -> ());
      check_int "records again" 1 (List.length (Trace.events ())))

(* Per-process export shape: a real pid on every event plus a leading
   process_name metadata record, ready for cross-process merging. The
   default export (pid 1, no metadata) is pinned separately by
   [test_chrome_json_golden]. *)
let test_process_lane_export () =
  install_synthetic_clock ();
  with_collection (fun () ->
      Trace.with_span ~cat:"c" "s" (fun () -> ());
      match Trace.to_chrome_json ~pid:42 ~process_name:"shard-7" () with
      | Json.Obj fields -> (
        match List.assoc "traceEvents" fields with
        | Json.List (meta :: evs) ->
          check_bool "has span events" true (evs <> []);
          check_bool "metadata first" true
            (Json.member "ph" meta = Some (Json.String "M"));
          check_bool "metadata is process_name" true
            (Json.member "name" meta = Some (Json.String "process_name"));
          check_bool "metadata pid" true
            (Json.member "pid" meta = Some (Json.Int 42));
          (match Json.member "args" meta with
          | Some args ->
            check_bool "lane title" true
              (Json.member "name" args = Some (Json.String "shard-7"))
          | None -> Alcotest.fail "metadata has no args");
          List.iter
            (fun ev ->
              check_bool "event pid" true
                (Json.member "pid" ev = Some (Json.Int 42)))
            evs
        | _ -> Alcotest.fail "no traceEvents list")
      | _ -> Alcotest.fail "not an object")

(* merge_chrome: pooled events stably sorted by timestamp, metadata
   leading, malformed inputs refused by index. *)
let merge_ev ~pid ~ts name =
  Json.Obj
    [ ("name", Json.String name);
      ("cat", Json.String "t");
      ("ph", Json.String "X");
      ("ts", Json.Float ts);
      ("dur", Json.Float 1.);
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj []) ]

let merged_names merged =
  match Json.member "traceEvents" merged with
  | Some (Json.List evs) ->
    List.map
      (fun ev ->
        match Json.member "name" ev with
        | Some (Json.String n) -> n
        | _ -> "?")
      evs
  | _ -> Alcotest.fail "merged trace has no traceEvents"

let test_merge_chrome_interleaves () =
  let meta =
    Json.Obj
      [ ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "router") ]) ]
  in
  let t1 =
    Json.Obj
      [ ( "traceEvents",
          Json.List [ merge_ev ~pid:1 ~ts:10. "a"; merge_ev ~pid:1 ~ts:30. "c" ]
        );
        ("displayTimeUnit", Json.String "ms") ]
  in
  let t2 =
    Json.Obj
      [ ( "traceEvents",
          Json.List [ meta; merge_ev ~pid:2 ~ts:20. "b" ] ) ]
  in
  match Trace.merge_chrome [ t1; t2 ] with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok merged ->
    (* metadata first despite arriving in the second file; events
       interleaved across processes by timestamp *)
    Alcotest.(check (list string))
      "timeline order"
      [ "process_name"; "a"; "b"; "c" ]
      (merged_names merged);
    check_bool "displayTimeUnit kept" true
      (Json.member "displayTimeUnit" merged = Some (Json.String "ms"))

let test_merge_chrome_stable_on_ties () =
  let t1 =
    Json.Obj
      [ ("traceEvents", Json.List [ merge_ev ~pid:1 ~ts:5. "first" ]) ]
  in
  let t2 =
    Json.Obj
      [ ("traceEvents", Json.List [ merge_ev ~pid:2 ~ts:5. "second" ]) ]
  in
  match Trace.merge_chrome [ t1; t2 ] with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok merged ->
    Alcotest.(check (list string))
      "equal timestamps keep input order" [ "first"; "second" ]
      (merged_names merged)

let test_merge_chrome_refuses_malformed () =
  let good = Json.Obj [ ("traceEvents", Json.List []) ] in
  (match Trace.merge_chrome [ good; Json.Int 3 ] with
  | Ok _ -> Alcotest.fail "merged a non-object trace"
  | Error e ->
    check_bool "error names the bad input" true
      (String.length e >= 7 && String.sub e 0 7 = "trace 1"));
  match Trace.merge_chrome [] with
  | Ok merged -> Alcotest.(check (list string)) "empty merge" [] (merged_names merged)
  | Error e -> Alcotest.failf "empty merge failed: %s" e

let () =
  Alcotest.run "trace"
    [ ( "spans",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "nesting and synthetic clock" `Quick
            test_span_nesting;
          Alcotest.test_case "span recorded on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "clear" `Quick test_clear ] );
      ( "ring",
        [ Alcotest.test_case "overflow keeps newest, counts drops" `Quick
            test_ring_overflow ] );
      ( "export",
        [ Alcotest.test_case "chrome JSON golden" `Quick
            test_chrome_json_golden;
          Alcotest.test_case "process lane export" `Quick
            test_process_lane_export ] );
      ( "merge",
        [ Alcotest.test_case "interleaves by timestamp" `Quick
            test_merge_chrome_interleaves;
          Alcotest.test_case "stable on ties" `Quick
            test_merge_chrome_stable_on_ties;
          Alcotest.test_case "refuses malformed input" `Quick
            test_merge_chrome_refuses_malformed ] );
      ( "concurrency",
        [ Alcotest.test_case "no torn events under the pool" `Quick
            test_concurrent_recording;
          Alcotest.test_case "trace ids unique" `Quick test_trace_ids_unique ]
      ) ]
