(* The planning service: JSON codec round trips, protocol parsing and
   canonicalization, the sharded LRU plan cache, and end-to-end engine
   determinism over the checked-in fixture (cache on/off, domain
   counts, batch sizes). *)

open Fusecu_service
module Json = Fusecu_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json: printing and parsing                                          *)

let test_json_print () =
  check_str "null" "null" (Json.print Json.Null);
  check_str "true" "true" (Json.print (Json.Bool true));
  check_str "int" "-42" (Json.print (Json.Int (-42)));
  check_str "float keeps dot" "1.0" (Json.print (Json.Float 1.));
  check_str "string escapes" "\"a\\\"b\\n\\u0001\""
    (Json.print (Json.String "a\"b\n\001"));
  check_str "nested" "{\"a\":[1,2.5,null],\"b\":{}}"
    (Json.print
       (Json.Obj
          [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
            ("b", Json.Obj []) ]));
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Json.print: NaN and infinities are not representable")
    (fun () -> ignore (Json.print (Json.Float Float.nan)))

let test_json_parse () =
  let ok v s =
    match Json.parse s with
    | Ok v' -> check_bool (Printf.sprintf "parse %S" s) true (Json.equal v v')
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok (Json.Int 42) " 42 ";
  ok (Json.Float 42.) "42e0";
  ok (Json.Float 0.5) "0.5";
  ok (Json.Int (-7)) "-7";
  ok (Json.String "a/b\twith \"quotes\"") "\"a\\/b\\twith \\\"quotes\\\"\"";
  ok (Json.String "\xe2\x82\xac") "\"\\u20ac\"";
  (* astral plane via surrogate pair *)
  ok (Json.String "\xf0\x9d\x84\x9e") "\"\\ud834\\udd1e\"";
  ok (Json.List []) "[]";
  ok (Json.Obj [ ("k", Json.List [ Json.Bool false ]) ]) "{\"k\":[false]}";
  (* Int/Float distinction survives big magnitudes *)
  ok (Json.Float 1e300) "1e300"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Json.parse s)))
    [ ""; "   "; "{"; "}"; "[1,"; "[1 2]"; "\"abc"; "\"\\u12"; "\"\\q\"";
      "{\"a\"}"; "{\"a\":}"; "{\"a\":1,}"; "[1,2,]"; "tru"; "nul"; "+1"; "1.";
      "1e"; "-"; "1 2"; "[]]"; "{\"a\":1}x"; "\"unterminated\\\"";
      "\x01"; "\"raw\ncontrol\"" ]

(* \u escapes in the surrogate range are only valid as a high+low pair;
   a lone half used to reach the UTF-8 encoder and emit CESU-8-style
   bytes no conforming decoder accepts *)
let test_json_surrogates () =
  let ok v s =
    match Json.parse s with
    | Ok v' -> check_bool (Printf.sprintf "parse %S" s) true (Json.equal v v')
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  (* paired: decodes to the astral code point and round-trips *)
  ok (Json.String "\xf0\x9d\x84\x9e") "\"\\uD834\\uDD1E\"";
  (match Json.parse "\"\\ud834\\udd1e\"" with
  | Ok v ->
    check_bool "pair round-trips" true
      (Json.parse (Json.print v) = Ok v)
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rejects s =
    match Json.parse s with
    | Ok v ->
      Alcotest.failf "accepted %S as %s" s (Json.print v)
    | Error e ->
      check_bool
        (Printf.sprintf "%S error names the escape" s)
        true
        (contains e "invalid \\u escape")
  in
  rejects "\"\\uD834\"" (* lone high at end of string *);
  rejects "\"\\uD834x\"" (* lone high, ordinary char follows *);
  rejects "\"\\uD834\\n\"" (* lone high, non-\u escape follows *);
  rejects "\"\\uD834\\u0041\"" (* high followed by a non-low escape *);
  rejects "\"\\uD834\\uD834\"" (* high followed by another high *);
  rejects "\"\\uDD1E\"" (* lone low *);
  rejects "\"a\\uDC00b\"" (* lone low mid-string *)

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map
                 (fun f -> Json.Float (if Float.is_finite f then f else 0.))
                 float;
               map (fun s -> Json.String s) (string_size (0 -- 12)) ]
         in
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun vs -> Json.List vs) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4)
                      (pair (string_size (0 -- 8)) (self (n / 2)))) ) ])

let arb_json = QCheck.make gen_json ~print:Json.print

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Json.parse (Json.print v) = v" arb_json
    (fun v ->
      match Json.parse (Json.print v) with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck.Test.fail_reportf "no parse: %s" e)

let prop_json_hum_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse inverts print_hum" arb_json
    (fun v ->
      match Json.parse (Json.print_hum v) with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck.Test.fail_reportf "no parse: %s" e)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_basics () =
  let c = Cache.create ~shards:2 ~capacity:8 () in
  check_bool "miss" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  check_bool "hit" true (Cache.find c "a" = Some 1);
  Cache.add c "a" 2;
  check_bool "overwrite" true (Cache.find c "a" = Some 2);
  let st = Cache.stats c in
  check_int "hits" 2 st.Cache.hits;
  check_int "misses" 1 st.Cache.misses;
  check_int "entries" 1 st.Cache.entries;
  check_bool "hit rate" true (Float.abs (Cache.hit_rate st -. (2. /. 3.)) < 1e-9)

let test_cache_lru_eviction () =
  (* one shard makes the LRU order observable *)
  let c = Cache.create ~shards:1 ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  ignore (Cache.find c "a");
  (* a is now most recent; b is LRU *)
  Cache.add c "d" 4;
  check_bool "b evicted" true (Cache.find c "b" = None);
  check_bool "a kept" true (Cache.find c "a" = Some 1);
  check_bool "d kept" true (Cache.find c "d" = Some 4);
  let st = Cache.stats c in
  check_int "evictions" 1 st.Cache.evictions;
  check_int "bounded" 3 st.Cache.entries

let test_cache_capacity_zero () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c "a" 1;
  check_bool "stores nothing" true (Cache.find c "a" = None)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~count:100 ~name:"cache entries <= shard-rounded capacity"
    QCheck.(pair (1 -- 20) (small_list (string_of_size Gen.(1 -- 3))))
    (fun (cap, keys) ->
      let shards = 4 in
      let c = Cache.create ~shards ~capacity:cap () in
      List.iteri (fun i k -> Cache.add c k i) keys;
      let per_shard = (cap + shards - 1) / shards in
      (Cache.stats c).Cache.entries <= min shards cap * per_shard)

(* [stats] must be a consistent snapshot — all shard locks held at
   once. The old shard-at-a-time read could observe an [add] between
   shards and return an [entries] total exceeding the capacity bound,
   or counters from different instants. Hammer the cache from writer
   threads while a reader polls, and require every snapshot to respect
   the capacity invariant and per-field monotonicity. *)
let test_cache_snapshot_consistent_under_load () =
  let shards = 4 and cap = 64 in
  let per_shard = (cap + shards - 1) / shards in
  let bound = shards * per_shard in
  let c = Cache.create ~shards ~capacity:cap () in
  let torn = Atomic.make 0 in
  let live = Atomic.make 4 in
  let writers =
    Array.init 4 (fun w ->
        Thread.create
          (fun () ->
            for i = 0 to 4999 do
              let k = Printf.sprintf "w%d-%d" w (i mod 512) in
              (match Cache.find c k with
              | Some _ -> ()
              | None -> Cache.add c k i);
              (* systhreads only preempt at blocking points: yield so
                 the snapshot reader actually interleaves *)
              if i mod 64 = 0 then Thread.yield ()
            done;
            Atomic.decr live)
          ())
  in
  let prev = ref (Cache.stats c) in
  while Atomic.get live > 0 do
    let st = Cache.stats c in
    if st.Cache.entries > bound then Atomic.incr torn;
    if
      st.Cache.hits < !prev.Cache.hits
      || st.Cache.misses < !prev.Cache.misses
      || st.Cache.evictions < !prev.Cache.evictions
    then Atomic.incr torn;
    let occ = Cache.shard_occupancy c in
    if List.fold_left ( + ) 0 occ > bound then Atomic.incr torn;
    if List.exists (fun n -> n > per_shard) occ then Atomic.incr torn;
    prev := st;
    Thread.yield ()
  done;
  Array.iter Thread.join writers;
  check_int "torn snapshots" 0 (Atomic.get torn);
  let st = Cache.stats c in
  check_bool "saw traffic" true (st.Cache.hits + st.Cache.misses > 0)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let parse_ok line =
  match Protocol.parse_line line with
  | Ok (id, _tc, req) -> (id, req)
  | Error r -> Alcotest.failf "unexpected reject of %S: %s" line r.message

let parse_reject line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "expected a reject for %S" line
  | Error r -> r

let test_protocol_parse () =
  (match parse_ok "{\"op\":\"intra\",\"id\":7,\"m\":8,\"k\":9,\"l\":10}" with
  | Json.Int 7, Protocol.Call (Protocol.Intra { op; buffer; mode }) ->
    check_int "m" 8 op.Fusecu_tensor.Matmul.m;
    check_int "k" 9 op.Fusecu_tensor.Matmul.k;
    check_int "l" 10 op.Fusecu_tensor.Matmul.l;
    check_int "default buffer" (512 * 1024) buffer.Fusecu_loopnest.Buffer.bytes;
    check_bool "default mode" true (mode = Fusecu_core.Mode.Divisors)
  | _ -> Alcotest.fail "bad intra parse");
  (match parse_ok "{\"op\":\"chain\",\"m\":4,\"ks\":[5,6,7],\"buffer\":\"1KB\"}" with
  | Json.Null, Protocol.Call (Protocol.Chain { m; ks; buffer; _ }) ->
    check_int "m" 4 m;
    Alcotest.(check (list int)) "ks" [ 5; 6; 7 ] ks;
    check_int "buffer" 1024 buffer.Fusecu_loopnest.Buffer.bytes
  | _ -> Alcotest.fail "bad chain parse");
  (match parse_ok "{\"op\":\"eval\",\"model\":\"BeRt\"}" with
  | _, Protocol.Call (Protocol.Eval { model; _ }) ->
    check_str "model lowercased" "bert" model
  | _ -> Alcotest.fail "bad eval parse");
  (match parse_ok "{\"op\":\"stats\"}" with
  | _, Protocol.Stats -> ()
  | _ -> Alcotest.fail "bad stats parse")

(* Each worst-case traffic total (Cost.max_total, Nest.max_total) is
   past max_int; the last is the largest accepted cube below plus one. *)
let oversized_probes =
  [ "{\"op\":\"intra\",\"m\":4611686018427387903,\"k\":1,\"l\":1}";
    "{\"op\":\"intra\",\"m\":3000000,\"k\":3000000,\"l\":3000000}";
    "{\"op\":\"intra\",\"m\":1000000007,\"k\":1000000009,\"l\":3}";
    "{\"op\":\"fuse\",\"m\":4611686018427387903,\"k\":1,\"l\":1,\"l2\":2}";
    "{\"op\":\"chain\",\"m\":4611686018427387903,\"ks\":[2,2,2]}";
    "{\"op\":\"nest\",\"kind\":\"matmul\",\"m\":4611686018427387903,\"k\":1,\
     \"l\":1}";
    "{\"op\":\"intra\",\"m\":1154108,\"k\":1154107,\"l\":1154107}" ]

let test_protocol_rejects () =
  let code line = (parse_reject line).Protocol.code in
  check_bool "not json" true (code "nope" = Protocol.Parse_error);
  check_bool "not an object" true (code "[1]" = Protocol.Bad_request);
  check_bool "no op" true (code "{\"m\":1}" = Protocol.Bad_request);
  check_bool "unknown op" true (code "{\"op\":\"warp\"}" = Protocol.Unknown_op);
  check_bool "bad version" true
    (code "{\"op\":\"stats\",\"v\":2}" = Protocol.Unsupported_version);
  check_bool "missing dim" true
    (code "{\"op\":\"intra\",\"m\":1,\"k\":1}" = Protocol.Bad_request);
  check_bool "zero dim" true
    (code "{\"op\":\"intra\",\"m\":0,\"k\":1,\"l\":1}" = Protocol.Bad_request);
  check_bool "short chain" true
    (code "{\"op\":\"chain\",\"m\":1,\"ks\":[2]}" = Protocol.Bad_request);
  check_bool "bad buffer" true
    (code "{\"op\":\"regime\",\"m\":1,\"k\":1,\"l\":1,\"buffer\":\"lots\"}"
    = Protocol.Bad_request);
  (* the reject still echoes the request id *)
  check_bool "id echoed" true
    ((parse_reject "{\"op\":\"warp\",\"id\":\"x\"}").Protocol.id
    = Json.String "x");
  (* worst-case traffic past max_int: once a crash, a hang, or a
     wrapped-around negative answer *)
  List.iter
    (fun line -> check_bool line true (code line = Protocol.Bad_request))
    oversized_probes


let test_protocol_canonicalization () =
  let call line =
    match parse_ok line with
    | _, Protocol.Call c -> c
    | _ -> Alcotest.fail "not a call"
  in
  let key line = Protocol.cache_key (fst (Protocol.canonicalize (call line))) in
  (* M x K x L and L x K x M canonicalize to one key *)
  check_str "intra transpose"
    (key "{\"op\":\"intra\",\"m\":100,\"k\":20,\"l\":30}")
    (key "{\"op\":\"intra\",\"m\":30,\"k\":20,\"l\":100}");
  (* buffer is keyed by element capacity, not byte spelling *)
  check_str "buffer spellings"
    (key "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8,\"buffer\":\"0.5MB\"}")
    (key "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8,\"buffer\":524288}");
  check_str "element widths"
    (key
       "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8,\"buffer\":\"2MB\",\"elt_bytes\":2}")
    (key "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8,\"buffer\":\"1MB\"}");
  check_str "regime transpose"
    (key "{\"op\":\"regime\",\"m\":100,\"k\":20,\"l\":30}")
    (key "{\"op\":\"regime\",\"m\":30,\"k\":20,\"l\":100}");
  (* distinct problems stay distinct *)
  check_bool "mode distinguishes" true
    (key "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8}"
    <> key "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8,\"mode\":\"pow2\"}");
  check_bool "fuse not dimension-sorted" true
    (key "{\"op\":\"fuse\",\"m\":100,\"k\":20,\"l\":30,\"l2\":30}"
    <> key "{\"op\":\"fuse\",\"m\":30,\"k\":20,\"l\":100,\"l2\":30}")

(* An intra answer for (m,k,l) must be the mirror of the answer for
   (l,k,m): same traffic, tiles and order swapped. *)
let test_engine_symmetry () =
  let engine = Engine.create (Engine.default_config ()) in
  let get line =
    match Engine.handle_lines engine [ line ] with
    | [ resp ] -> Result.get_ok (Json.parse resp)
    | _ -> Alcotest.fail "expected one response"
  in
  let r1 =
    get "{\"op\":\"intra\",\"m\":1024,\"k\":768,\"l\":768,\"buffer\":\"512KB\"}"
  in
  let r2 =
    get "{\"op\":\"intra\",\"m\":768,\"k\":768,\"l\":1024,\"buffer\":\"512KB\"}"
  in
  let field r path =
    List.fold_left
      (fun v k -> Option.get (Json.member k v))
      (Option.get (Json.member "result" r))
      path
  in
  check_bool "same traffic" true
    (Json.equal (field r1 [ "ma" ]) (field r2 [ "ma" ]));
  check_bool "tiles mirror (m)" true
    (Json.equal (field r1 [ "tiles"; "m" ]) (field r2 [ "tiles"; "l" ]));
  check_bool "tiles mirror (l)" true
    (Json.equal (field r1 [ "tiles"; "l" ]) (field r2 [ "tiles"; "m" ]));
  check_bool "same k tile" true
    (Json.equal (field r1 [ "tiles"; "k" ]) (field r2 [ "tiles"; "k" ]));
  check_bool "same class" true
    (Json.equal (field r1 [ "class" ]) (field r2 [ "class" ]));
  (* and the symmetric repeat was a cache hit *)
  check_bool "symmetric hit" true ((Engine.cache_stats engine).Cache.hits >= 1)

(* 3 * 1154107^3 <= max_int: the largest accepted cube is answered with
   non-negative traffic, every oversized probe is a bad_request, and the
   stream keeps going after each of them. *)
let test_engine_oversized_problems () =
  let next = "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8}" in
  let largest = "{\"op\":\"intra\",\"m\":1154107,\"k\":1154107,\"l\":1154107}" in
  let out =
    Engine.handle_lines
      (Engine.create (Engine.default_config ()))
      (List.concat_map (fun p -> [ p; next ]) oversized_probes @ [ largest ])
    |> List.map (fun l -> Result.get_ok (Json.parse l))
  in
  let code r = Option.bind (Json.member "error" r) (Json.member "code") in
  let rec check = function
    | [ last ] -> (
      match Option.bind (Json.member "result" last) (Json.member "ma") with
      | Some (Json.Int ma) -> check_bool "largest accepted: traffic >= 0" true (ma >= 0)
      | _ -> Alcotest.fail "largest accepted problem not answered")
    | reject :: answer :: rest ->
      check_bool "oversized: bad_request" true
        (code reject = Some (Json.String "bad_request"));
      check_bool "next line answered" true
        (Json.member "ok" answer = Some (Json.Bool true));
      check rest
    | [] -> Alcotest.fail "no responses"
  in
  check out

(* ------------------------------------------------------------------ *)
(* Engine over the checked-in fixture                                  *)

let fixture_lines =
  lazy
    (let ic = open_in "fixtures/service_requests.ndjson" in
     let rec go acc =
       match In_channel.input_line ic with
       | Some l -> go (l :: acc)
       | None ->
         close_in ic;
         List.rev acc
     in
     go [])

let is_stats_response line =
  match Json.parse line with
  | Ok r -> Json.member "op" r = Some (Json.String "stats")
  | Error _ -> false

let replay config ?batch () =
  Engine.handle_lines (Engine.create config) ?batch (Lazy.force fixture_lines)

let golden_lines =
  lazy
    (In_channel.with_open_bin "fixtures/service_responses.golden"
       In_channel.input_lines)

let test_fixture_replay_matches_golden () =
  let out = replay (Engine.default_config ()) () in
  let golden = Lazy.force golden_lines in
  check_int "response count" (List.length golden) (List.length out);
  List.iteri
    (fun i (g, o) ->
      if g <> o then
        Alcotest.failf "golden mismatch at response %d:\n  golden: %s\n  got:    %s"
          (i + 1) g o)
    (List.combine golden out)

let test_fixture_cache_on_off_identical () =
  let base = Engine.default_config () in
  let on = replay { base with cache_enabled = true } () in
  let off = replay { base with cache_enabled = false; cache_entries = 0 } () in
  let strip = List.filter (fun l -> not (is_stats_response l)) in
  check_bool "cache on/off bit-identical (stats aside)" true (strip on = strip off)

let test_fixture_domains_and_batch_invariant () =
  let base = Engine.default_config () in
  let seq = replay { base with pool = Some Fusecu_util.Pool.sequential } () in
  let pool = Fusecu_util.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Fusecu_util.Pool.shutdown pool)
    (fun () ->
      let par = replay { base with pool = Some pool } () in
      check_bool "1 vs 3 domains identical" true (seq = par);
      (* batch size moves batch boundaries (and so the hit/coalesced
         split in stats) but must not change any planning response *)
      let strip = List.filter (fun l -> not (is_stats_response l)) in
      let b1 = replay { base with pool = Some pool } ~batch:1 () in
      let b7 = replay { base with pool = Some pool } ~batch:7 () in
      check_bool "batch 1 vs 7 identical" true (strip b1 = strip b7);
      check_bool "batch vs default identical" true (strip b1 = strip seq))

let test_fixture_hit_rate_positive () =
  let engine = Engine.create (Engine.default_config ()) in
  ignore (Engine.handle_lines engine (Lazy.force fixture_lines));
  let st = Engine.cache_stats engine in
  check_bool "hits > 0" true (st.Cache.hits > 0);
  check_bool "hit rate > 0" true (Cache.hit_rate st > 0.)

(* Full-string FNV-1a must spread keys that differ only in their tails:
   [Hashtbl.hash]'s bounded traversal piled every such key onto one
   shard. The long shared prefix below models canonical cache keys,
   which open identically ("intra|m=..."). *)
let test_cache_shard_balance () =
  let shards = 8 and n = 1000 in
  let c = Cache.create ~shards ~capacity:(4 * n) () in
  let prefix = String.make 200 'p' in
  for i = 1 to n do
    Cache.add c (Printf.sprintf "%s|tail=%d" prefix i) i
  done;
  let occ = Cache.shard_occupancy c in
  check_int "all stored" n (List.fold_left ( + ) 0 occ);
  let expect = n / shards in
  List.iteri
    (fun i k ->
      if k < expect / 2 || k > expect * 2 then
        Alcotest.failf "shard %d holds %d of %d keys (expected ~%d)" i k n
          expect)
    occ;
  (* and the engine replaying the fixture must leave no shard empty:
     the canonical keys there share op/dimension prefixes too *)
  let engine = Engine.create (Engine.default_config ()) in
  ignore (Engine.handle_lines engine (Lazy.force fixture_lines));
  let occ =
    match Json.member "cache" (Engine.stats_result engine) with
    | Some cache -> (
      match Json.member "shard_entries" cache with
      | Some (Json.List ns) ->
        List.map (function Json.Int n -> n | _ -> -1) ns
      | _ -> Alcotest.fail "stats_result lacks shard_entries")
    | None -> Alcotest.fail "stats_result lacks cache"
  in
  check_bool "fixture leaves no shard empty" true
    (List.for_all (fun k -> k > 0) occ)

(* No search beats a served answer: for every intra/fuse/chain line of
   the fixture, a seeded exact search over each operator and each fused
   pair of the served plan must not find lower traffic than that plan.
   This reaches the fixture's paper-sized shapes, which the oracle's
   small dimensions do not. Exact and Divisors requests are searched on
   the divisor lattice (the full integer lattice is intractable at these
   sizes), Pow2 requests on their own lattice. A whole-chain
   [Full_fusion] plan has no per-operator search to run. *)
let test_no_search_beats_served () =
  let open Fusecu_core in
  let module Bnb = Fusecu_dse.Bnb in
  let engine = Engine.create (Engine.default_config ()) in
  let lattice = function
    | Mode.Exact | Mode.Divisors -> Fusecu_dse.Space.Divisors
    | Mode.Pow2 -> Fusecu_dse.Space.Pow2
  in
  let searched_ops = ref [] in
  let no_better line op served searched =
    searched_ops := op :: !searched_ops;
    match searched with
    | Some s when s < served ->
      Alcotest.failf "%s: search found %d below served %d" line s served
    | _ -> ()
  in
  let solo line op mode buffer (p : Intra.plan) =
    no_better line op (Intra.ma p)
      (Option.map
         (fun (r : Fusecu_dse.Exhaustive.result) ->
           r.Fusecu_dse.Exhaustive.cost.Fusecu_loopnest.Cost.total)
         (Bnb.search ~lattice:(lattice mode) ~seed:p.Intra.schedule p.Intra.op
            buffer))
  in
  let fused line op mode buffer pair f traffic =
    no_better line op traffic
      (Option.map
         (fun (r : Fusecu_dse.Fused_search.result) -> r.Fusecu_dse.Fused_search.traffic)
         (Bnb.search_fused ~lattice:(lattice mode) ~seed:f pair buffer))
  in
  let served_is_plan line served traffic =
    check_int (line ^ " served = plan") served traffic
  in
  List.iter
    (fun line ->
      match Protocol.parse_line line with
      | Ok (_, _, Protocol.Call call) -> (
        let call, _ = Protocol.canonicalize call in
        match (call, Engine.compute engine call) with
        | Protocol.Intra { op; buffer; mode }, Ok (Protocol.R_intra r) ->
          let p = Intra.optimize_exn ~mode op buffer in
          served_is_plan line r.Protocol.ma (Intra.ma p);
          solo line "intra" mode buffer p
        | Protocol.Fuse { op; l2; buffer; mode }, Ok (Protocol.R_fuse r) -> (
          let op2 =
            Fusecu_tensor.Matmul.make ~name:"consumer" ~m:op.Fusecu_tensor.Matmul.m
              ~k:op.Fusecu_tensor.Matmul.l ~l:l2 ()
          in
          let pair = Fusecu_loopnest.Fused.make_pair_exn op op2 in
          match (Fusion.plan_pair ~mode pair buffer, r) with
          | ( Ok (Fusion.Fuse { fused = f; traffic; _ }),
              Protocol.Fused { traffic = served; _ } ) ->
            served_is_plan line served traffic;
            fused line "fuse" mode buffer pair f traffic
          | ( Ok (Fusion.No_fuse { plan1; plan2; traffic; _ }),
              Protocol.Not_fused { traffic = served; _ } ) ->
            served_is_plan line served traffic;
            solo line "fuse" mode buffer plan1;
            solo line "fuse" mode buffer plan2
          | _ -> Alcotest.failf "%s: served decision is not the plan's" line)
        | Protocol.Chain { m; ks; buffer; mode }, Ok (Protocol.R_chain r) -> (
          let chain = Fusecu_tensor.Chain.of_dims ~name:"chain" ~m ks in
          match (Multi_fusion.plan ~mode chain buffer, r) with
          | ( Ok (Multi_fusion.Full_fusion { traffic; _ }),
              Protocol.Full_fusion { traffic = served; _ } ) ->
            served_is_plan line served traffic
          | Ok (Multi_fusion.Fallback plan), Protocol.Pairwise { traffic = served; _ } ->
            served_is_plan line served plan.Planner.traffic;
            List.iter
              (function
                | Planner.Solo p -> solo line "chain" mode buffer p
                | Planner.Fused_pair { pair; fused = f; traffic; _ } ->
                  fused line "chain" mode buffer pair f traffic)
              plan.Planner.segments
          | _ -> Alcotest.failf "%s: served decision is not the plan's" line)
        | _ -> ())
      | _ -> ())
    (Lazy.force fixture_lines);
  List.iter
    (fun op -> check_bool (op ^ " lines searched") true (List.mem op !searched_ops))
    [ "intra"; "fuse"; "chain" ]

let test_shutdown_stops_processing () =
  let engine = Engine.create (Engine.default_config ()) in
  let out =
    Engine.handle_lines engine
      [ "{\"op\":\"regime\",\"m\":8,\"k\":8,\"l\":8}";
        "{\"op\":\"shutdown\",\"id\":\"bye\"}";
        "{\"op\":\"regime\",\"m\":9,\"k\":9,\"l\":9}" ]
  in
  check_int "stops after shutdown" 2 (List.length out);
  check_bool "shutdown acked" true
    (match Json.parse (List.nth out 1) with
    | Ok r -> Json.member "op" r = Some (Json.String "shutdown")
    | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Socket server: fault-injection harness                              *)

(* Everything here drives the real [Server.serve_socket] accept loop
   over a Unix-domain socket in a temp directory: concurrent clients,
   mid-batch disconnects, half-closed peers, garbage and over-long
   lines, a slow-loris sender, signal-triggered drain. *)

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fusecu_test_%d_%d.sock" (Unix.getpid ()) !counter)

let quick_config =
  { Server.max_conns = 8; idle_timeout = 5.; max_line = 64 * 1024 }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Read until the server closes the connection; split into lines. *)
let recv_lines fd =
  let buf = Buffer.create 1024 in
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
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

(* One well-behaved exchange: send every line, half-close the write
   side (the server sees EOF and flushes), read responses until the
   server closes. *)
let exchange path lines =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd (String.concat "\n" lines ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_lines fd)

let start_server ?(config = quick_config) ?batch engine path =
  let th =
    Thread.create
      (fun () -> Server.serve_socket engine ?batch ~config ~path ())
      ()
  in
  let rec wait n =
    if n = 0 then Alcotest.fail "server socket did not appear"
    else
      match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> ()
      | _ -> Alcotest.fail "server path is not a socket"
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        Thread.delay 0.02;
        wait (n - 1)
  in
  wait 250;
  th

let with_server ?config ?batch f =
  let engine = Engine.create (Engine.default_config ()) in
  let path = sock_path () in
  let th = start_server ?config ?batch engine path in
  Fun.protect
    ~finally:(fun () ->
      (* Idempotent stop: the test body may already have shut the
         server down, in which case connect just fails. *)
      (try ignore (exchange path [ "{\"op\":\"shutdown\"}" ])
       with Unix.Unix_error _ -> ());
      Thread.join th;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f ~engine ~path)

(* A deterministic request mix (no [stats] — its counters legitimately
   depend on scheduling once several clients share the engine). *)
let fault_requests =
  [ "{\"op\":\"intra\",\"id\":1,\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}";
    "{\"op\":\"regime\",\"id\":2,\"m\":48,\"k\":64,\"l\":96}";
    "{\"op\":\"intra\",\"id\":3,\"m\":48,\"k\":64,\"l\":96,\"buffer\":\"8KB\"}";
    "{\"op\":\"fuse\",\"id\":4,\"m\":32,\"k\":32,\"l\":32,\"l2\":16,\"buffer\":\"16KB\"}";
    "{\"op\":\"chain\",\"id\":5,\"m\":16,\"ks\":[24,32,16],\"buffer\":\"16KB\"}";
    "{\"op\":\"intra\",\"id\":6,\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}";
    "{\"op\":\"nonsense\",\"id\":7}";
    "{\"op\":\"regime\",\"id\":8,\"m\":96,\"k\":64,\"l\":48}" ]

(* What a sequential, fresh engine answers — responses carry no cache or
   concurrency state, so this is the golden transcript for EVERY client
   regardless of interleaving (DESIGN.md §5). *)
let fault_golden () =
  Engine.handle_lines (Engine.create (Engine.default_config ())) fault_requests

let test_server_concurrent_clients_deterministic () =
  let golden = fault_golden () in
  (* max_conns below the client count exercises accept backpressure *)
  with_server
    ~config:{ quick_config with Server.max_conns = 2 }
    (fun ~engine:_ ~path ->
      let n = 4 in
      let results = Array.make n [] in
      let clients =
        List.init n (fun i ->
            Thread.create
              (fun () -> results.(i) <- exchange path fault_requests)
              ())
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i lines ->
          check_int (Printf.sprintf "client %d response count" i)
            (List.length golden) (List.length lines);
          List.iteri
            (fun j (g, o) ->
              if g <> o then
                Alcotest.failf "client %d response %d differs:\n  %s\n  %s" i j
                  g o)
            (List.combine golden lines))
        results)

let test_server_half_closed_client () =
  with_server (fun ~engine:_ ~path ->
      (* [exchange] half-closes the write side before reading anything:
         the server must treat that as end-of-requests, not as a dead
         client, and still deliver every response. *)
      let lines = exchange path fault_requests in
      check_int "all responses arrive" (List.length fault_requests)
        (List.length lines))

let test_server_mid_batch_disconnect () =
  with_server (fun ~engine ~path ->
      let fd = connect path in
      send_all fd
        (String.concat "\n"
           [ "{\"op\":\"intra\",\"m\":64,\"k\":64,\"l\":64,\"buffer\":\"8KB\"}";
             "{\"op\":\"regime\",\"m\":64,\"k\":64,\"l\":64}" ]
        ^ "\n");
      (* vanish without reading a byte *)
      Unix.close fd;
      (* the daemon must shrug it off and serve the next client *)
      let lines = exchange path fault_requests in
      check_int "next client served" (List.length fault_requests)
        (List.length lines);
      check_bool "both connections counted" true
        (Metrics.get (Engine.metrics engine) "conns_accepted" >= 2))

let test_server_garbage_line () =
  with_server (fun ~engine:_ ~path ->
      let lines =
        exchange path
          [ "this is not json";
            "{\"op\":\"regime\",\"id\":\"ok\",\"m\":8,\"k\":8,\"l\":8}" ]
      in
      check_int "two responses" 2 (List.length lines);
      (match Json.parse (List.nth lines 0) with
      | Ok r ->
        check_bool "garbage rejected" true
          (Json.member "ok" r = Some (Json.Bool false))
      | Error e -> Alcotest.failf "reject line is not json: %s" e);
      match Json.parse (List.nth lines 1) with
      | Ok r ->
        check_bool "valid request still served" true
          (Json.member "ok" r = Some (Json.Bool true))
      | Error e -> Alcotest.failf "response is not json: %s" e)

let test_server_oversized_line () =
  with_server
    ~config:{ quick_config with Server.max_line = 512 }
    (fun ~engine ~path ->
      (* a valid request, then a line that blows the bound: the valid
         request's response is drained first, then the reject lands and
         the connection is closed *)
      let huge = String.make 2048 'x' in
      let lines =
        exchange path
          [ "{\"op\":\"regime\",\"id\":\"ok\",\"m\":8,\"k\":8,\"l\":8}"; huge ]
      in
      check_int "response then reject" 2 (List.length lines);
      (match Json.parse (List.nth lines 1) with
      | Ok r ->
        check_bool "reject is an error" true
          (Json.member "ok" r = Some (Json.Bool false))
      | Error e -> Alcotest.failf "reject line is not json: %s" e);
      check_bool "oversize recorded" true
        (Metrics.get (Engine.metrics engine) "conn_oversized_lines" >= 1))

let test_server_slow_loris () =
  with_server
    ~config:{ quick_config with Server.idle_timeout = 0.4 }
    (fun ~engine ~path ->
      (* the stalled client sends an incomplete line and then nothing *)
      let loris = connect path in
      send_all loris "{\"op\":\"intra\",";
      (* a concurrent fast client must be served while the loris stalls *)
      let t0 = Unix.gettimeofday () in
      let lines = exchange path fault_requests in
      let fast_elapsed = Unix.gettimeofday () -. t0 in
      check_int "fast client fully served" (List.length fault_requests)
        (List.length lines);
      check_bool "fast client not delayed behind the stalled one" true
        (fast_elapsed < 5.);
      (* the loris is evicted by the idle timeout: its connection reaches
         EOF without us ever completing a request line *)
      let leftovers = recv_lines loris in
      Alcotest.(check (list string)) "loris got nothing" [] leftovers;
      Unix.close loris;
      check_bool "idle timeout recorded" true
        (Metrics.get (Engine.metrics engine) "conn_idle_timeouts" >= 1))

let test_server_sigterm_drains () =
  let requests =
    [ "{\"op\":\"intra\",\"id\":1,\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}";
      "{\"op\":\"regime\",\"id\":2,\"m\":48,\"k\":64,\"l\":96}";
      "{\"op\":\"chain\",\"id\":3,\"m\":16,\"ks\":[24,32,16],\"buffer\":\"16KB\"}" ]
  in
  let golden =
    Engine.handle_lines (Engine.create (Engine.default_config ())) requests
  in
  let engine = Engine.create (Engine.default_config ()) in
  let path = sock_path () in
  let th = start_server engine path in
  let fd = connect path in
  (* requests are in flight (batch 64 means nothing flushed yet) when
     the signal lands *)
  send_all fd (String.concat "\n" requests ^ "\n");
  Thread.delay 0.15;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let lines = recv_lines fd in
  Unix.close fd;
  Thread.join th;
  Alcotest.(check (list string)) "in-flight requests drained" golden lines;
  check_bool "socket file removed" true (not (Sys.file_exists path))

let test_server_inband_shutdown_unlinks () =
  let engine = Engine.create (Engine.default_config ()) in
  let path = sock_path () in
  let th = start_server engine path in
  let lines =
    exchange path
      [ "{\"op\":\"regime\",\"id\":1,\"m\":8,\"k\":8,\"l\":8}";
        "{\"op\":\"shutdown\",\"id\":\"bye\"}" ]
  in
  Thread.join th;
  check_int "response + shutdown ack" 2 (List.length lines);
  check_bool "socket file removed" true (not (Sys.file_exists path));
  check_bool "no longer accepting" true
    (match connect path with
    | fd ->
      Unix.close fd;
      false
    | exception Unix.Unix_error _ -> true)

let test_server_rejects_non_socket_path () =
  let path = Filename.temp_file "fusecu_not_a_socket" ".txt" in
  let engine = Engine.create (Engine.default_config ()) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Server.serve_socket engine ~path () with
      | () -> Alcotest.fail "serve_socket accepted a regular file"
      | exception Failure msg ->
        let contains sub =
          let n = String.length sub and m = String.length msg in
          let rec find i =
            i + n <= m && (String.sub msg i n = sub || find (i + 1))
          in
          find 0
        in
        check_bool "message names the problem" true (contains "not a socket");
        check_bool "file left in place" true (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics () =
  let m = Metrics.create () in
  check_int "zero" 0 (Metrics.get m "x");
  Metrics.incr m "x";
  Metrics.incr ~by:3 m "x";
  check_int "accumulates" 4 (Metrics.get m "x");
  Metrics.incr ~by:0 m "x";
  check_int "by 0 is a no-op" 4 (Metrics.get m "x");
  Metrics.incr m "a";
  Alcotest.(check (list (pair string int)))
    "counters sorted"
    [ ("a", 1); ("x", 4) ]
    (Metrics.counters m);
  check_str "counters_json deterministic" "{\"a\":1,\"x\":4}"
    (Json.print (Metrics.counters_json m));
  Metrics.observe m "lat" 0.001;
  Metrics.observe m "lat" 0.002;
  (* the full dump parses and carries the histogram *)
  match Json.parse (Json.print (Metrics.to_json m)) with
  | Ok j -> check_bool "dump has latencies" true (Json.member "latency" j <> None)
  | Error e -> Alcotest.failf "metrics dump does not round-trip: %s" e

let histogram_buckets m name =
  match Json.member "latency" (Metrics.to_json m) with
  | Some lat -> (
    match Json.member name lat with
    | Some h -> (
      match Json.member "buckets" h with
      | Some (Json.List bs) -> bs
      | _ -> Alcotest.fail "histogram has no bucket list")
    | None -> Alcotest.failf "histogram %s missing" name)
  | None -> Alcotest.fail "latency section missing"

(* Bucket boundaries: bin i covers [2^i, 2^(i+1)) µs. An observation of
   exactly 1 µs must land in the first bin (le_us = 2), sub-µs values
   clamp into it too, and anything past 2^29 µs goes to the open
   overflow bin (le_us = null). *)
let test_histogram_bucket_boundaries () =
  let m = Metrics.create () in
  Metrics.observe m "lat" 1e-6;
  (match histogram_buckets m "lat" with
  | [ Json.Obj [ ("le_us", Json.Int 2); ("n", Json.Int 1) ] ] -> ()
  | bs -> Alcotest.failf "1us bucket wrong: %s" (Json.print (Json.List bs)));
  Metrics.observe m "lat" 1e-9;
  Metrics.observe m "lat" 0.;
  (match histogram_buckets m "lat" with
  | [ Json.Obj [ ("le_us", Json.Int 2); ("n", Json.Int 3) ] ] -> ()
  | bs -> Alcotest.failf "sub-us clamp wrong: %s" (Json.print (Json.List bs)));
  (* 2^29 µs ≈ 537 s: already the open bucket; so is an hour *)
  Metrics.observe m "lat" 537.;
  Metrics.observe m "lat" 3600.;
  (match histogram_buckets m "lat" with
  | [ Json.Obj [ ("le_us", Json.Int 2); _ ];
      Json.Obj [ ("le_us", Json.Null); ("n", Json.Int 2) ] ] -> ()
  | bs -> Alcotest.failf "overflow bucket wrong: %s" (Json.print (Json.List bs)));
  (* 2 µs is the *closed* upper bound of bin 0: it belongs to bin 1 *)
  Metrics.observe m "edge" 2e-6;
  match histogram_buckets m "edge" with
  | [ Json.Obj [ ("le_us", Json.Int 4); ("n", Json.Int 1) ] ] -> ()
  | bs -> Alcotest.failf "2us boundary wrong: %s" (Json.print (Json.List bs))

let test_gauges () =
  let m = Metrics.create () in
  Alcotest.(check (list (pair string (float 0.)))) "empty" [] (Metrics.gauges m);
  (* gauge-free dumps must not grow a gauges key (golden stability) *)
  check_bool "no gauges key when unset" true
    (Json.member "gauges" (Metrics.to_json m) = None);
  Metrics.set_gauge m "b" 2.;
  Metrics.set_gauge m "a" 1.5;
  Metrics.set_gauge m "b" 3.;
  Alcotest.(check (list (pair string (float 0.))))
    "sorted, last write wins"
    [ ("a", 1.5); ("b", 3.) ]
    (Metrics.gauges m);
  check_bool "gauges in dump" true
    (Json.member "gauges" (Metrics.to_json m)
    = Some (Json.Obj [ ("a", Json.Float 1.5); ("b", Json.Float 3.) ]))

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.incr ~by:4 m "requests";
  Metrics.set_gauge m "cache_entries" 7.;
  Metrics.observe m "lat" 1e-6;
  Metrics.observe m "lat" 3e-6;
  Metrics.observe m "lat" 3600.;
  let text = Metrics.to_prometheus m in
  let expected =
    String.concat "\n"
      [ "# TYPE fusecu_requests counter";
        "fusecu_requests 4";
        "# TYPE fusecu_cache_entries gauge";
        "fusecu_cache_entries 7";
        "# TYPE fusecu_lat_seconds histogram";
        "fusecu_lat_seconds_bucket{le=\"2e-06\"} 1";
        "fusecu_lat_seconds_bucket{le=\"4e-06\"} 2";
        "fusecu_lat_seconds_bucket{le=\"+Inf\"} 3";
        "fusecu_lat_seconds_sum 3600.000004";
        "fusecu_lat_seconds_count 3";
        "" ]
  in
  check_str "exposition text" expected text;
  (* custom prefix + name sanitization *)
  let m2 = Metrics.create () in
  Metrics.incr m2 "weird-name!";
  check_str "sanitized"
    "# TYPE svc_weird_name_ counter\nsvc_weird_name_ 1\n"
    (Metrics.to_prometheus ~prefix:"svc_" m2)

(* ------------------------------------------------------------------ *)
(* Observability through the engine                                    *)

let test_stats_observability_fields () =
  let engine = Engine.create (Engine.default_config ()) in
  let out =
    Engine.handle_lines engine
      [ "{\"op\":\"regime\",\"m\":8,\"k\":8,\"l\":8}";
        "{\"op\":\"intra\",\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}";
        "not json";
        "{\"op\":\"stats\"}" ]
  in
  let stats = Result.get_ok (Json.parse (List.nth out 3)) in
  let result = Option.get (Json.member "result" stats) in
  (* one logical tick per request line, including the reject *)
  check_bool "uptime_ticks counts lines" true
    (Json.member "uptime_ticks" result = Some (Json.Int 4));
  let cache = Option.get (Json.member "cache" result) in
  let entries =
    match Json.member "entries" cache with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.fail "entries missing"
  in
  match Json.member "shard_entries" cache with
  | Some (Json.List shards) ->
    check_bool "one count per shard" true (List.length shards > 0);
    check_int "shard occupancy sums to entries" entries
      (List.fold_left
         (fun acc j ->
           match j with
           | Json.Int n -> acc + n
           | _ -> Alcotest.fail "non-int shard count")
         0 shards)
  | _ -> Alcotest.fail "shard_entries missing"

let test_metrics_op () =
  let engine = Engine.create (Engine.default_config ()) in
  let out =
    Engine.handle_lines engine
      [ "{\"op\":\"intra\",\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}";
        "{\"op\":\"metrics\",\"id\":\"m1\"}" ]
  in
  check_int "both answered" 2 (List.length out);
  let resp = Result.get_ok (Json.parse (List.nth out 1)) in
  check_bool "op echoed" true
    (Json.member "op" resp = Some (Json.String "metrics"));
  check_bool "id echoed" true
    (Json.member "id" resp = Some (Json.String "m1"));
  let result = Option.get (Json.member "result" resp) in
  check_bool "counters present" true (Json.member "counters" result <> None);
  check_bool "latency present" true (Json.member "latency" result <> None);
  (match Json.member "gauges" result with
  | Some g ->
    check_bool "uptime gauge" true (Json.member "uptime_ticks" g <> None);
    check_bool "cache gauge" true (Json.member "cache_entries" g <> None)
  | None -> Alcotest.fail "gauges missing from metrics op");
  (* unknown-op guidance now lists the metrics op *)
  let err =
    List.hd (Engine.handle_lines engine [ "{\"op\":\"nonsense\"}" ])
  in
  check_bool "unknown-op message lists metrics" true
    (match Json.parse err with
    | Ok r -> (
      match
        Option.bind (Json.member "error" r) (Json.member "message")
      with
      | Some (Json.String e) ->
        let contains sub s =
          let n = String.length sub and m = String.length s in
          let rec find i = i + n <= m && (String.sub s i n = sub || find (i + 1)) in
          find 0
        in
        contains "metrics" e
      | _ -> false)
    | Error _ -> false)

(* The acceptance criterion for the observability layer: turning on
   tracing AND debug logging must not change a single response byte. *)
let test_replay_identical_under_tracing_and_logging () =
  let plain = replay (Engine.default_config ()) () in
  let captured = ref 0 in
  Fusecu_util.Log.set_sink (fun _ -> incr captured);
  Fusecu_util.Log.set_level (Some Fusecu_util.Log.Debug);
  Fusecu_util.Trace.start ();
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Fusecu_util.Trace.stop ();
        Fusecu_util.Trace.clear ();
        Fusecu_util.Log.set_level None)
      (fun () -> replay (Engine.default_config ()) ())
  in
  check_bool "responses byte-identical" true (plain = traced);
  check_bool "yet logging was live" true (!captured > 0)

let test_metrics_exporter () =
  let engine = Engine.create (Engine.default_config ()) in
  ignore
    (Engine.handle_lines engine
       [ "{\"op\":\"intra\",\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}" ]);
  let exp =
    Server.start_metrics_exporter
      ~render:(fun () -> Engine.prometheus engine)
      ~addr:"127.0.0.1:0"
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop_metrics_exporter exp;
      (* stopping twice must be harmless *)
      Server.stop_metrics_exporter exp)
    (fun () ->
      let port = Server.exporter_port exp in
      check_bool "bound an ephemeral port" true (port > 0);
      let scrape () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
            recv_lines fd)
      in
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec find i = i + n <= m && (String.sub s i n = sub || find (i + 1)) in
        find 0
      in
      let body = String.concat "\n" (scrape ()) in
      check_bool "counter exposed" true
        (contains "# TYPE fusecu_requests counter" body);
      check_bool "histogram exposed" true
        (contains "fusecu_latency_intra_seconds_count 1" body);
      check_bool "gauges refreshed per scrape" true
        (contains "# TYPE fusecu_uptime_ticks gauge" body);
      (* a second scrape works: one connection = one exposition *)
      let body2 = String.concat "\n" (scrape ()) in
      check_bool "second scrape served" true
        (contains "fusecu_requests" body2))

let test_exporter_rejects_bad_addr () =
  List.iter
    (fun addr ->
      match
        Server.start_metrics_exporter ~render:(fun () -> "") ~addr
      with
      | exception Invalid_argument _ -> ()
      | exp ->
        Server.stop_metrics_exporter exp;
        Alcotest.failf "accepted %S" addr)
    [ ""; "127.0.0.1:"; "127.0.0.1:notaport"; "127.0.0.1:70000"; ":-1" ]

(* ------------------------------------------------------------------ *)
(* plan_model                                                          *)

let test_plan_model_parse () =
  (match parse_ok "{\"op\":\"plan_model\",\"model\":\"BeRt\",\"layers\":2}" with
  | _, Protocol.Call (Protocol.Plan_model { model; layers; buffer; _ }) ->
    check_str "model lowercased" "bert" model;
    check_int "layers" 2 layers;
    check_int "default buffer" (512 * 1024) buffer.Fusecu_loopnest.Buffer.bytes
  | _ -> Alcotest.fail "bad plan_model parse");
  (match parse_ok "{\"op\":\"plan_model\",\"model\":\"bert\"}" with
  | _, Protocol.Call (Protocol.Plan_model { layers; _ }) ->
    check_int "layers defaults to 1" 1 layers
  | _ -> Alcotest.fail "bad plan_model parse");
  let code line = (parse_reject line).Protocol.code in
  check_bool "missing model" true
    (code "{\"op\":\"plan_model\"}" = Protocol.Bad_request);
  check_bool "zero layers" true
    (code "{\"op\":\"plan_model\",\"model\":\"bert\",\"layers\":0}"
    = Protocol.Bad_request);
  check_bool "oversized layers" true
    (code "{\"op\":\"plan_model\",\"model\":\"bert\",\"layers\":65}"
    = Protocol.Bad_request)

let plan_model_line = "{\"op\":\"plan_model\",\"id\":1,\"model\":\"bert\"}"

(* Repeating a plan_model re-prices every fusion group through the plan
   cache: the second run must add no misses (every group eval hits) and
   return byte-identical responses. *)
let test_plan_model_cache_reuse () =
  let engine = Engine.create (Engine.default_config ()) in
  let first = Engine.handle_lines engine [ plan_model_line ] in
  let st1 = Engine.cache_stats engine in
  check_bool "first run misses" true (st1.Cache.misses > 0);
  let second = Engine.handle_lines engine [ plan_model_line ] in
  let st2 = Engine.cache_stats engine in
  check_bool "responses identical" true (first = second);
  check_int "repeat adds no misses" st1.Cache.misses st2.Cache.misses;
  check_bool "repeat is all hits" true (st2.Cache.hits > st1.Cache.hits)

(* The groups are cached under ordinary intra/chain keys, so a later
   point request for one of the solo operators is already warm. *)
let test_plan_model_seeds_point_requests () =
  let engine = Engine.create (Engine.default_config ()) in
  ignore (Engine.handle_lines engine [ plan_model_line ]);
  let st1 = Engine.cache_stats engine in
  ignore
    (Engine.handle_lines engine
       [ "{\"op\":\"intra\",\"id\":2,\"m\":16384,\"k\":768,\"l\":768}" ]);
  let st2 = Engine.cache_stats engine in
  check_int "wq already cached" st1.Cache.misses st2.Cache.misses;
  check_bool "hit" true (st2.Cache.hits > st1.Cache.hits)

let test_plan_model_counters () =
  let engine = Engine.create (Engine.default_config ()) in
  ignore (Engine.handle_lines engine [ plan_model_line ]);
  check_int "requests_plan_model" 1
    (Metrics.get (Engine.metrics engine) "requests_plan_model")

let test_plan_model_unknown_model () =
  let out =
    Engine.handle_lines
      (Engine.create (Engine.default_config ()))
      [ "{\"op\":\"plan_model\",\"id\":1,\"model\":\"resnet\"}" ]
  in
  match out with
  | [ line ] -> (
    match Json.parse line with
    | Ok r ->
      check_bool "error response" true (Json.member "ok" r = Some (Json.Bool false))
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected one response"

(* ------------------------------------------------------------------ *)
(* nest                                                                *)

let test_nest_parse () =
  (match
     parse_ok "{\"op\":\"nest\",\"kind\":\"MatMul\",\"m\":4,\"k\":5,\"l\":6}"
   with
  | _, Protocol.Call (Protocol.Nest { kind = Protocol.N_matmul { m; k; l }; _ })
    ->
    check_int "m" 4 m;
    check_int "k" 5 k;
    check_int "l" 6 l
  | _ -> Alcotest.fail "bad nest matmul parse");
  (match
     parse_ok
       "{\"op\":\"nest\",\"kind\":\"conv2d\",\"n\":1,\"c\":2,\"h\":6,\"w\":6,\
        \"k\":3,\"r\":3,\"s\":3}"
   with
  | _, Protocol.Call (Protocol.Nest { kind = Protocol.N_conv2d cv; _ }) ->
    check_int "stride defaults to 1" 1 cv.Fusecu_tensor.Conv.stride;
    check_int "padding defaults to 0" 0 cv.Fusecu_tensor.Conv.padding;
    check_int "dilation defaults to 1" 1 cv.Fusecu_tensor.Conv.dilation
  | _ -> Alcotest.fail "bad nest conv2d parse");
  (match
     parse_ok
       "{\"op\":\"nest\",\"kind\":\"attention\",\"seq_q\":8,\"seq_k\":8,\"d\":4}"
   with
  | _, Protocol.Call (Protocol.Nest { kind = Protocol.N_attention { d; dv; _ }; _ })
    ->
    check_int "dv defaults to d" d dv
  | _ -> Alcotest.fail "bad nest attention parse");
  let code line = (parse_reject line).Protocol.code in
  check_bool "missing kind" true
    (code "{\"op\":\"nest\",\"m\":4,\"k\":4,\"l\":4}" = Protocol.Bad_request);
  check_bool "unknown kind" true
    (code "{\"op\":\"nest\",\"kind\":\"warp\",\"m\":4}" = Protocol.Bad_request);
  check_bool "invalid conv rejected at parse" true
    (code
       "{\"op\":\"nest\",\"kind\":\"conv2d\",\"n\":1,\"c\":1,\"h\":3,\"w\":3,\
        \"k\":1,\"r\":5,\"s\":5}"
    = Protocol.Bad_request);
  check_bool "missing dims" true
    (code "{\"op\":\"nest\",\"kind\":\"batched_mm\",\"b\":2}"
    = Protocol.Bad_request)

(* The service's nest matmul answer must carry exactly the legacy
   exhaustive optimum (the nest mapper's MM-instance conformance,
   end to end through the wire). *)
let test_nest_matmul_matches_legacy () =
  let out =
    Engine.handle_lines
      (Engine.create (Engine.default_config ()))
      [ "{\"op\":\"nest\",\"id\":1,\"kind\":\"matmul\",\"m\":12,\"k\":8,\
         \"l\":10,\"buffer\":64}" ]
  in
  let legacy =
    match
      Fusecu_dse.Exhaustive.search ~pool:Fusecu_util.Pool.sequential
        (Fusecu_tensor.Matmul.make ~m:12 ~k:8 ~l:10 ())
        (Fusecu_loopnest.Buffer.make 64)
    with
    | Some r -> r
    | None -> Alcotest.fail "legacy search infeasible"
  in
  match out with
  | [ line ] -> (
    match Json.parse line with
    | Error e -> Alcotest.fail e
    | Ok r ->
      let result = Option.get (Json.member "result" r) in
      check_bool "ok" true (Json.member "ok" r = Some (Json.Bool true));
      check_bool "traffic = legacy exhaustive" true
        (Json.member "traffic" result
        = Some
            (Json.Int legacy.Fusecu_dse.Exhaustive.cost.Fusecu_loopnest.Cost.total));
      let tiles d =
        Fusecu_loopnest.Tiling.get
          legacy.Fusecu_dse.Exhaustive.schedule.Fusecu_loopnest.Schedule.tiling d
      in
      check_bool "tiles = legacy tiles" true
        (Json.member "tiles" result
        = Some
            (Json.List
               [ Json.Int (tiles Fusecu_tensor.Dim.M);
                 Json.Int (tiles Fusecu_tensor.Dim.K);
                 Json.Int (tiles Fusecu_tensor.Dim.L) ])))
  | _ -> Alcotest.fail "expected one response"

let nest_line =
  "{\"op\":\"nest\",\"id\":9,\"kind\":\"conv2d\",\"n\":1,\"c\":2,\"h\":6,\
   \"w\":6,\"k\":3,\"r\":3,\"s\":3,\"buffer\":64}"

let test_nest_cache_reuse () =
  let engine = Engine.create (Engine.default_config ()) in
  let first = Engine.handle_lines engine [ nest_line ] in
  let st1 = Engine.cache_stats engine in
  let second = Engine.handle_lines engine [ nest_line ] in
  let st2 = Engine.cache_stats engine in
  check_bool "responses identical" true (first = second);
  check_int "repeat adds no misses" st1.Cache.misses st2.Cache.misses;
  check_bool "repeat hits" true (st2.Cache.hits > st1.Cache.hits);
  check_int "requests_nest" 2 (Metrics.get (Engine.metrics engine) "requests_nest")

let test_nest_outcome_codec () =
  let r =
    Protocol.R_nest
      { Protocol.n_axes = [ "m"; "k"; "l" ];
        n_extents = [ 12; 8; 10 ];
        n_tiles = [ 6; 8; 1 ];
        n_order = [ "m"; "l"; "k" ];
        n_traffic = 376;
        n_ideal = 296;
        n_footprint = 62;
        n_points = 960;
        n_evaluated = 44 }
  in
  match Protocol.outcome_of_json (Protocol.outcome_to_json r) with
  | Ok r' -> check_bool "store codec round-trips R_nest" true (r = r')
  | Error e -> Alcotest.fail e

let test_nest_infeasible () =
  let out =
    Engine.handle_lines
      (Engine.create (Engine.default_config ()))
      [ "{\"op\":\"nest\",\"id\":3,\"kind\":\"matmul\",\"m\":64,\"k\":64,\
         \"l\":64,\"buffer\":2}" ]
  in
  match out with
  | [ line ] -> (
    match Json.parse line with
    | Ok r -> (
      check_bool "error response" true
        (Json.member "ok" r = Some (Json.Bool false));
      match Json.member "error" r with
      | Some e ->
        check_bool "infeasible code" true
          (Json.member "code" e = Some (Json.String "infeasible"))
      | None -> Alcotest.fail "missing error object")
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected one response"

(* ------------------------------------------------------------------ *)
(* Outcome codec: the wire result and its inverse                      *)

(* Every ok planning line of the golden decodes to an outcome that
   encodes back to itself and re-serializes to the golden bytes. *)
let test_outcome_codec_inverts_golden () =
  let seen = Hashtbl.create 16 in
  List.iter2
    (fun request golden ->
      match (Protocol.parse_line request, Json.parse golden) with
      | Ok (id, _, Protocol.Call call), Ok g
        when Json.member "ok" g = Some (Json.Bool true) -> (
        let result =
          match Json.member "result" g with
          | Some (Json.Obj fields) -> fields
          | _ -> Alcotest.failf "no result object in %s" golden
        in
        let op = Json.String (Protocol.op_name call) in
        match Protocol.outcome_of_json (Json.Obj (("op", op) :: result)) with
        | Error e -> Alcotest.failf "decoding %s: %s" golden e
        | Ok o ->
          Hashtbl.replace seen
            (match o with
            | Protocol.R_fuse (Protocol.Fused _) -> "fused"
            | Protocol.R_fuse (Protocol.Not_fused _) -> "not_fused"
            | Protocol.R_chain (Protocol.Full_fusion _) -> "full_fusion"
            | Protocol.R_chain (Protocol.Pairwise { segments; _ })
              when List.exists
                     (function Protocol.Fused_seg _ -> true | _ -> false)
                     segments ->
              "pairwise_fused"
            | _ -> Protocol.op_name call)
            ();
          check_bool ("decode (encode o) = o: " ^ golden) true
            (Protocol.outcome_of_json (Protocol.outcome_to_json o) = Ok o);
          check_str "response_ok reproduces the golden line" golden
            (Protocol.response_ok ~id ~call o))
      | _ -> ())
    (Lazy.force fixture_lines) (Lazy.force golden_lines);
  List.iter
    (fun v -> check_bool ("golden covers " ^ v) true (Hashtbl.mem seen v))
    [ "intra"; "fused"; "not_fused"; "regime"; "eval"; "full_fusion";
      "pairwise_fused"; "plan_model"; "nest" ]

let test_outcome_codec_eval_error_rows () =
  let o =
    Protocol.R_eval
      [ { Protocol.platform = "tiny"; cells = Error "no feasible dataflow" };
        { Protocol.platform = "big";
          cells =
            Ok
              { Protocol.traffic = 10; traffic_bytes = 20; macs = 30; cycles = 40;
                utilization = 0.25 } } ]
  in
  check_str "error row keeps only name and error"
    "{\"op\":\"eval\",\"platforms\":[{\"name\":\"tiny\",\"error\":\"no feasible \
     dataflow\"},{\"name\":\"big\",\"traffic\":10,\"traffic_bytes\":20,\"macs\":30,\
     \"cycles\":40,\"utilization\":0.25}]}"
    (Json.print (Protocol.outcome_to_json o));
  check_bool "error rows round-trip" true
    (Protocol.outcome_of_json (Protocol.outcome_to_json o) = Ok o)

let test_outcome_codec_dataflow_labels () =
  let open Fusecu_core in
  let labels = List.map Nra.dataflow_to_string Nra.all_dataflows in
  check_int "15 dataflows" 15 (List.length Nra.all_dataflows);
  check_int "15 distinct labels" 15 (List.length (List.sort_uniq compare labels));
  List.iter
    (fun dataflow ->
      let o =
        Protocol.R_intra
          { Protocol.ma = 1; redundancy = 1.; footprint = 3; tile_m = 1;
            tile_k = 1; tile_l = 1; order = Fusecu_tensor.Dim.[ M; K; L ];
            nra = Nra.class_of dataflow; dataflow; regime = Regime.Large }
      in
      check_bool (Nra.dataflow_to_string dataflow) true
        (Protocol.outcome_of_json (Protocol.outcome_to_json o) = Ok o))
    Nra.all_dataflows;
  (* the tagged shape the store used to write is not guessed at *)
  List.iter
    (fun j ->
      check_bool (Json.print j) true (Result.is_error (Protocol.outcome_of_json j)))
    [ Json.Obj [ ("t", Json.String "regime") ];
      Json.Obj [ ("op", Json.String "warp") ];
      Json.Obj [ ("op", Json.String "fuse"); ("fuse", Json.Bool true) ] ]

(* ------------------------------------------------------------------ *)
(* Trace-context envelope: splice, strip, parse                        *)

let test_tc_envelope () =
  let plain = "{\"op\":\"stats\",\"id\":3}" in
  let stamped = Protocol.with_tc (Some "r7.12") plain in
  check_str "splice before the closing brace"
    "{\"op\":\"stats\",\"id\":3,\"tc\":\"r7.12\"}" stamped;
  check_str "strip restores the exact bytes" plain
    (Protocol.strip_tc ~tc:"r7.12" stamped);
  check_str "empty object splices without a comma" "{\"tc\":\"r1.0\"}"
    (Protocol.with_tc (Some "r1.0") "{}");
  check_str "None is the identity" plain (Protocol.with_tc None plain);
  check_str "non-object line unchanged" "nonsense"
    (Protocol.with_tc (Some "r1.0") "nonsense");
  check_str "strip without the suffix is the identity" plain
    (Protocol.strip_tc ~tc:"r9.9" plain);
  check_str "strip of a different tc is the identity" stamped
    (Protocol.strip_tc ~tc:"r7.13" stamped);
  (match Protocol.parse_line stamped with
  | Ok (Json.Int 3, Some tc, Protocol.Stats) -> check_str "tc parsed" "r7.12" tc
  | _ -> Alcotest.fail "stamped stats line did not parse");
  match Protocol.parse_line plain with
  | Ok (_, None, Protocol.Stats) -> ()
  | _ -> Alcotest.fail "unstamped line must carry no tc"

(* End-to-end propagation: a router-stamped request flows through the
   engine; the response echoes the stamp (strippable back to the plain
   bytes — the routed-golden precondition) and the engine's spans carry
   the context in their args, which is what lets a merged fleet trace
   correlate backend work with router spans. *)
let test_tc_propagation_roundtrip () =
  let plain =
    "{\"op\":\"intra\",\"id\":7,\"m\":96,\"k\":64,\"l\":48,\"buffer\":\"8KB\"}"
  in
  let stamped = Protocol.with_tc (Some "r1.5") plain in
  let run line =
    Engine.handle_lines (Engine.create (Engine.default_config ())) [ line ]
  in
  let baseline = run plain in
  Fusecu_util.Trace.start ();
  let traced, events =
    Fun.protect
      ~finally:(fun () ->
        Fusecu_util.Trace.stop ();
        Fusecu_util.Trace.clear ())
      (fun () ->
        let t = run stamped in
        (t, Fusecu_util.Trace.events ()))
  in
  (match (baseline, traced) with
  | [ b ], [ t ] ->
    check_str "stamped response = plain response + tc echo"
      (Protocol.with_tc (Some "r1.5") b) t;
    check_str "stripping the echo restores the plain bytes" b
      (Protocol.strip_tc ~tc:"r1.5" t)
  | _ -> Alcotest.fail "expected exactly one response per request");
  let carries e =
    List.exists
      (fun (k, v) -> k = "tc" && Json.equal v (Json.String "r1.5"))
      e.Fusecu_util.Trace.args
  in
  check_bool "an engine span carries the propagated context" true
    (List.exists carries events)

(* ------------------------------------------------------------------ *)
(* Router: 1-shard control-line identity                               *)

(* A 1-shard routed tier must reproduce the unrouted server transcript
   byte for byte INCLUDING control lines: the router passes the single
   backend's stats response through verbatim instead of re-wrapping it
   in a fleet merge (Router doc, "Determinism"). *)
let routed_identity_requests = fault_requests @ [ "{\"op\":\"stats\",\"id\":99}" ]

let test_router_single_shard_stats_identity () =
  let direct =
    with_server (fun ~engine:_ ~path -> exchange path routed_identity_requests)
  in
  let routed =
    with_server (fun ~engine:_ ~path ->
        let req = Filename.temp_file "fusecu_route_req" ".ndjson" in
        let resp = Filename.temp_file "fusecu_route_resp" ".ndjson" in
        Fun.protect
          ~finally:(fun () ->
            (try Sys.remove req with Sys_error _ -> ());
            try Sys.remove resp with Sys_error _ -> ())
          (fun () ->
            let oc = open_out req in
            List.iter
              (fun l -> output_string oc (l ^ "\n"))
              routed_identity_requests;
            close_out oc;
            let input = open_in req and output = open_out resp in
            Fun.protect
              ~finally:(fun () ->
                close_in_noerr input;
                close_out_noerr output)
              (fun () -> Router.run ~backends:[ path ] ~input ~output ());
            let ic = open_in resp in
            let rec lines acc =
              match input_line ic with
              | l -> lines (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
                lines [])))
  in
  check_int "response counts" (List.length direct) (List.length routed);
  List.iteri
    (fun i (d, r) ->
      if d <> r then
        Alcotest.failf "line %d diverges:\n  direct: %s\n  routed: %s" i d r)
    (List.combine direct routed)

(* ------------------------------------------------------------------ *)
(* Fleet: histogram codec and metric merging                           *)

let test_fleet_histogram_codec () =
  let open Fleet in
  (* empty histogram round-trips through the sparse encoding *)
  let encode h =
    Metrics.histogram_json ~count:h.count ~total_s:h.total_s h.bins
  in
  (match parse_histogram (encode (empty_hist ())) with
  | Ok h ->
    check_int "empty count" 0 h.count;
    check_bool "empty bins" true (Array.for_all (( = ) 0) h.bins)
  | Error e -> Alcotest.failf "empty round-trip: %s" e);
  (* a saturated final open bucket (null bound) round-trips *)
  let bins = Array.make Metrics.buckets 0 in
  bins.(Metrics.buckets - 1) <- 5;
  let sat = { count = 5; total_s = 5000.; bins } in
  (match parse_histogram (encode sat) with
  | Ok h ->
    check_int "open-bucket population survives" 5 h.bins.(Metrics.buckets - 1);
    check_int "count" 5 h.count
  | Error e -> Alcotest.failf "saturated round-trip: %s" e);
  (* merge is bucket-wise *)
  let b1 = Array.make Metrics.buckets 0 and b2 = Array.make Metrics.buckets 0 in
  b1.(0) <- 2;
  b1.(3) <- 1;
  b2.(3) <- 4;
  b2.(Metrics.buckets - 1) <- 1;
  let m =
    merge_histograms
      { count = 3; total_s = 1.; bins = b1 }
      { count = 5; total_s = 2.; bins = b2 }
  in
  check_int "merged count" 8 m.count;
  check_int "bucket 0" 2 m.bins.(0);
  check_int "bucket 3 (both sides)" 5 m.bins.(3);
  check_int "open bucket" 1 m.bins.(Metrics.buckets - 1);
  (* refusals: snapshots that don't fit the shared layout are errors,
     never guessed at *)
  let bucket le n = Json.Obj [ ("le_us", le); ("n", Json.Int n) ] in
  let hist ?(count = 1) buckets =
    Json.Obj
      [ ("count", Json.Int count);
        ("total_s", Json.Float 0.);
        ("buckets", Json.List buckets) ]
  in
  let refused what j =
    check_bool what true (Result.is_error (parse_histogram j))
  in
  refused "bound off the log2 lattice" (hist [ bucket (Json.Int 3) 1 ]);
  refused "bucket sum disagrees with count"
    (hist ~count:2 [ bucket (Json.Int 2) 1 ]);
  refused "negative count" (hist ~count:(-1) []);
  refused "not an object" (Json.Int 7)

let test_fleet_merge_metrics_sums () =
  let dump incrs obs ticks =
    let m = Metrics.create () in
    List.iter (fun (k, n) -> Metrics.incr ~by:n m k) incrs;
    List.iter (fun (k, s) -> Metrics.observe m k s) obs;
    Metrics.set_gauge m "uptime_ticks" (float_of_int ticks);
    Metrics.set_gauge m "cache_entries" 4.;
    Metrics.to_json m
  in
  let d0 =
    dump
      [ ("requests", 3) ]
      [ ("latency_intra", 0.0015); ("latency_intra", 0.5) ]
      10
  in
  let d1 =
    dump
      [ ("requests", 2); ("compute_errors", 1) ]
      [ ("latency_intra", 0.002); ("latency_chain", 1.0) ]
      7
  in
  check_bool "malformed dump refused" true
    (Result.is_error (Fleet.merge_metrics ~uptime_ticks:0 [ Json.Int 1 ]));
  match Fleet.merge_metrics ~uptime_ticks:42 [ d0; d1 ] with
  | Error e -> Alcotest.fail e
  | Ok merged ->
    let counter name =
      match Json.member "counters" merged with
      | Some (Json.Obj kvs) -> (
        match List.assoc_opt name kvs with Some (Json.Int n) -> n | _ -> 0)
      | _ -> Alcotest.fail "merged dump has no counters"
    in
    check_int "shared counters sum" 5 (counter "requests");
    check_int "one-sided counters union in" 1 (counter "compute_errors");
    let hist name =
      match Json.member "latency" merged with
      | Some (Json.Obj kvs) -> (
        match List.assoc_opt name kvs with
        | Some h -> (
          match Fleet.parse_histogram h with
          | Ok h -> h
          | Error e -> Alcotest.fail e)
        | None -> Alcotest.failf "histogram %s missing from merge" name)
      | _ -> Alcotest.fail "merged dump has no latency family"
    in
    check_int "histogram counts add" 3 (hist "latency_intra").Fleet.count;
    check_int "one-sided histogram unions in" 1
      (hist "latency_chain").Fleet.count;
    (* bucket-wise, not count-wise: 1.5 ms and 2 ms share a log2 bin,
       0.5 s lands elsewhere *)
    let h = hist "latency_intra" in
    check_int "shared bin holds both sides" 2
      h.Fleet.bins.(Metrics.bucket_of_seconds 0.002);
    check_int "distant bin unmerged" 1
      h.Fleet.bins.(Metrics.bucket_of_seconds 0.5);
    let gauge name =
      match Json.member "gauges" merged with
      | Some g -> Json.member name g
      | None -> None
    in
    check_bool "router clock replaces summed ticks" true
      (match gauge "uptime_ticks" with
      | Some (Json.Int 42) | Some (Json.Float 42.) -> true
      | _ -> false);
    check_bool "other gauges union-sum" true
      (match gauge "cache_entries" with
      | Some (Json.Float 8.) | Some (Json.Int 8) -> true
      | _ -> false);
    check_bool "per-shard dumps preserved in shard order" true
      (match Json.member "shards" merged with
      | Some s ->
        Json.equal s
          (Json.List
             (List.mapi
                (fun i d ->
                  Json.Obj [ ("shard", Json.Int i); ("result", d) ])
                [ d0; d1 ]))
      | None -> false)

(* Property: for arbitrary well-formed shard dumps, the fleet merge is
   exactly the element-wise sum — counters counter-wise, histograms
   bucket-wise — with the router's clock substituted for the summed
   ticks and every input preserved under "shards". *)
let prop_fleet_merge_is_sum =
  let counter_names = [ "requests"; "requests_intra"; "compute_errors" ] in
  let hist_names = [ "latency_intra"; "latency_chain" ] in
  let shard_gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 4)
           (pair (oneofl counter_names) (int_bound 50)))
        (list_size (int_bound 4)
           (pair (oneofl hist_names)
              (list_size (int_bound 6) (float_bound_exclusive 20.)))))
  in
  let print_spec (cs, hs) =
    Printf.sprintf "counters=[%s] hists=[%s]"
      (String.concat ";"
         (List.map (fun (k, n) -> Printf.sprintf "%s+%d" k n) cs))
      (String.concat ";"
         (List.map
            (fun (k, o) -> Printf.sprintf "%s(%d obs)" k (List.length o))
            hs))
  in
  QCheck.Test.make ~name:"fleet metrics merge = element-wise sum" ~count:100
    (QCheck.make
       ~print:(QCheck.Print.list print_spec)
       QCheck.Gen.(list_size (1 -- 3) shard_gen))
    (fun specs ->
      let dumps =
        List.mapi
          (fun i (counters, hists) ->
            let m = Metrics.create () in
            List.iter (fun (k, n) -> Metrics.incr ~by:n m k) counters;
            List.iter (fun (k, obs) -> List.iter (Metrics.observe m k) obs)
              hists;
            Metrics.set_gauge m "uptime_ticks" (float_of_int i);
            Metrics.to_json m)
          specs
      in
      match Fleet.merge_metrics ~uptime_ticks:99 dumps with
      | Error e -> QCheck.Test.fail_report e
      | Ok merged ->
        let counter_of dump name =
          match Json.member "counters" dump with
          | Some (Json.Obj kvs) -> (
            match List.assoc_opt name kvs with
            | Some (Json.Int n) -> n
            | _ -> 0)
          | _ -> 0
        in
        let hist_of dump name =
          match Json.member "latency" dump with
          | Some (Json.Obj kvs) -> (
            match List.assoc_opt name kvs with
            | Some h -> (
              match Fleet.parse_histogram h with
              | Ok h -> Some h
              | Error e -> QCheck.Test.fail_report e)
            | None -> None)
          | _ -> None
        in
        let counters_sum =
          List.for_all
            (fun name ->
              counter_of merged name
              = List.fold_left (fun acc d -> acc + counter_of d name) 0 dumps)
            counter_names
        in
        let hists_sum =
          List.for_all
            (fun name ->
              let parts = List.filter_map (fun d -> hist_of d name) dumps in
              match hist_of merged name with
              | None -> parts = []
              | Some m ->
                m.Fleet.count
                = List.fold_left (fun acc h -> acc + h.Fleet.count) 0 parts
                && Array.for_all Fun.id
                     (Array.init Metrics.buckets (fun b ->
                          m.Fleet.bins.(b)
                          = List.fold_left
                              (fun acc h -> acc + h.Fleet.bins.(b))
                              0 parts)))
            hist_names
        in
        let clock_replaced =
          match Json.member "gauges" merged with
          | Some g -> (
            match Json.member "uptime_ticks" g with
            | Some (Json.Int 99) | Some (Json.Float 99.) -> true
            | _ -> false)
          | None -> false
        in
        let shards_kept =
          match Json.member "shards" merged with
          | Some s ->
            Json.equal s
              (Json.List
                 (List.mapi
                    (fun i d ->
                      Json.Obj [ ("shard", Json.Int i); ("result", d) ])
                    dumps))
          | None -> false
        in
        counters_sum && hists_sum && clock_replaced && shards_kept)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fusecu-service"
    [ ( "json",
        [ Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "surrogate escapes" `Quick test_json_surrogates ]
      );
      ("json-properties", qcheck [ prop_json_roundtrip; prop_json_hum_roundtrip ]);
      ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
          Alcotest.test_case "snapshot consistent under load" `Quick
            test_cache_snapshot_consistent_under_load;
          Alcotest.test_case "shard balance (full-string hash)" `Quick
            test_cache_shard_balance ]
        @ qcheck [ prop_cache_never_exceeds_capacity ] );
      ( "protocol",
        [ Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "rejects" `Quick test_protocol_rejects;
          Alcotest.test_case "canonicalization" `Quick
            test_protocol_canonicalization;
          Alcotest.test_case "trace-context envelope" `Quick test_tc_envelope;
          Alcotest.test_case "outcome codec inverts the golden" `Quick
            test_outcome_codec_inverts_golden;
          Alcotest.test_case "outcome codec eval error rows" `Quick
            test_outcome_codec_eval_error_rows;
          Alcotest.test_case "outcome codec dataflow labels" `Quick
            test_outcome_codec_dataflow_labels ] );
      ( "engine",
        [ Alcotest.test_case "transpose symmetry" `Quick test_engine_symmetry;
          Alcotest.test_case "oversized problems rejected, stream continues"
            `Quick test_engine_oversized_problems;
          Alcotest.test_case "fixture matches golden" `Quick
            test_fixture_replay_matches_golden;
          Alcotest.test_case "cache on/off identical" `Quick
            test_fixture_cache_on_off_identical;
          Alcotest.test_case "domains/batch invariant" `Quick
            test_fixture_domains_and_batch_invariant;
          Alcotest.test_case "hit rate positive" `Quick
            test_fixture_hit_rate_positive;
          Alcotest.test_case "no search beats a served answer" `Quick
            test_no_search_beats_served;
          Alcotest.test_case "plan_model parse" `Quick test_plan_model_parse;
          Alcotest.test_case "plan_model cache reuse" `Quick
            test_plan_model_cache_reuse;
          Alcotest.test_case "plan_model seeds point requests" `Quick
            test_plan_model_seeds_point_requests;
          Alcotest.test_case "plan_model counters" `Quick
            test_plan_model_counters;
          Alcotest.test_case "plan_model unknown model" `Quick
            test_plan_model_unknown_model;
          Alcotest.test_case "nest parse" `Quick test_nest_parse;
          Alcotest.test_case "nest matmul matches legacy" `Quick
            test_nest_matmul_matches_legacy;
          Alcotest.test_case "nest cache reuse" `Quick test_nest_cache_reuse;
          Alcotest.test_case "nest outcome codec" `Quick
            test_nest_outcome_codec;
          Alcotest.test_case "nest infeasible" `Quick test_nest_infeasible;
          Alcotest.test_case "shutdown barrier" `Quick
            test_shutdown_stops_processing ] );
      ( "server",
        [ Alcotest.test_case "concurrent clients deterministic" `Quick
            test_server_concurrent_clients_deterministic;
          Alcotest.test_case "half-closed client" `Quick
            test_server_half_closed_client;
          Alcotest.test_case "mid-batch disconnect" `Quick
            test_server_mid_batch_disconnect;
          Alcotest.test_case "garbage line" `Quick test_server_garbage_line;
          Alcotest.test_case "oversized line" `Quick test_server_oversized_line;
          Alcotest.test_case "slow loris vs fast client" `Quick
            test_server_slow_loris;
          Alcotest.test_case "sigterm drains in-flight" `Quick
            test_server_sigterm_drains;
          Alcotest.test_case "in-band shutdown unlinks" `Quick
            test_server_inband_shutdown_unlinks;
          Alcotest.test_case "non-socket path rejected" `Quick
            test_server_rejects_non_socket_path ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_metrics;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition ] );
      ( "observability",
        [ Alcotest.test_case "stats carries ticks and shard occupancy" `Quick
            test_stats_observability_fields;
          Alcotest.test_case "metrics op" `Quick test_metrics_op;
          Alcotest.test_case "replay identical under tracing+logging" `Quick
            test_replay_identical_under_tracing_and_logging;
          Alcotest.test_case "metrics exporter serves scrapes" `Quick
            test_metrics_exporter;
          Alcotest.test_case "exporter rejects bad addresses" `Quick
            test_exporter_rejects_bad_addr;
          Alcotest.test_case "trace-context propagation round-trip" `Quick
            test_tc_propagation_roundtrip ] );
      ( "fleet",
        [ Alcotest.test_case "histogram codec" `Quick
            test_fleet_histogram_codec;
          Alcotest.test_case "metrics merge sums" `Quick
            test_fleet_merge_metrics_sums ]
        @ qcheck [ prop_fleet_merge_is_sum ] );
      ( "router",
        [ Alcotest.test_case "1-shard stats byte-identity" `Quick
            test_router_single_shard_stats_identity ] ) ]