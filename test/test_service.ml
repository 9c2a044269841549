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

(* The stamp-scan LRU cache the recency list replaced, kept as the
   reference: a per-shard tick stamped on every hit and insert, and
   eviction of the minimum stamp by a fold over the shard. *)
module Ref_cache = struct
  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a shard = {
    table : (string, 'a entry) Hashtbl.t;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  type 'a t = { shards : 'a shard array; per_shard : int }

  let create ~shards ~capacity =
    let shards = if capacity = 0 then 1 else max 1 (min shards capacity) in
    { shards =
        Array.init shards (fun _ ->
            { table = Hashtbl.create 64; tick = 0; hits = 0; misses = 0; evictions = 0 });
      per_shard = (if capacity = 0 then 0 else (capacity + shards - 1) / shards) }

  let shard_of t key =
    t.shards.(Fusecu_util.Hash.fnv1a64_positive key mod Array.length t.shards)

  let find t key =
    let s = shard_of t key in
    match Hashtbl.find_opt s.table key with
    | Some e ->
      s.tick <- s.tick + 1;
      e.stamp <- s.tick;
      s.hits <- s.hits + 1;
      Some e.value
    | None ->
      s.misses <- s.misses + 1;
      None

  let evict_lru s =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        s.table None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove s.table k;
      s.evictions <- s.evictions + 1
    | None -> ()

  let add t key value =
    if t.per_shard > 0 then begin
      let s = shard_of t key in
      if (not (Hashtbl.mem s.table key)) && Hashtbl.length s.table >= t.per_shard then
        evict_lru s;
      s.tick <- s.tick + 1;
      Hashtbl.replace s.table key { value; stamp = s.tick }
    end

  let stats t =
    Array.fold_left
      (fun (acc : Cache.stats) s ->
        { Cache.hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          evictions = acc.evictions + s.evictions;
          entries = acc.entries + Hashtbl.length s.table })
      { Cache.hits = 0; misses = 0; evictions = 0; entries = 0 }
      t.shards

  let shard_occupancy t =
    Array.to_list (Array.map (fun s -> Hashtbl.length s.table) t.shards)

  let entries t =
    List.sort compare
      (Array.fold_left
         (fun acc s -> Hashtbl.fold (fun k e acc -> (k, e.value) :: acc) s.table acc)
         [] t.shards)
end

(* Random find/add sequences over at most 24 keys, 1-8 shards and
   capacities 0-40 (so shards fill, evict, and see overwrites of live
   keys): after every step the recency-list cache answers, counts and
   holds exactly what the stamp scan does. *)
let prop_cache_matches_stamp_scan =
  let op =
    QCheck.Gen.(
      let* key = map (Printf.sprintf "k%d") (int_range 0 23) in
      oneof [ return (`Find key); map (fun v -> `Add (key, v)) (int_range 0 99) ])
  in
  QCheck.Test.make ~count:500 ~name:"recency list = stamp scan"
    (QCheck.make
       ~print:(fun (shards, capacity, ops) ->
         Printf.sprintf "shards=%d capacity=%d [%s]" shards capacity
           (String.concat "; "
              (List.map
                 (function
                   | `Find k -> "find " ^ k | `Add (k, v) -> Printf.sprintf "add %s %d" k v)
                 ops)))
       QCheck.Gen.(
         triple (int_range 1 8) (int_range 0 40) (list_size (int_range 0 200) op)))
    (fun (shards, capacity, ops) ->
      let c = Cache.create ~shards ~capacity () in
      let r = Ref_cache.create ~shards ~capacity in
      List.for_all
        (fun op ->
          (match op with
           | `Find k -> Cache.find c k = Ref_cache.find r k
           | `Add (k, v) ->
             Cache.add c k v;
             Ref_cache.add r k v;
             true)
          && Cache.stats c = Ref_cache.stats r
          && Cache.shard_occupancy c = Ref_cache.shard_occupancy r
          && List.sort compare (Cache.fold_entries c (fun k v acc -> (k, v) :: acc) [])
             = Ref_cache.entries r)
        ops)

(* [Cache.load] leaves what adding every entry (repeated keys included)
   leaves, and counts nothing: after the load, and after every step of
   a following find/add sequence (which also checks the recency order,
   since it decides each later eviction), both caches hold the same
   entries per shard and answer alike with the same hits and misses,
   and the loaded one's evictions are the sequence's alone. *)
let prop_cache_load_matches_adds =
  let key = QCheck.Gen.(map (Printf.sprintf "k%d") (int_range 0 23)) in
  QCheck.Test.make ~count:500 ~name:"load = add of every entry, counting nothing"
    QCheck.(
      make
        ~print:Print.(quad int int (list (pair string int)) (list (pair string (option int))))
        Gen.(
          quad (int_range 1 8) (int_range 0 40)
            (list_size (int_range 0 60) (pair key (int_range 0 99)))
            (list_size (int_range 0 100) (pair key (opt (int_range 0 99))))))
    (fun (shards, capacity, entries, ops) ->
      let loaded = Cache.create ~shards ~capacity ()
      and added = Cache.create ~shards ~capacity () in
      Cache.load loaded Fun.id entries;
      List.iter (fun (k, v) -> Cache.add added k v) entries;
      let load_evictions = (Cache.stats added).Cache.evictions in
      let view c =
        ( Cache.shard_occupancy c,
          List.sort compare (Cache.fold_entries c (fun k v acc -> (k, v) :: acc) []) )
      in
      let same () =
        let b = Cache.stats added in
        Cache.stats loaded = { b with Cache.evictions = b.Cache.evictions - load_evictions }
        && view loaded = view added
      in
      same ()
      && List.for_all
           (fun (k, v) ->
             (match v with
              | None -> Cache.find loaded k = Cache.find added k
              | Some v ->
                Cache.add loaded k v;
                Cache.add added k v;
                true)
             && same ())
           ops)

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

(* A buffer of max_int bytes (max_int - 3 for the pair and chain ops,
   where isqrt (BS + 4) overflowed) is answered ok, at the lower bound
   for intra, and the line after it too: once it raised out of the
   engine and ended the stream. *)
let test_engine_max_int_buffer () =
  let next = "{\"op\":\"intra\",\"m\":8,\"k\":8,\"l\":8}" in
  let huge =
    [ "{\"op\":\"intra\",\"id\":1,\"m\":4,\"k\":4,\"l\":4,\"buffer\":4611686018427387903}";
      "{\"op\":\"fuse\",\"m\":4,\"k\":4,\"l\":4,\"l2\":4,\"buffer\":4611686018427387900}";
      "{\"op\":\"chain\",\"m\":4,\"ks\":[4,4,4],\"buffer\":4611686018427387903}";
      "{\"op\":\"eval\",\"model\":\"bert\",\"buffer\":4611686018427387900}";
      "{\"op\":\"plan_model\",\"model\":\"bert\",\"buffer\":4611686018427387903}" ]
  in
  let out =
    Engine.handle_lines
      (Engine.create (Engine.default_config ()))
      (List.concat_map (fun l -> [ l; next ]) huge)
    |> List.map (fun l -> Result.get_ok (Json.parse l))
  in
  check_int "every line answered" (2 * List.length huge) (List.length out);
  List.iter
    (fun r -> check_bool "ok" true (Json.member "ok" r = Some (Json.Bool true)))
    out;
  match Option.bind (Json.member "result" (List.hd out)) (Json.member "redundancy") with
  | Some (Json.Float r) -> check_bool "intra at the lower bound" true (r = 1.0)
  | _ -> Alcotest.fail "intra answer has no redundancy"

(* ------------------------------------------------------------------ *)
(* Engine over the checked-in fixture                                  *)

let fixture_lines =
  lazy
    (In_channel.with_open_bin "fixtures/service_requests.ndjson"
       In_channel.input_lines)

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
  (* a member of the served answer, read from its text *)
  let member name (o : Protocol.outcome) =
    match Json.parse ("{" ^ o.members ^ "}") with
    | Ok j -> Json.member name j
    | Error e -> Alcotest.fail e
  in
  let served name o =
    match member name o with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "answer without %S: %s" name o.Protocol.members
  in
  List.iter
    (fun line ->
      match Protocol.parse_line line with
      | Ok (_, _, Protocol.Call call) -> (
        let call, _ = Protocol.canonicalize call in
        match (call, Engine.compute engine call) with
        | Protocol.Intra { op; buffer; mode }, Ok o ->
          let p = Intra.optimize_exn ~mode op buffer in
          served_is_plan line (served "ma" o) (Intra.ma p);
          solo line "intra" mode buffer p
        | Protocol.Fuse { op; l2; buffer; mode }, Ok o -> (
          let op2 =
            Fusecu_tensor.Matmul.make ~name:"consumer" ~m:op.Fusecu_tensor.Matmul.m
              ~k:op.Fusecu_tensor.Matmul.l ~l:l2 ()
          in
          let pair = Fusecu_loopnest.Fused.make_pair_exn op op2 in
          match (Fusion.plan_pair ~mode pair buffer, member "fuse" o) with
          | Ok (Fusion.Fuse { fused = f; traffic; _ }), Some (Json.Bool true) ->
            served_is_plan line (served "traffic" o) traffic;
            fused line "fuse" mode buffer pair f traffic
          | Ok (Fusion.No_fuse { plan1; plan2; traffic; _ }), Some (Json.Bool false) ->
            served_is_plan line (served "traffic" o) traffic;
            solo line "fuse" mode buffer plan1;
            solo line "fuse" mode buffer plan2
          | _ -> Alcotest.failf "%s: served decision is not the plan's" line)
        | Protocol.Chain { m; ks; buffer; mode }, Ok o -> (
          let chain = Fusecu_tensor.Chain.of_dims ~name:"chain" ~m ks in
          match (Multi_fusion.plan ~mode chain buffer, member "decision" o) with
          | Ok (Multi_fusion.Full_fusion { traffic; _ }), Some (Json.String "full_fusion") ->
            served_is_plan line (served "traffic" o) traffic
          | Ok (Multi_fusion.Fallback plan), Some (Json.String "pairwise") ->
            served_is_plan line (served "traffic" o) plan.Planner.traffic;
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
   side (the server answers what arrived, sees EOF and closes), read
   responses until the server closes. *)
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
  (* the requests are answered as they arrive; the signal then lands
     while the connection waits for its next line, and must end it with
     every answer delivered *)
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
(* Line transport: the bounded reader and the per-batch writer         *)

type reader_case = {
  lines : string list;  (** each sent with its newline *)
  fragment : string;  (** a last line with no newline; may be empty *)
  chunks : int list;  (** write sizes, cycled *)
  max_line : int;
}

(* What [Line_reader.read] must return: every line in order, a
   non-empty fragment as a line, then [Eof] — or [Oversized] in place
   of the first line longer than [max_line]. *)
let expected_reads c =
  let rec go = function
    | [] -> [ Server.Line_reader.Eof ]
    | l :: _ when String.length l > c.max_line -> [ Server.Line_reader.Oversized ]
    | l :: rest -> Server.Line_reader.Line l :: go rest
  in
  go (if c.fragment = "" then c.lines else c.lines @ [ c.fragment ])

(* Send the case through a socketpair in its chunk sizes from a writer
   thread and collect the reads until one is not a line. *)
let reads_through_socketpair c =
  let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let data = String.concat "" (List.map (fun l -> l ^ "\n") c.lines) ^ c.fragment in
  let chunks = Array.of_list c.chunks in
  let writer =
    Thread.create
      (fun () ->
        let b = Bytes.unsafe_of_string data in
        let rec go off i =
          if off < Bytes.length b then begin
            let n = min (Bytes.length b - off) chunks.(i mod Array.length chunks) in
            go (off + Unix.write tx b off n) (i + 1)
          end
        in
        go 0 0;
        Unix.close tx)
      ()
  in
  let r = Server.Line_reader.create rx in
  let rec collect () =
    match
      Server.Line_reader.read ~stop:(Atomic.make false) ~idle_timeout:20.
        ~max_line:c.max_line r
    with
    | Server.Line_reader.Line _ as l -> l :: collect ()
    | ended -> [ ended ]
  in
  let got = collect () in
  (* let the writer finish before closing its peer *)
  let sink = Bytes.create 65536 in
  while Unix.read rx sink 0 (Bytes.length sink) > 0 do () done;
  Thread.join writer;
  Unix.close rx;
  got

let show_read = function
  | Server.Line_reader.Line l ->
    if String.length l <= 20 then Printf.sprintf "Line %S" l
    else Printf.sprintf "Line <%d bytes>" (String.length l)
  | Eof -> "Eof"
  | Timeout -> "Timeout"
  | Oversized -> "Oversized"
  | Stopped -> "Stopped"

let gen_reader_case =
  let open QCheck.Gen in
  let text n = string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '{'; '"' ]) (return n) in
  (* empty lines, short ones, and ones longer than one 64 KiB read *)
  let line =
    frequency
      [ (2, return ""); (12, int_range 1 200 >>= text);
        (1, int_range 65_537 80_000 >>= text) ]
  in
  list_size (int_range 0 12) line >>= fun lines ->
  (frequency [ (1, return ""); (1, line) ] >>= fun fragment ->
   list_size (int_range 1 6)
     (frequency [ (1, return 1); (2, int_range 2 100); (2, int_range 100 100_000) ])
   >>= fun chunks ->
   let lengths = List.map String.length (fragment :: lines) in
   (* the bound sits on a line's length, one below it, or above all *)
   frequency
     [ (1, return max_int);
       (2, oneofl lengths >>= fun n -> oneofl [ n; max 1 (n - 1) ]);
       (1, int_range 1 300) ]
   >|= fun max_line -> { lines; fragment; chunks; max_line })

let prop_line_reader =
  QCheck.Test.make ~count:120 ~name:"line reader returns the sent lines, bounded"
    (QCheck.make gen_reader_case ~print:(fun c ->
         Printf.sprintf "lines %s, fragment %d bytes, chunks [%s], max_line %d"
           (String.concat ";" (List.map (fun l -> string_of_int (String.length l)) c.lines))
           (String.length c.fragment)
           (String.concat ";" (List.map string_of_int c.chunks))
           c.max_line))
    (fun c ->
      let want = expected_reads c and got = reads_through_socketpair c in
      want = got
      || QCheck.Test.fail_reportf "want [%s]@ got [%s]"
           (String.concat "; " (List.map show_read want))
           (String.concat "; " (List.map show_read got)))

(* A line one byte over the bound is refused before its newline
   arrives, and one at the bound waits for it: the reader decides on
   the unframed bytes, with the peer still connected. *)
let test_reader_bound_before_newline () =
  let read_open ~max_line data =
    let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close tx; Unix.close rx)
      (fun () ->
        send_all tx data;
        let t0 = Unix.gettimeofday () in
        let r =
          Server.Line_reader.read ~stop:(Atomic.make false) ~idle_timeout:0.3
            ~max_line (Server.Line_reader.create rx)
        in
        (r, Unix.gettimeofday () -. t0))
  in
  let r, dt = read_open ~max_line:100 (String.make 101 'x') in
  check_str "max_line + 1 bytes, no newline" "Oversized" (show_read r);
  check_bool "refused without waiting" true (dt < 0.25);
  let r, _ = read_open ~max_line:100 (String.make 100 'x') in
  check_str "max_line bytes, no newline" "Timeout" (show_read r);
  let r, _ = read_open ~max_line:100 (String.make 100 'x' ^ "\n") in
  check_str "max_line bytes and newline" (show_read (Line (String.make 100 'x')))
    (show_read r)

(* Read [n] lines from a socket or a pipe within [timeout] seconds. *)
let recv_n_lines ~timeout fd n =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 4096 and scratch = Bytes.create 4096 in
  let count () =
    String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 (Buffer.contents buf)
  in
  while count () < n do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.failf "%d of %d lines within %.1f s" (count ()) n timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read fd scratch 0 (Bytes.length scratch) with
      | 0 -> Alcotest.failf "connection closed after %d of %d lines" (count ()) n
      | k -> Buffer.add_subbytes buf scratch 0 k)
  done;
  String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")

(* One batch whose responses outgrow the connection's initial output
   buffer arrives whole, in order, while the client still holds the
   connection open. *)
let test_server_large_batch () =
  let requests =
    List.init 64 (fun i ->
        Printf.sprintf {|{"op":"eval","id":%d,"model":"%s","buffer":"%dKB"}|} i
          (if i mod 2 = 0 then "bert" else "gpt-2")
          (256 lsl (i mod 3)))
  in
  let golden = Engine.handle_lines (Engine.create (Engine.default_config ())) requests in
  check_bool "every answer ok, and the batch outgrows 4 KiB" true
    (List.for_all
       (fun l -> Json.member "ok" (Result.get_ok (Json.parse l)) = Some (Json.Bool true))
       golden
    && List.fold_left (fun n l -> n + String.length l + 1) 0 golden > 4096);
  with_server ~batch:64 (fun ~engine:_ ~path ->
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd (String.concat "\n" requests ^ "\n");
          Alcotest.(check (list string)) "one batch, byte-equal" golden
            (recv_n_lines ~timeout:20. fd 64)))

(* A peer that never reads is dropped by the stall deadline even when
   one batch of answers (1,024 evals, about 800 KB) is more than the
   socket buffer holds: the write waits in [select], not in [write]. *)
let test_server_drops_reader_of_large_batch () =
  with_server ~batch:1024
    ~config:{ quick_config with Server.idle_timeout = 0.5 }
    (fun ~engine ~path ->
      let fd = connect path in
      send_all fd
        (String.concat ""
           (List.init 1024 (fun i ->
                Printf.sprintf {|{"op":"eval","id":%d,"model":"bert","buffer":"512KB"}|} i
                ^ "\n")));
      let closed () = Metrics.get (Engine.metrics engine) "conns_closed" >= 1 in
      let rec wait n = if n > 0 && not (closed ()) then (Thread.delay 0.05; wait (n - 1)) in
      wait 200;
      let was_closed = closed () in
      (* closing our end also frees a thread stuck in [write] *)
      Unix.close fd;
      check_bool "connection closed within 10 s" true was_closed)

(* A full batch is answered without waiting for more input. *)
let test_server_batch_answered_open () =
  with_server ~batch:2 (fun ~engine:_ ~path ->
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let requests = [ List.nth fault_requests 1; List.nth fault_requests 7 ] in
          let t0 = Unix.gettimeofday () in
          send_all fd (String.concat "\n" requests ^ "\n");
          let lines = recv_n_lines ~timeout:1. fd 2 in
          check_bool "within one second" true (Unix.gettimeofday () -. t0 < 1.);
          Alcotest.(check (list string)) "both answers"
            (Engine.handle_lines (Engine.create (Engine.default_config ())) requests)
            lines))

(* [Server.serve_fds] from [input] to a pipe, in a thread, while
   [feed] writes the input; its response lines. *)
let serve_fds_lines ?batch input feed =
  let out_r, out_w = Unix.pipe () in
  let engine = Engine.create (Engine.default_config ()) in
  let server =
    Thread.create
      (fun () ->
        Server.serve_fds engine ?batch input out_w;
        Unix.close out_w)
      ()
  in
  feed ();
  let lines = recv_lines out_r in
  Thread.join server;
  Unix.close out_r;
  lines

(* Stdin mode runs the same connection loop on a pair of descriptors.
   Three inputs: the requests in one write; the same requests written
   in random small chunks with short pauses, so batches end where the
   input paused; and the service fixture, [stats] line included, read
   from its file, which arrives whole and so is cut into batches as
   [Engine.handle_lines] cuts it, byte for byte. *)
let test_serve_fds_matches_golden () =
  let piped feed =
    let in_r, in_w = Unix.pipe () in
    let lines =
      serve_fds_lines in_r (fun () ->
          feed in_w;
          Unix.close in_w)
    in
    Unix.close in_r;
    lines
  in
  let text = String.concat "\n" fault_requests ^ "\n" in
  Alcotest.(check (list string)) "golden" (fault_golden ())
    (piped (fun fd -> send_all fd text));
  let rng = Random.State.make [| 30 |] in
  let rec trickle fd off =
    if off < String.length text then begin
      let n = min (1 + Random.State.int rng 40) (String.length text - off) in
      send_all fd (String.sub text off n);
      Thread.delay (Random.State.float rng 0.003);
      trickle fd (off + n)
    end
  in
  Alcotest.(check (list string)) "chunked with pauses" (fault_golden ())
    (piped (fun fd -> trickle fd 0));
  let fixture = Unix.openfile "fixtures/service_requests.ndjson" [ Unix.O_RDONLY ] 0 in
  let served = serve_fds_lines ~batch:7 fixture ignore in
  Unix.close fixture;
  Alcotest.(check (list string)) "fixture at batch 7 = Engine.handle_lines"
    (Engine.handle_lines (Engine.create (Engine.default_config ())) ~batch:7
       (Lazy.force fixture_lines))
    served

(* The store's write point: a batch's records are in the file before
   its connection reads again. A closed-loop client at the default
   batch reads the answer to a miss, sends the same request (a hit,
   which appends nothing) and reads its answer; the store then holds
   the miss's record exactly as [Store.frame] prints it. Over a socket
   and over [Server.serve_fds] on pipes. *)
let test_store_written_before_next_read () =
  let request = {|{"op":"intra","id":1,"m":64,"k":48,"l":36,"buffer":"64KB"}|} in
  let call =
    match Protocol.parse_line request with
    | Ok (_, _, Protocol.Call c) -> fst (Protocol.canonicalize c)
    | _ -> Alcotest.fail "not a planning call"
  in
  let outcome = Engine.compute (Engine.create (Engine.default_config ())) call in
  let record = Store.frame (Protocol.cache_key call) (Result.get_ok outcome) in
  let check_point transport serve =
    let path = Filename.temp_file "fusecu_point" ".store" in
    let store = Result.get_ok (Store.open_ ~path) in
    serve (Engine.create ~store (Engine.default_config ())) (fun to_server from_server ->
        for _ = 1 to 2 do
          send_all to_server (request ^ "\n");
          ignore (recv_n_lines ~timeout:5. from_server 1)
        done;
        check_str (transport ^ ": the miss's record, before the second read") record
          (In_channel.with_open_bin path In_channel.input_all));
    Store.close store;
    Sys.remove path
  in
  check_point "socket" (fun engine client ->
      let path = sock_path () in
      let th = start_server engine path in
      let fd = connect path in
      client fd fd;
      Unix.close fd;
      ignore (exchange path [ {|{"op":"shutdown"}|} ]);
      Thread.join th);
  check_point "pipes" (fun engine client ->
      let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
      let th = Thread.create (fun () -> Server.serve_fds engine in_r out_w) () in
      client in_w out_r;
      Unix.close in_w;
      Thread.join th;
      List.iter Unix.close [ in_r; out_r; out_w ])

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

(* Outcomes appended to a fresh store, as a reopen recovers them. *)
let store_roundtrip records =
  let path = Filename.temp_file "fusecu_test" ".store" in
  Sys.remove path;
  let open_exn () = match Store.open_ ~path with Ok s -> s | Error e -> Alcotest.fail e in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = open_exn () in
      List.iter (fun (k, o) -> Store.append s k o) records;
      Store.close s;
      let s = open_exn () in
      let r = Store.recovered s in
      Store.close s;
      check_int "no record dropped" 0 r.Store.dropped_records;
      r.Store.entries)

(* A nest answer through the store's codec (record frame, then
   recovery) is the same outcome, and replies with the engine's bytes. *)
let test_nest_outcome_codec () =
  let engine = Engine.create (Engine.default_config ()) in
  match Protocol.parse_line nest_line with
  | Ok (id, _, Protocol.Call call) -> (
    let canonical, _ = Protocol.canonicalize call in
    let key = Protocol.cache_key canonical in
    match Engine.compute engine canonical with
    | Error (_, e) -> Alcotest.fail e
    | Ok o -> (
      match store_roundtrip [ (key, o) ] with
      | [ (k, o') ] ->
        check_str "key" key k;
        check_bool "store codec round-trips a nest answer" true (o = o');
        check_str "the recovered answer replies as the engine does"
          (List.hd (Engine.handle_lines engine [ nest_line ]))
          (Protocol.response_ok ~id ~call o')
      | _ -> Alcotest.fail "expected one record"))
  | _ -> Alcotest.fail "nest_line does not parse"

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
(* Outcome codec: answers as text, through the store                  *)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec find i = i + n <= m && (String.sub s i n = sub || find (i + 1)) in
  find 0

(* The members of an ok reply: the text after its problem echo. *)
let reply_members ~id ~call line =
  let echo = Protocol.response_ok ~id ~call { Protocol.op = ""; members = "" } in
  let head = String.sub echo 0 (String.length echo - 2) in
  let n = String.length head in
  if String.length line > n + 2 && String.equal (String.sub line 0 n) head then
    String.sub line n (String.length line - n - 2)
  else Alcotest.failf "%s does not start with its echo %s" line head

(* Every ok planning line of the golden is its request's echo and the
   members of its answer; framed as a store record and recovered, the
   answer replies with the golden bytes. *)
let test_outcome_codec_inverts_golden () =
  let seen = Hashtbl.create 16 in
  let answers =
    List.concat
      (List.map2
         (fun request golden ->
           match Protocol.parse_line request with
           | Ok (id, _, Protocol.Call call) when contains "\"ok\":true" golden ->
             let op = Protocol.op_name call in
             let members = reply_members ~id ~call golden in
             Hashtbl.replace seen
               (match op with
               | "fuse" when contains "\"fuse\":true" members -> "fused"
               | "fuse" -> "not_fused"
               | "chain" when contains "\"decision\":\"full_fusion\"" members -> "full_fusion"
               | "chain" when contains "\"kind\":\"fused\"" members -> "pairwise_fused"
               | op -> op)
               ();
             [ (id, call, golden, { Protocol.op; members }) ]
           | _ -> [])
         (Lazy.force fixture_lines) (Lazy.force golden_lines))
  in
  let recovered =
    store_roundtrip (List.mapi (fun i (_, _, _, o) -> (string_of_int i, o)) answers)
  in
  check_int "every answer recovered" (List.length answers) (List.length recovered);
  List.iter2
    (fun (id, call, golden, o) (_, o') ->
      check_bool ("recovered = stored: " ^ golden) true (o = o');
      check_str "the recovered answer replies with the golden line" golden
        (Protocol.response_ok ~id ~call o'))
    answers recovered;
  List.iter
    (fun v -> check_bool ("golden covers " ^ v) true (Hashtbl.mem seen v))
    [ "intra"; "fused"; "not_fused"; "regime"; "eval"; "full_fusion";
      "pairwise_fused"; "plan_model"; "nest" ]

(* An eval row whose platform cannot run the model keeps only its name
   and the error; the others keep their five cells. *)
let test_outcome_codec_eval_error_rows () =
  let line = "{\"op\":\"eval\",\"id\":1,\"model\":\"bert\",\"buffer\":\"4KB\"}" in
  let engine = Engine.create (Engine.default_config ()) in
  let reply = List.hd (Engine.handle_lines engine [ line ]) in
  match Json.parse reply with
  | Ok r -> (
    match Option.bind (Json.member "result" r) (Json.member "platforms") with
    | Some (Json.List rows) ->
      let keys = function
        | Json.Obj kvs -> List.map fst kvs
        | _ -> Alcotest.fail "a platform row is not an object"
      in
      let shapes = List.map keys rows in
      check_bool "some rows are errors" true (List.mem [ "name"; "error" ] shapes);
      check_bool "some rows are cells" true
        (List.mem [ "name"; "traffic"; "traffic_bytes"; "macs"; "cycles"; "utilization" ] shapes);
      check_bool "no other row shape" true
        (List.for_all
           (fun s ->
             s = [ "name"; "error" ]
             || s = [ "name"; "traffic"; "traffic_bytes"; "macs"; "cycles"; "utilization" ])
           shapes)
    | _ -> Alcotest.failf "no platforms in %s" reply)
  | Error e -> Alcotest.fail e

(* The M<->L relabelling of an intra answer over all 15 dataflow
   labels: applied twice it is the identity, and it gives the label of
   the transposed dataflow. Recovery keeps only records of a planning
   op: the tagged shape the store used to write and unknown ops are
   damage. *)
let test_outcome_codec_dataflow_labels () =
  let open Fusecu_core in
  let open Fusecu_tensor in
  let labels = List.map Nra.dataflow_to_string Nra.all_dataflows in
  check_int "15 dataflows" 15 (List.length Nra.all_dataflows);
  check_int "15 distinct labels" 15 (List.length (List.sort_uniq compare labels));
  let swap_dim = function Dim.M -> Dim.L | Dim.L -> Dim.M | Dim.K -> Dim.K in
  let swap = function Operand.A -> Operand.B | Operand.B -> Operand.A | Operand.C -> Operand.C in
  let transpose = function
    | Nra.Single_nra { stationary } -> Nra.Single_nra { stationary = swap stationary }
    | Nra.Two_nra { untiled; redundant } ->
      Nra.Two_nra { untiled = swap_dim untiled; redundant = swap redundant }
    | Nra.Three_nra { resident } -> Nra.Three_nra { resident = swap resident }
  in
  let intra dataflow ~m ~l ~order =
    Protocol.outcome "intra"
      [ ("ma", Json.Int 1); ("redundancy", Json.Float 1.); ("footprint", Json.Int 3);
        ("tiles", Json.Obj [ ("m", Json.Int m); ("k", Json.Int 5); ("l", Json.Int l) ]);
        ("order", Json.List (List.map (fun d -> Json.String d) order));
        ("class", Json.String (Nra.to_string (Nra.class_of dataflow)));
        ("dataflow", Json.String (Nra.dataflow_to_string dataflow));
        ("regime", Json.String "large") ]
  in
  List.iter
    (fun dataflow ->
      let o = intra dataflow ~m:2 ~l:7 ~order:[ "M"; "K"; "L" ] in
      let t = Protocol.apply_transform Protocol.Transpose_ml o in
      let label = Nra.dataflow_to_string dataflow in
      check_bool (label ^ ": twice is the identity") true
        (Protocol.apply_transform Protocol.Transpose_ml t = o);
      check_bool (label ^ ": the transposed dataflow's label") true
        (t = intra (transpose dataflow) ~m:7 ~l:2 ~order:[ "L"; "K"; "M" ]))
    Nra.all_dataflows;
  List.iter
    (fun payload ->
      let path = Filename.temp_file "fusecu_test" ".store" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf "%08x %s\n" (Fusecu_util.Hash.crc32 payload) payload));
      let r =
        match Store.open_ ~path with
        | Ok s ->
          let r = Store.recovered s in
          Store.close s;
          r
        | Error e -> Alcotest.fail e
      in
      Sys.remove path;
      check_int (payload ^ " is damage") 1 r.Store.dropped_records)
    [ "{\"k\":\"r|8|8|8|64\",\"o\":{\"t\":\"regime\",\"regime\":\"large\"}}";
      "{\"k\":\"r|8|8|8|64\",\"o\":{\"op\":\"warp\",\"regime\":\"large\"}}";
      "{\"k\":\"r|8|8|8|64\",\"o\":{\"op\":\"regime\"}}";
      "{\"k\":\"r|8|8|8|64\",\"o\":{\"op\":\"regime\",\"regime\":\"large\"},\"x\":1}" ]

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
            let input = Unix.openfile req [ Unix.O_RDONLY ] 0
            and output = Unix.openfile resp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
            Fun.protect
              ~finally:(fun () ->
                Unix.close input;
                Unix.close output)
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
(* Router: placement, dead backends, pipelining, idle pauses           *)

(* [Router.run] from the client's request descriptor to its response
   descriptor. *)
let route ?config ~backends input output =
  Router.run ?config ~backends ~input ~output ()

(* Everything readable from [fd] until end of file, or a failure once
   [seconds] have passed. *)
let read_all_within fd ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.fail "no end of output within the time bound";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ())
  in
  go ()

let lines_of text = String.split_on_char '\n' text |> List.filter (( <> ) "")

(* The service fixture, then 96 distinct small [intra] calls (the
   fixture caches 48 distinct keys), replayed through a router in
   front of [shards] in-process servers with stores: one character per
   line, the index of the backend whose store then holds the line's
   canonical key ('-' for a line that is no call, '?' for a call no
   backend stored, '*' for one that several did). A key must stay on
   the shard whose --store-dir store holds it, so this may change only
   with the ring. *)
let routed_placement shards =
  let stores = List.init shards (fun _ -> Filename.temp_file "fusecu_place" ".store") in
  let engines =
    List.map
      (fun path ->
        Engine.create ~store:(Result.get_ok (Store.open_ ~path)) (Engine.default_config ()))
      stores
  in
  let paths = List.init shards (fun _ -> sock_path ()) in
  let servers = List.map2 (fun e p -> start_server e p) engines paths in
  let lines =
    Lazy.force fixture_lines
    @ List.init 96 (fun i ->
          Printf.sprintf
            "{\"op\":\"intra\",\"id\":%d,\"m\":%d,\"k\":%d,\"l\":%d,\"buffer\":\"4KB\"}"
            (1000 + i) (4 + (i mod 12)) (8 + i) (20 + (i mod 7)))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p ->
          try ignore (exchange p [ "{\"op\":\"shutdown\"}" ])
          with Unix.Unix_error _ -> ())
        paths;
      List.iter Thread.join servers;
      List.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) paths;
      List.iter (fun e -> Option.iter Store.close (Engine.store e)) engines;
      List.iter Sys.remove stores)
    (fun () ->
      let req = Filename.temp_file "fusecu_place" ".ndjson" in
      Out_channel.with_open_bin req (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let input = Unix.openfile req [ Unix.O_RDONLY ] 0 in
      let output = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close input;
          Unix.close output;
          Sys.remove req)
        (fun () -> route ~backends:paths input output);
      (* records precede their answers: after the last, flush writes all *)
      List.iter (fun e -> Option.iter Store.flush (Engine.store e)) engines;
      let held =
        List.map
          (fun path ->
            let s = Result.get_ok (Store.open_ ~path) in
            Store.close s;
            List.map fst (Store.recovered s).Store.entries)
          stores
      in
      String.concat ""
        (List.map
           (fun line ->
             match Protocol.parse_line line with
             | Ok (_, _, Protocol.Call c) -> (
               let key = Protocol.cache_key (fst (Protocol.canonicalize c)) in
               match
                 List.filter_map Fun.id
                   (List.mapi (fun i keys -> if List.mem key keys then Some i else None) held)
               with
               | [] -> "?"
               | [ i ] -> string_of_int i
               | _ -> "*")
             | _ -> "-")
           lines))

let test_router_placement_pinned () =
  check_str "2 shards"
    "1110000110011000000100011100001100110000001000----??--1110000110011000000100011100001100110000001000?????--11111-?-110001111110100101100111010110011101000101100100101100101100000110101110111111110111100001110111001010010000110001"
    (routed_placement 2);
  check_str "3 shards"
    "1110000112222222000120011100001122222220001200----??--1110000112222222000120011100001122222220001200?????--22111-?-110221212110120121120211020212011201202101200100122100121120002210221112111111110111120201110121221212222000110021"
    (routed_placement 3)

(* 1,000 distinct canonical keys of the seeded corpus spread evenly:
   at 2, 3 and 4 backends each holds between 0.7/N and 1.3/N of them. *)
let test_router_ring_balance () =
  let keys =
    Fusecu_oracle.Corpus.make ~prefix:[] ~seed:1 ~size:2000
    |> List.filter_map (fun line ->
           match Protocol.parse_line line with
           | Ok (_, _, Protocol.Call c) ->
             Some (Protocol.cache_key (fst (Protocol.canonicalize c)))
           | _ -> None)
    |> List.sort_uniq String.compare
  in
  check_bool "at least 1,000 distinct keys" true (List.length keys >= 1000);
  let keys = List.filteri (fun i _ -> i < 1000) keys in
  List.iter
    (fun shards ->
      let place = Router.shard_of_key ~shards in
      let held = Array.make shards 0 in
      List.iter (fun key -> held.(place key) <- held.(place key) + 1) keys;
      Array.iteri
        (fun b n ->
          let fair = 1000. /. float_of_int shards in
          if float_of_int n < 0.7 *. fair || float_of_int n > 1.3 *. fair then
            Alcotest.failf "%d shards: backend %d holds %d of 1,000 keys (%s)" shards b n
              (String.concat "/" (Array.to_list (Array.map string_of_int held))))
        held)
    [ 2; 3; 4 ]

(* A fake backend answers its first request, then closes with two
   requests outstanding: the client still gets one line per request, in
   order, and the router returns at end of input. *)
let test_router_dead_backend () =
  let requests = List.filteri (fun i _ -> i < 3) fault_requests in
  let answer = "{\"id\":1,\"ok\":true,\"op\":\"intra\",\"result\":{}}" in
  let path = sock_path () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let fake =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let chunk = Bytes.create 4096 in
        (* read until [n] request lines have arrived in all *)
        let rec await n seen =
          if seen < n then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | k ->
              let nl = ref 0 in
              Bytes.iter (fun c -> if c = '\n' then incr nl) (Bytes.sub chunk 0 k);
              await n (seen + !nl)
        in
        await 1 0;
        send_all fd (answer ^ "\n");
        await 2 0;
        Unix.close fd)
      ()
  in
  let req = Filename.temp_file "fusecu_dead" ".ndjson" in
  Out_channel.with_open_bin req (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) requests);
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let input = Unix.openfile req [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ input; resp_r; listener ];
      Sys.remove req;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      route
        ~config:{ Router.default_config with Router.idle_timeout = 10. }
        ~backends:[ path ] input resp_w;
      Unix.close resp_w;
      Thread.join fake;
      let lost =
        Protocol.response_error ~id:Json.Null ~code:Protocol.Bad_request
          ~message:"router: backend 0 closed before responding"
      in
      Alcotest.(check (list string))
        "the answer, then one error line per outstanding request"
        [ answer; lost; lost ]
        (lines_of (read_all_within resp_r ~seconds:10.)))

(* A client that writes 20,000 requests from one thread while another
   reads the answers, through a router to a server at batch 64: each
   direction carries more bytes than the socket buffers hold, so a
   router that stops reading one side while it blocks writing the
   other deadlocks. *)
let test_router_pipelined_stream () =
  let requests =
    List.init 20_000 (fun i -> List.nth fault_requests (i mod List.length fault_requests))
  in
  let expected = Engine.handle_lines (Engine.create (Engine.default_config ())) requests in
  let request_text = String.concat "" (List.map (fun l -> l ^ "\n") requests) in
  let buffered =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let n = Unix.getsockopt_int a Unix.SO_SNDBUF + Unix.getsockopt_int b Unix.SO_RCVBUF in
    Unix.close a;
    Unix.close b;
    n
  in
  check_bool "requests outgrow the socket buffers" true
    (String.length request_text > buffered);
  with_server ~batch:64 (fun ~engine:_ ~path ->
      let req_r, req_w = Unix.pipe ~cloexec:true () in
      let resp_r, resp_w = Unix.pipe ~cloexec:true () in
      let router =
        Thread.create
          (fun () ->
            route ~backends:[ path ] req_r resp_w;
            Unix.close resp_w)
          ()
      in
      let writer =
        Thread.create
          (fun () ->
            send_all req_w request_text;
            Unix.close req_w)
          ()
      in
      let text = read_all_within resp_r ~seconds:60. in
      Thread.join writer;
      Thread.join router;
      Unix.close req_r;
      Unix.close resp_r;
      check_bool "responses outgrow the socket buffers" true
        (String.length text > buffered);
      let got = lines_of text in
      check_int "one response per request" (List.length expected) (List.length got);
      check_bool "responses equal Engine.handle_lines" true (got = expected))

(* A routed closed-loop session at the default batch that pauses past
   both idle timeouts: each request is answered before the next is
   sent, the shard closes the idle connection, and the next request
   still gets its answer. *)
let test_router_idle_pause () =
  let requests = List.filteri (fun i _ -> i < 2) fault_requests in
  let expected = Engine.handle_lines (Engine.create (Engine.default_config ())) requests in
  with_server
    ~config:{ quick_config with Server.idle_timeout = 0.3 }
    (fun ~engine:_ ~path ->
      let req_r, req_w = Unix.pipe ~cloexec:true () in
      let resp_r, resp_w = Unix.pipe ~cloexec:true () in
      let router =
        Thread.create
          (fun () ->
            route
              ~config:{ Router.default_config with Router.idle_timeout = 0.3 }
              ~backends:[ path ] req_r resp_w;
            Unix.close resp_w)
          ()
      in
      let pending = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec next_line () =
        let s = Buffer.contents pending in
        match String.index_opt s '\n' with
        | Some i ->
          Buffer.clear pending;
          Buffer.add_string pending (String.sub s (i + 1) (String.length s - i - 1));
          String.sub s 0 i
        | None -> (
          match Unix.select [ resp_r ] [] [] 10. with
          | [], _, _ -> Alcotest.fail "no answer within 10 s"
          | _ -> (
            match Unix.read resp_r chunk 0 (Bytes.length chunk) with
            | 0 -> Alcotest.fail "router closed its output"
            | n ->
              Buffer.add_subbytes pending chunk 0 n;
              next_line ()))
      in
      let ask line =
        send_all req_w (line ^ "\n");
        next_line ()
      in
      let first = ask (List.nth requests 0) in
      Thread.delay 0.6;
      let second = ask (List.nth requests 1) in
      Unix.close req_w;
      Thread.join router;
      Unix.close req_r;
      Unix.close resp_r;
      Alcotest.(check (list string)) "both answers" expected [ first; second ])

(* ------------------------------------------------------------------ *)
(* Fleet: histogram codec and metric merging                           *)

let test_fleet_histogram_codec () =
  let open Fleet in
  let open Metrics in
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
    check_int "histogram counts add" 3 (hist "latency_intra").Metrics.count;
    check_int "one-sided histogram unions in" 1
      (hist "latency_chain").Metrics.count;
    (* bucket-wise, not count-wise: 1.5 ms and 2 ms share a log2 bin,
       0.5 s lands elsewhere *)
    let h = hist "latency_intra" in
    check_int "shared bin holds both sides" 2
      h.Metrics.bins.(Metrics.bucket_of_seconds 0.002);
    check_int "distant bin unmerged" 1
      h.Metrics.bins.(Metrics.bucket_of_seconds 0.5);
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

(* The fleet exposition of a router dump and two shard dumps, text
   pinned: router series unlabeled, shard series labeled, and families
   that only one process has (a counter, a gauge, histograms). *)
let test_fleet_prometheus_pinned () =
  let dump f =
    let m = Metrics.create () in
    f m;
    Metrics.to_json m
  in
  let router =
    dump (fun m ->
        Metrics.incr ~by:5 m "router_requests";
        Metrics.set_gauge m "router_inflight_shard_0" 2.;
        Metrics.set_gauge m "uptime_ticks" 5.;
        Metrics.observe m "hop" 3e-6)
  in
  let shard0 =
    dump (fun m ->
        Metrics.incr ~by:3 m "requests";
        Metrics.observe m "latency_intra" 3e-6;
        Metrics.observe m "latency_intra" 0.5;
        Metrics.set_gauge m "uptime_ticks" 3.)
  in
  let shard1 =
    dump (fun m ->
        Metrics.incr ~by:2 m "requests";
        Metrics.incr m "compute-errors";
        Metrics.observe m "latency_chain" 1e-3;
        Metrics.set_gauge m "uptime_ticks" 2.5)
  in
  match Fleet.fleet_prometheus ~router [ shard0; shard1 ] with
  | Error e -> Alcotest.fail e
  | Ok text ->
    check_str "fleet exposition"
      (String.concat "\n"
        [ "# TYPE fusecu_compute_errors counter";
          "fusecu_compute_errors{shard=\"1\"} 1";
          "# TYPE fusecu_requests counter";
          "fusecu_requests{shard=\"0\"} 3";
          "fusecu_requests{shard=\"1\"} 2";
          "# TYPE fusecu_router_requests counter";
          "fusecu_router_requests 5";
          "# TYPE fusecu_router_inflight_shard_0 gauge";
          "fusecu_router_inflight_shard_0 2";
          "# TYPE fusecu_uptime_ticks gauge";
          "fusecu_uptime_ticks 5";
          "fusecu_uptime_ticks{shard=\"0\"} 3";
          "fusecu_uptime_ticks{shard=\"1\"} 2.5";
          "# TYPE fusecu_hop_seconds histogram";
          "fusecu_hop_seconds_bucket{le=\"4e-06\"} 1";
          "fusecu_hop_seconds_bucket{le=\"+Inf\"} 1";
          "fusecu_hop_seconds_sum 3e-06";
          "fusecu_hop_seconds_count 1";
          "# TYPE fusecu_latency_chain_seconds histogram";
          "fusecu_latency_chain_seconds_bucket{shard=\"1\",le=\"0.001024\"} 1";
          "fusecu_latency_chain_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1";
          "fusecu_latency_chain_seconds_sum{shard=\"1\"} 0.001";
          "fusecu_latency_chain_seconds_count{shard=\"1\"} 1";
          "# TYPE fusecu_latency_intra_seconds histogram";
          "fusecu_latency_intra_seconds_bucket{shard=\"0\",le=\"4e-06\"} 1";
          "fusecu_latency_intra_seconds_bucket{shard=\"0\",le=\"0.524288\"} 2";
          "fusecu_latency_intra_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2";
          "fusecu_latency_intra_seconds_sum{shard=\"0\"} 0.500003";
          "fusecu_latency_intra_seconds_count{shard=\"0\"} 2";
          "" ])
      text

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
                m.Metrics.count
                = List.fold_left (fun acc h -> acc + h.Metrics.count) 0 parts
                && Array.for_all Fun.id
                     (Array.init Metrics.buckets (fun b ->
                          m.Metrics.bins.(b)
                          = List.fold_left
                              (fun acc h -> acc + h.Metrics.bins.(b))
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
        @ qcheck
            [ prop_cache_never_exceeds_capacity;
              prop_cache_matches_stamp_scan;
              prop_cache_load_matches_adds ] );
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
            test_shutdown_stops_processing;
          Alcotest.test_case "max_int buffer answered" `Quick
            test_engine_max_int_buffer ] );
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
            test_server_rejects_non_socket_path;
          Alcotest.test_case "batch outgrowing the output buffer" `Quick
            test_server_large_batch;
          Alcotest.test_case "full batch answered on an open connection"
            `Quick test_server_batch_answered_open;
          Alcotest.test_case "stalled reader of a large batch dropped" `Quick
            test_server_drops_reader_of_large_batch;
          Alcotest.test_case "stdin mode matches golden" `Quick
            test_serve_fds_matches_golden;
          Alcotest.test_case "store written before the next read" `Quick
            test_store_written_before_next_read ] );
      ( "line reader",
        [ Alcotest.test_case "bound decided before the newline" `Quick
            test_reader_bound_before_newline ]
        @ qcheck [ prop_line_reader ] );
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
            test_fleet_merge_metrics_sums;
          Alcotest.test_case "prometheus exposition pinned" `Quick
            test_fleet_prometheus_pinned ]
        @ qcheck [ prop_fleet_merge_is_sum ] );
      ( "router",
        [ Alcotest.test_case "1-shard stats byte-identity" `Quick
            test_router_single_shard_stats_identity;
          Alcotest.test_case "placement pinned at 2 and 3 shards" `Quick
            test_router_placement_pinned;
          Alcotest.test_case "dead backend owes error lines" `Quick
            test_router_dead_backend;
          Alcotest.test_case "pipelined stream" `Quick
            test_router_pipelined_stream;
          Alcotest.test_case "session survives an idle pause" `Quick
            test_router_idle_pause;
          Alcotest.test_case "ring spreads keys evenly" `Quick
            test_router_ring_balance ] ) ]