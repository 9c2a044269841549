open Fusecu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_ceil_div () =
  check_int "exact" 4 (Arith.ceil_div 8 2);
  check_int "round up" 5 (Arith.ceil_div 9 2);
  check_int "one" 1 (Arith.ceil_div 1 128);
  check_int "zero" 0 (Arith.ceil_div 0 7)

let test_clamp () =
  check_int "below" 3 (Arith.clamp ~lo:3 ~hi:9 1);
  check_int "above" 9 (Arith.clamp ~lo:3 ~hi:9 99);
  check_int "inside" 5 (Arith.clamp ~lo:3 ~hi:9 5)

let test_isqrt () =
  check_int "0" 0 (Arith.isqrt 0);
  check_int "1" 1 (Arith.isqrt 1);
  check_int "8" 2 (Arith.isqrt 8);
  check_int "9" 3 (Arith.isqrt 9);
  check_int "large" 1024 (Arith.isqrt (1024 * 1024));
  check_int "large-1" 1023 (Arith.isqrt ((1024 * 1024) - 1))

(* Boundary behaviour near max_int: the naive fix-up squared [r + 1],
   which wraps negative for n >= 2^62 and used to report e.g.
   isqrt max_int = 2^31 - 1 instead of floor(sqrt(2^62 - 1)). *)
let test_isqrt_boundaries () =
  let isqrt_max = 2147483647 in
  (* 2^31 - 1 = floor(sqrt(2^62 - 1)) *)
  check_int "max_int" isqrt_max (Arith.isqrt max_int);
  check_int "max_int - 1" isqrt_max (Arith.isqrt (max_int - 1));
  (* exact square just below the overflow frontier *)
  check_int "(2^31 - 1)^2" isqrt_max (Arith.isqrt (isqrt_max * isqrt_max));
  check_int "(2^31 - 1)^2 - 1" (isqrt_max - 1)
    (Arith.isqrt ((isqrt_max * isqrt_max) - 1));
  check_int "2^60 is a square" (1 lsl 30) (Arith.isqrt (1 lsl 60));
  check_int "2^61" 1518500249 (Arith.isqrt (1 lsl 61));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Arith.isqrt: negative argument") (fun () ->
      ignore (Arith.isqrt (-1)));
  (* the invariant holds at every boundary point, checked without
     squaring (the squares themselves would overflow) *)
  List.iter
    (fun n ->
      let r = Arith.isqrt n in
      check_bool "r*r <= n (division form)" true (r = 0 || r <= n / r);
      check_bool "(r+1)^2 > n (division form)" true (r + 1 > n / (r + 1)))
    [ max_int; max_int - 1; (1 lsl 62) - 1; 1 lsl 61; (1 lsl 61) - 1 ]

(* isqrt (n + c) past max_int: the principle builders' symmetric tiles
   for a buffer of max_int bytes. *)
let test_isqrt_add () =
  let isqrt_max = 2147483647 in
  check_int "no overflow" 3 (Arith.isqrt_add 8 1);
  check_int "no overflow, below a square" 2 (Arith.isqrt_add 7 1);
  check_int "max_int + 0" isqrt_max (Arith.isqrt_add max_int 0);
  (* max_int + 1 = 2^62 = (2^31)^2 *)
  check_int "max_int + 1" (isqrt_max + 1) (Arith.isqrt_add max_int 1);
  check_int "max_int + 4" (isqrt_max + 1) (Arith.isqrt_add max_int 4);
  check_int "max_int - 3 + 4" (isqrt_max + 1) (Arith.isqrt_add (max_int - 3) 4);
  check_int "max_int - 4 + 4" isqrt_max (Arith.isqrt_add (max_int - 4) 4);
  List.iter
    (fun (n, c) -> check_int "= isqrt (n + c)" (Arith.isqrt (n + c)) (Arith.isqrt_add n c))
    [ (0, 0); (0, 4); (1, 1); (max_int - 4, 4); (max_int - 1, 1); (1 lsl 61, 4) ]

let prop_isqrt =
  QCheck.Test.make ~count:500 ~name:"isqrt bounds" QCheck.(int_bound 1_000_000)
    (fun n ->
      let r = Arith.isqrt n in
      r * r <= n && (r + 1) * (r + 1) > n)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Arith.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Arith.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 13 ] (Arith.divisors 13);
  Alcotest.(check (list int)) "square" [ 1; 3; 9 ] (Arith.divisors 9)

(* the streaming space enumerator leans on these lattices: pin down the
   edge cases (1, primes, perfect squares, large dims) explicitly *)
let test_divisors_edge_cases () =
  Alcotest.(check (list int)) "2" [ 1; 2 ] (Arith.divisors 2);
  Alcotest.(check (list int)) "large prime" [ 1; 97 ] (Arith.divisors 97);
  Alcotest.(check (list int)) "perfect square 36"
    [ 1; 2; 3; 4; 6; 9; 12; 18; 36 ] (Arith.divisors 36);
  Alcotest.(check (list int)) "prime square 49" [ 1; 7; 49 ] (Arith.divisors 49);
  check_int "768 divisor count" 18 (List.length (Arith.divisors 768));
  check_int "1024 divisor count" 11 (List.length (Arith.divisors 1024));
  List.iter
    (fun n ->
      let ds = Arith.divisors n in
      check_bool "sorted strictly increasing" true
        (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length ds - 1) ds)
           (List.tl ds));
      check_bool "starts at 1, ends at n" true
        (List.hd ds = 1 && List.nth ds (List.length ds - 1) = n))
    [ 1; 2; 16; 36; 97; 360; 1024 ]

let prop_divisors_pair_up =
  QCheck.Test.make ~count:200 ~name:"d divides n iff n/d divides n"
    QCheck.(1 -- 5000)
    (fun n ->
      let ds = Arith.divisors n in
      List.for_all (fun d -> List.mem (n / d) ds) ds)

let test_pow2s_edge_cases () =
  Alcotest.(check (list int)) "upto 1" [ 1 ] (Arith.pow2s_upto 1);
  Alcotest.(check (list int)) "upto 2" [ 1; 2 ] (Arith.pow2s_upto 2);
  Alcotest.(check (list int)) "upto 3" [ 1; 2 ] (Arith.pow2s_upto 3);
  Alcotest.(check (list int)) "upto exact pow2" [ 1; 2; 4; 8; 16 ]
    (Arith.pow2s_upto 16);
  Alcotest.(check (list int)) "upto pow2-1" [ 1; 2; 4; 8 ]
    (Arith.pow2s_upto 15);
  Alcotest.(check (list int)) "upto prime 97" [ 1; 2; 4; 8; 16; 32; 64 ]
    (Arith.pow2s_upto 97);
  check_int "upto 1024 count" 11 (List.length (Arith.pow2s_upto 1024))

let prop_divisors =
  QCheck.Test.make ~count:200 ~name:"divisors divide" QCheck.(1 -- 5000)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Arith.divisors n))

let test_pow2 () =
  check_bool "1" true (Arith.is_pow2 1);
  check_bool "768" false (Arith.is_pow2 768);
  check_bool "1024" true (Arith.is_pow2 1024);
  check_bool "0" false (Arith.is_pow2 0);
  check_int "next 1000" 1024 (Arith.next_pow2 1000);
  check_int "next 1024" 1024 (Arith.next_pow2 1024);
  Alcotest.(check (list int)) "upto 9" [ 1; 2; 4; 8 ] (Arith.pow2s_upto 9)

(* next_pow2 used to loop forever past the last representable power of
   two ([p * 2] wraps negative, so [p >= n] never fires). *)
let test_next_pow2_boundaries () =
  check_int "max_pow2 is 2^61" (1 lsl 61) Arith.max_pow2;
  check_int "at the frontier" Arith.max_pow2 (Arith.next_pow2 Arith.max_pow2);
  check_int "just below the frontier" Arith.max_pow2
    (Arith.next_pow2 (Arith.max_pow2 - 1));
  check_int "one past the previous power" Arith.max_pow2
    (Arith.next_pow2 ((Arith.max_pow2 lsr 1) + 1));
  Alcotest.check_raises "past the frontier terminates with an error"
    (Invalid_argument "Arith.next_pow2: no representable power of two >= n")
    (fun () -> ignore (Arith.next_pow2 (Arith.max_pow2 + 1)));
  Alcotest.check_raises "max_int terminates with an error"
    (Invalid_argument "Arith.next_pow2: no representable power of two >= n")
    (fun () -> ignore (Arith.next_pow2 max_int));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Arith.next_pow2: argument must be >= 1") (fun () ->
      ignore (Arith.next_pow2 0))

let test_gcd_negative () =
  check_int "both negative" 24 (Arith.gcd (-120) (-72));
  check_int "first negative" 24 (Arith.gcd (-120) 72);
  check_int "second negative" 24 (Arith.gcd 120 (-72));
  check_int "negative with zero" 7 (Arith.gcd (-7) 0);
  check_int "zero with negative" 7 (Arith.gcd 0 (-7));
  (* gcd(2^62, 2^62 - 2) = 2; the point is that it terminates even
     though [abs min_int = min_int] *)
  check_int "min_int terminates" 2 (Arith.gcd min_int (max_int - 1));
  check_int "min_int with odd" 1 (Arith.gcd min_int max_int)

let prop_gcd_total =
  QCheck.Test.make ~count:500 ~name:"gcd total and sign-insensitive"
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let g = Arith.gcd a b in
      if a = 0 && b = 0 then g = 0
      else g > 0 && abs a mod g = 0 && abs b mod g = 0)

let test_misc_arith () =
  check_int "gcd" 24 (Arith.gcd 120 72);
  check_int "gcd zero" 7 (Arith.gcd 0 7);
  Alcotest.(check (list int)) "range" [ 3; 4; 5 ] (Arith.range 3 5);
  Alcotest.(check (list int)) "range empty" [] (Arith.range 5 3);
  check_int "sum" 10 (Arith.sum [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "dedup" [ 1; 2; 5 ] (Arith.dedup_sorted [ 5; 1; 2; 1; 5 ])

let feq = Alcotest.(check (float 1e-9))

let test_stats () =
  feq "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  feq "geomean" 2. (Stats.geomean [ 1.; 4. ]);
  feq "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  feq "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  feq "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  feq "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  feq "stddev const" 0. (Stats.stddev [ 2.; 2.; 2. ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats: empty list")
    (fun () -> ignore (Stats.mean []))

let prop_geomean_le_mean =
  QCheck.Test.make ~count:200 ~name:"geomean <= mean"
    QCheck.(list_of_size Gen.(1 -- 10) (float_range 0.01 100.))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let test_units_pp () =
  check_str "bytes" "768B" (Units.pp_bytes 768);
  check_str "kb" "512KB" (Units.pp_bytes (Units.kib 512));
  check_str "mb" "32MB" (Units.pp_bytes (Units.mib 32));
  check_str "frac" "1.50KB" (Units.pp_bytes 1536);
  check_str "count" "1.50K" (Units.pp_count 1500);
  check_str "pct" "63.6%" (Units.pp_pct 0.636);
  check_str "ratio" "1.33x" (Units.pp_ratio 1.33)

let test_units_parse () =
  let ok = Alcotest.(check (result int string)) in
  ok "plain" (Ok 4096) (Units.parse_bytes "4096");
  ok "kb" (Ok 524288) (Units.parse_bytes "512KB");
  ok "kib" (Ok 524288) (Units.parse_bytes "512KiB");
  ok "mb" (Ok 33554432) (Units.parse_bytes "32mb");
  ok "gb" (Ok (1 lsl 30)) (Units.parse_bytes "1G");
  check_bool "garbage" true (Result.is_error (Units.parse_bytes "lots"));
  check_bool "empty" true (Result.is_error (Units.parse_bytes ""))

let prop_units_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse_bytes inverts kib"
    QCheck.(1 -- 100000)
    (fun n -> Units.parse_bytes (string_of_int n ^ "KB") = Ok (Units.kib n))

(* decimal-looking suffixes are binary by doc: 1.5MB = 1.5 * 2^20 *)
let test_units_parse_fractional () =
  let ok = Alcotest.(check (result int string)) in
  ok "1.5MB" (Ok 1572864) (Units.parse_bytes "1.5MB");
  ok "1.5KB" (Ok 1536) (Units.parse_bytes "1.5KB");
  ok "1.5KiB" (Ok 1536) (Units.parse_bytes "1.5KiB");
  ok "0.5GB" (Ok (1 lsl 29)) (Units.parse_bytes "0.5gb");
  ok "2.5k" (Ok 2560) (Units.parse_bytes "2.5k");
  ok "0.25MB" (Ok (256 * 1024)) (Units.parse_bytes "0.25MB");
  ok "1.5TB" (Ok (3 * (1 lsl 39))) (Units.parse_bytes "1.5TB");
  (* fractions must scale to whole bytes; bare fractional bytes never do *)
  check_bool "fractional bytes" true (Result.is_error (Units.parse_bytes "1.5"));
  check_bool "fractional B suffix" true
    (Result.is_error (Units.parse_bytes "1.5B"));
  ok "0.3KB rounds" (Ok 307) (Units.parse_bytes "0.3KB");
  check_bool "negative" true (Result.is_error (Units.parse_bytes "-1KB"));
  check_bool "negative fraction" true
    (Result.is_error (Units.parse_bytes "-1.5KB"));
  check_bool "nan" true (Result.is_error (Units.parse_bytes "nanKB"))

(* the integer fast path must detect multiplier overflow, not wrap:
   8388609 * 2^40 > 2^62 - 1 used to come back negative *)
let test_units_parse_overflow () =
  let ok = Alcotest.(check (result int string)) in
  check_bool "8388609TB rejected" true
    (Result.is_error (Units.parse_bytes "8388609TB"));
  check_bool "huge KB rejected" true
    (Result.is_error (Units.parse_bytes "4611686018427387904KB"));
  (* the largest representable TB count still parses exactly *)
  ok "4194303TB" (Ok (4194303 * (1 lsl 40))) (Units.parse_bytes "4194303TB");
  check_bool "4194304TB rejected" true
    (Result.is_error (Units.parse_bytes "4194304TB"));
  (* the fractional path has its own guard *)
  check_bool "8388609.5TB rejected" true
    (Result.is_error (Units.parse_bytes "8388609.5TB"))

let prop_units_parse_non_negative =
  QCheck.Test.make ~count:1000 ~name:"accepted parse_bytes is non-negative"
    QCheck.(
      pair
        (oneof [ 0 -- 100000; map abs int ])
        (oneofl [ ""; "B"; "KB"; "KiB"; "MB"; "GB"; "TB"; "k"; "m"; "g"; "t" ]))
    (fun (n, suffix) ->
      match Units.parse_bytes (string_of_int n ^ suffix) with
      | Error _ -> true (* overflow may be rejected, never wrapped *)
      | Ok v ->
        (* non-negative, and re-rendering parses back to the same count
           (pp_bytes rounds to two decimals: 0.5% + 1B tolerance) *)
        v >= 0
        &&
        (match Units.parse_bytes (Units.pp_bytes v) with
        | Error _ -> false
        | Ok w ->
          Float.abs (float_of_int (w - v))
          <= Float.max 1. (0.005 *. float_of_int v)))

let test_units_pp_negative () =
  (* the sign is re-attached after scaling the magnitude: a negative
     count must pick the same unit as its absolute value *)
  check_str "-512B" "-512B" (Units.pp_bytes (-512));
  check_str "-1.50KB" "-1.50KB" (Units.pp_bytes (-1536));
  check_str "-3MB" "-3MB" (Units.pp_bytes (-3 * 1024 * 1024));
  check_str "-100000B scales" "-97.66KB" (Units.pp_bytes (-100000));
  check_str "count" "-1.50K" (Units.pp_count (-1500));
  check_str "zero" "0B" (Units.pp_bytes 0)

let test_units_pp_parse_roundtrip () =
  let ok = Alcotest.(check (result int string)) in
  List.iter
    (fun n -> ok (Units.pp_bytes n) (Ok n) (Units.parse_bytes (Units.pp_bytes n)))
    [ 0; 1; 512; 1023; 1024; 1536; 524288; 1 lsl 20; 3 lsl 20; 1 lsl 29;
      1 lsl 30; 1 lsl 40; 3 * (1 lsl 39) ]

(* pp_bytes rounds to two decimals, so the generic inverse is only
   approximate: within 0.5% (plus one byte for sub-KB exact prints) *)
let prop_units_pp_parse_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse_bytes . pp_bytes ~= id"
    QCheck.(0 -- (1 lsl 41))
    (fun n ->
      match Units.parse_bytes (Units.pp_bytes n) with
      | Error _ -> false
      | Ok m ->
        let tolerance = Float.max 1. (0.005 *. float_of_int n) in
        Float.abs (float_of_int (m - n)) <= tolerance)

let test_table () =
  let t =
    Table.create [ "name"; "value" ]
    |> fun t -> Table.add_rows t [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let rendered = Table.render t in
  check_bool "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "|"
    && String.length (String.trim rendered) > 10);
  (* all lines equally wide *)
  let lines = String.split_on_char '\n' (String.trim rendered) in
  let widths = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun w -> w = List.hd widths) widths);
  check_int "line count" 4 (List.length lines)

let test_table_padding () =
  let t = Table.create [ "a"; "b"; "c" ] in
  let t = Table.add_row t [ "only" ] in
  check_bool "renders" true (String.length (Table.render t) > 0);
  Alcotest.check_raises "too many"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      ignore (Table.add_row t [ "1"; "2"; "3"; "4" ]))


let test_csv_render () =
  let doc =
    Csv.create [ "a"; "b" ]
    |> fun d -> Csv.add_rows d [ [ "1"; "2" ]; [ "x,y"; "he said \"hi\"" ] ]
  in
  Alcotest.(check string) "rfc4180"
    "a,b\n1,2\n\"x,y\",\"he said \"\"hi\"\"\"\n" (Csv.render doc);
  Alcotest.check_raises "width" (Invalid_argument "Csv.add_row: width mismatch")
    (fun () -> ignore (Csv.add_row doc [ "only" ]))

let test_csv_escape () =
  check_str "plain" "abc" (Csv.escape "abc");
  check_str "comma" "\"a,b\"" (Csv.escape "a,b");
  check_str "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

(* ------------------------------------------------------------------ *)
(* Log: leveled NDJSON records through a capturing sink *)

let with_log_capture level f =
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  Log.set_level level;
  Fun.protect
    ~finally:(fun () -> Log.set_level None)
    (fun () -> f (fun () -> List.rev !lines))

let test_log_levels () =
  with_log_capture (Some Log.Warn) (fun captured ->
      check_bool "warn enabled" true (Log.enabled Log.Warn);
      check_bool "error enabled" true (Log.enabled Log.Error);
      check_bool "info filtered" false (Log.enabled Log.Info);
      Log.debug "dropped";
      Log.info "dropped";
      Log.warn "kept";
      Log.error "kept too";
      check_int "only warn and error emitted" 2 (List.length (captured ())));
  with_log_capture None (fun captured ->
      check_bool "off disables everything" false (Log.enabled Log.Error);
      Log.error "dropped";
      check_int "nothing emitted when off" 0 (List.length (captured ())))

let test_log_record_shape () =
  with_log_capture (Some Log.Debug) (fun captured ->
      Log.info ~fields:[ ("op", Json.String "intra"); ("n", Json.Int 3) ]
        "hello";
      match captured () with
      | [ line ] -> (
        match Json.parse line with
        | Error e -> Alcotest.failf "record is not JSON: %s" e
        | Ok obj ->
          check_bool "has ts" true (Json.member "ts" obj <> None);
          Alcotest.(check (option string)) "level"
            (Some "info")
            (Option.bind (Json.member "level" obj) (fun v ->
                 Result.to_option (Json.to_string_v v)));
          Alcotest.(check (option string)) "msg" (Some "hello")
            (Option.bind (Json.member "msg" obj) (fun v ->
                 Result.to_option (Json.to_string_v v)));
          Alcotest.(check (option string)) "field op" (Some "intra")
            (Option.bind (Json.member "op" obj) (fun v ->
                 Result.to_option (Json.to_string_v v)));
          check_bool "field n" true (Json.member "n" obj = Some (Json.Int 3)))
      | l -> Alcotest.failf "expected 1 record, got %d" (List.length l))

(* Process identity on every record: pid always, shard once set (the
   router sets it in forked children). Runs after the other log tests —
   set_shard is one-way, as in a real shard process. *)
let test_log_process_identity () =
  with_log_capture (Some Log.Debug) (fun captured ->
      Log.info "before shard";
      Log.set_shard 3;
      Log.warn "after shard";
      match captured () with
      | [ first; second ] ->
        (match Json.parse first with
        | Ok obj ->
          check_bool "pid present" true
            (Json.member "pid" obj = Some (Json.Int (Unix.getpid ())));
          check_bool "no shard before set_shard" true
            (Json.member "shard" obj = None)
        | Error e -> Alcotest.failf "first record is not JSON: %s" e);
        (match Json.parse second with
        | Ok obj ->
          check_bool "pid still present" true
            (Json.member "pid" obj = Some (Json.Int (Unix.getpid ())));
          check_bool "shard tagged" true
            (Json.member "shard" obj = Some (Json.Int 3))
        | Error e -> Alcotest.failf "second record is not JSON: %s" e)
      | l -> Alcotest.failf "expected 2 records, got %d" (List.length l))

let test_log_level_of_string () =
  let ok s = match Log.level_of_string s with Ok l -> l | Error e -> Alcotest.fail e in
  check_bool "debug" true (ok "debug" = Some Log.Debug);
  check_bool "INFO case-insensitive" true (ok "INFO" = Some Log.Info);
  check_bool "warning alias" true (ok "warning" = Some Log.Warn);
  check_bool "warn" true (ok "warn" = Some Log.Warn);
  check_bool "error" true (ok "error" = Some Log.Error);
  check_bool "off" true (ok "off" = None);
  check_bool "none" true (ok "none" = None);
  check_bool "unknown rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Json numeric round-trips                                            *)

let json_roundtrip v =
  match Json.parse (Json.print v) with
  | Ok v' -> Json.equal v v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_numeric_corners () =
  (* negative zero survives (sign bit included) *)
  check_bool "-0.0" true (json_roundtrip (Json.Float (-0.0)));
  (match Json.parse (Json.print (Json.Float (-0.0))) with
  | Ok (Json.Float f) ->
    check_bool "-0.0 sign bit" true (1. /. f = Float.neg_infinity)
  | _ -> Alcotest.fail "-0.0 did not reparse as a float");
  (* beyond-53-bit magnitudes and the int/float boundary *)
  List.iter
    (fun f -> check_bool (string_of_float f) true (json_roundtrip (Json.Float f)))
    [ 1e22; 1.0000000000000002e22; 9007199254740992.0 (* 2^53 *);
      9007199254740994.0; Float.max_float; Float.min_float; 4.5e-300 ];
  List.iter
    (fun i -> check_bool (string_of_int i) true (json_roundtrip (Json.Int i)))
    [ max_int; min_int; 9007199254740993 (* not float-representable *) ];
  (* int overflow in the text widens to float... *)
  (match Json.parse "4611686018427387904" with
  | Ok (Json.Float f) -> check_bool "widened" true (f = 4.611686018427388e18)
  | _ -> Alcotest.fail "int overflow did not widen");
  (* ...but a widening that overflows to infinity is malformed, not
     silently accepted as an unprintable value (the round-trip bug) *)
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok v ->
        Alcotest.failf "overflowing literal %s accepted as %s" text
          (Json.print v))
    [ "1e999"; "-1e999"; "1" ^ String.make 400 '0';
      "[1, 2, 1e400]"; "{\"x\": -1e999}" ];
  (* NaN/infinity are not printable either way *)
  List.iter
    (fun f ->
      match Json.print (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "non-finite printed as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"json float round-trip"
    QCheck.(float)
    (fun f ->
      if Float.is_finite f then json_roundtrip (Json.Float f)
      else
        match Json.print (Json.Float f) with
        | exception Invalid_argument _ -> true
        | _ -> false)

(* [Json.float_repr] as it was written with [Printf]: calling the C
   formatter directly must not move a byte. *)
let printf_float_repr f =
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let prop_json_float_printf =
  let open QCheck in
  let finite =
    Gen.(
      frequency
        [ (2, map float_of_int int);
          (2, map2 (fun a b -> float_of_int a /. float_of_int b)
                (int_range (-1000) 1000) (int_range 1 1000));
          (* subnormals *)
          (1, map (fun m -> Float.ldexp (float_of_int m) (-1074))
                (int_range 1 ((1 lsl 52) - 1)));
          (1, map3 (fun neg m big ->
                  let x = m *. if big then 1e300 else 1e-300 in
                  if neg then -.x else x)
                bool (float_range 1. 10.) bool);
          (2, map (fun f -> if Float.is_finite f then f else 0.) float) ])
  in
  Test.make ~count:2000 ~name:"json float prints as Printf %g"
    (make ~print:Print.float finite)
    (fun f -> Json.print (Json.Float f) = printf_float_repr f)

let prop_json_int_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"json int round-trip"
    QCheck.(frequency [ (4, int); (1, oneofl [ max_int; min_int; 0; -1 ]) ])
    (fun i -> json_roundtrip (Json.Int i))

let qsuite = List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250704 |]))
  [ prop_isqrt; prop_gcd_total; prop_divisors; prop_divisors_pair_up;
    prop_geomean_le_mean;
    prop_units_roundtrip; prop_units_pp_parse_roundtrip;
    prop_units_parse_non_negative; prop_json_float_roundtrip;
    prop_json_float_printf;
    prop_json_int_roundtrip ]

(* Pinned vectors: the store's record framing (CRC-32) and the cache /
   router placement hash (63-bit FNV-1a) are on-disk and cross-process
   contracts — silently changing either would orphan every persisted
   record and reshuffle shard placement. *)
let test_hash_vectors () =
  Alcotest.(check int) "crc32 check value" 0xCBF43926 (Hash.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Hash.crc32 "");
  Alcotest.(check int) "fnv empty" 860922984064492325
    (Hash.fnv1a64_positive "");
  Alcotest.(check int) "fnv a" 3414815163700866188 (Hash.fnv1a64_positive "a");
  Alcotest.(check int) "fnv ring point" 4235901432644666212
    (Hash.fnv1a64_positive "backend-0-vnode-0");
  check_bool "positive" true
    (List.for_all
       (fun s -> Hash.fnv1a64_positive s >= 0)
       [ ""; "x"; "intra|m=64|k=64|l=64|b=131072"; String.make 1000 '\xff' ])

let test_hash_crc_incremental () =
  (* ?init chains partial computations like zlib's crc32() *)
  let whole = Hash.crc32 "hello world" in
  let part = Hash.crc32 ~init:(Hash.crc32 "hello ") "world" in
  Alcotest.(check int) "incremental = whole" whole part

let () =
  Alcotest.run "util"
    [ ( "arith",
        [ Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          Alcotest.test_case "isqrt boundaries" `Quick test_isqrt_boundaries;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "divisors edge cases" `Quick
            test_divisors_edge_cases;
          Alcotest.test_case "pow2s edge cases" `Quick test_pow2s_edge_cases;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "next_pow2 boundaries" `Quick
            test_next_pow2_boundaries;
          Alcotest.test_case "gcd negative" `Quick test_gcd_negative;
          Alcotest.test_case "misc" `Quick test_misc_arith;
          Alcotest.test_case "isqrt_add past max_int" `Quick test_isqrt_add ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats ] );
      ( "units",
        [ Alcotest.test_case "pretty-print" `Quick test_units_pp;
          Alcotest.test_case "parse" `Quick test_units_parse;
          Alcotest.test_case "parse fractional" `Quick
            test_units_parse_fractional;
          Alcotest.test_case "parse overflow" `Quick test_units_parse_overflow;
          Alcotest.test_case "pretty-print negative" `Quick
            test_units_pp_negative;
          Alcotest.test_case "pp/parse round trip" `Quick
            test_units_pp_parse_roundtrip ] );
      ( "hash",
        [ Alcotest.test_case "pinned vectors" `Quick test_hash_vectors;
          Alcotest.test_case "crc incremental" `Quick
            test_hash_crc_incremental ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table;
          Alcotest.test_case "padding" `Quick test_table_padding ] );
      ( "csv",
        [ Alcotest.test_case "render" `Quick test_csv_render;
          Alcotest.test_case "escape" `Quick test_csv_escape ] );
      ( "json",
        [ Alcotest.test_case "numeric corners" `Quick
            test_json_numeric_corners ] );
      ( "log",
        [ Alcotest.test_case "level filtering" `Quick test_log_levels;
          Alcotest.test_case "record shape" `Quick test_log_record_shape;
          Alcotest.test_case "level_of_string" `Quick
            test_log_level_of_string;
          Alcotest.test_case "process identity" `Quick
            test_log_process_identity ] );
      ("properties", qsuite) ]
