open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Space                                                               *)

let test_tile_candidates () =
  Alcotest.(check (list int)) "all" [ 1; 2; 3; 4 ] (Space.tile_candidates Space.All 4);
  Alcotest.(check (list int)) "divisors" [ 1; 2; 3; 6 ]
    (Space.tile_candidates Space.Divisors 6);
  Alcotest.(check (list int)) "pow2" [ 1; 2; 4; 6 ]
    (Space.tile_candidates Space.Pow2 6);
  List.iter
    (fun lattice ->
      List.iter
        (fun n ->
          let c = Space.tile_candidates lattice n in
          check_bool "has 1" true (List.mem 1 c);
          check_bool "has n" true (List.mem n c))
        [ 1; 7; 12; 64 ])
    [ Space.All; Space.Divisors; Space.Pow2 ]

let test_space_respects_buffer () =
  let op = Matmul.make ~m:8 ~k:8 ~l:8 () in
  let buf = Buffer.make 50 in
  List.iter
    (fun t -> check_bool "fits" true (Tiling.footprint t <= 50))
    (Space.tilings Space.All op buf);
  check_int "size = 6 x tilings"
    (6 * List.length (Space.tilings Space.All op buf))
    (Space.size Space.All op buf)

(* the counted size must equal the enumerated size on every lattice,
   including buffers that prune most of the space *)
let test_space_size_counts () =
  List.iter
    (fun (m, k, l, bytes) ->
      let op = Matmul.make ~m ~k ~l () in
      let buf = Buffer.make bytes in
      List.iter
        (fun lattice ->
          check_int
            (Printf.sprintf "counted = enumerated at %dx%dx%d/%d" m k l bytes)
            (List.length (Space.schedules lattice op buf))
            (Space.size lattice op buf))
        [ Space.All; Space.Divisors; Space.Pow2 ])
    [ (8, 8, 8, 50); (12, 10, 9, 3); (12, 10, 9, 60); (24, 24, 24, 300);
      (64, 48, 36, 100_000); (7, 7, 7, 2) ]

(* streaming fold = materialized list, and index-range partitioning
   reassembles the space exactly *)
let test_space_streaming_matches_list () =
  let op = Matmul.make ~m:12 ~k:10 ~l:9 () in
  let buf = Buffer.make 80 in
  List.iter
    (fun lattice ->
      let listed = Space.schedules lattice op buf in
      let streamed =
        List.rev (Space.fold lattice op buf ~init:[] ~f:(fun acc s -> s :: acc))
      in
      check_int "same count" (List.length listed) (List.length streamed);
      List.iter2
        (fun a b -> check_bool "same schedule" true (Schedule.equal a b))
        listed streamed;
      (* chop the raw index range into uneven pieces: concatenation must
         rebuild the same enumeration *)
      let space = Space.compile lattice op buf in
      let n = Space.raw_size space in
      let pieces = [ (0, n / 3); (n / 3, n / 2); (n / 2, n); (n, n + 5) ] in
      let chopped =
        List.concat_map
          (fun (lo, hi) ->
            List.rev
              (Space.fold_range space ~lo ~hi ~init:[]
                 ~f:(fun acc _ s -> s :: acc)))
          pieces
      in
      check_int "partitioned count" (List.length listed) (List.length chopped);
      List.iter2
        (fun a b -> check_bool "partitioned order" true (Schedule.equal a b))
        listed chopped)
    [ Space.All; Space.Divisors; Space.Pow2 ]

(* ------------------------------------------------------------------ *)
(* Exhaustive                                                          *)

let test_exhaustive_small () =
  let op = Matmul.make ~m:4 ~k:4 ~l:4 () in
  let buf = Buffer.make 48 in
  match Exhaustive.search ~lattice:Space.All op buf with
  | None -> Alcotest.fail "expected a result"
  | Some r ->
    check_bool "fits" true (Schedule.fits r.schedule buf);
    check_bool "explored all" true (r.explored = Space.size Space.All op buf);
    (* everything fits: ideal MA *)
    check_int "ideal" (Matmul.ideal_ma op) r.cost.Cost.total

let test_exhaustive_infeasible () =
  let op = Matmul.make ~m:4 ~k:4 ~l:4 () in
  check_bool "bs=2" true (Exhaustive.search (Matmul.make ~m:4 ~k:4 ~l:4 ()) (Buffer.make 2) = None);
  ignore op

let test_best_per_class () =
  let op = Matmul.make ~m:24 ~k:24 ~l:24 () in
  let buf = Buffer.make 300 in
  let per_class = Exhaustive.best_per_class ~lattice:Space.All op buf in
  check_bool "several classes present" true (List.length per_class >= 2);
  List.iter
    (fun (cls, (r : Exhaustive.result)) ->
      check_bool "class matches schedule" true
        (Nra.equal cls (Nra.class_of (Nra.classify op r.schedule))))
    per_class;
  (* the global optimum equals the best class optimum *)
  match Exhaustive.search ~lattice:Space.All op buf with
  | None -> Alcotest.fail "no optimum"
  | Some best ->
    let min_class =
      List.fold_left
        (fun acc (_, (r : Exhaustive.result)) -> min acc r.cost.Cost.total)
        max_int per_class
    in
    check_int "global = min over classes" best.cost.Cost.total min_class

(* ------------------------------------------------------------------ *)
(* Parallel determinism: the pool-split search must return bit-identical
   results to the sequential path — same schedule, same cost, same
   explored count — for any domain count.                              *)

let determinism_cases =
  [ (24, 24, 24, 300, Space.All);
    (48, 36, 60, 800, Space.Divisors);
    (64, 64, 64, 500, Space.Pow2);
    (96, 24, 48, 2000, Space.Divisors);
    (4, 4, 4, 2, Space.All) (* infeasible: both sides must agree on None *) ]

let with_pool n f =
  let pool = Fusecu_util.Pool.create n in
  Fun.protect ~finally:(fun () -> Fusecu_util.Pool.shutdown pool) (fun () ->
      f pool)

let test_parallel_search_deterministic () =
  with_pool 4 (fun pool ->
      List.iter
        (fun (m, k, l, bytes, lattice) ->
          let op = Matmul.make ~m ~k ~l () in
          let buf = Buffer.make bytes in
          let seq =
            Exhaustive.search ~lattice ~pool:Fusecu_util.Pool.sequential op buf
          in
          let par = Exhaustive.search ~lattice ~pool op buf in
          match (seq, par) with
          | None, None -> ()
          | Some s, Some p ->
            check_bool
              (Printf.sprintf "same schedule at %dx%dx%d/%d" m k l bytes)
              true
              (Schedule.equal s.schedule p.schedule);
            check_int "same cost" s.cost.Cost.total p.cost.Cost.total;
            check_int "same explored" s.explored p.explored
          | _ -> Alcotest.fail "sequential and parallel feasibility disagree")
        determinism_cases)

let test_parallel_best_per_class_deterministic () =
  with_pool 4 (fun pool ->
      List.iter
        (fun (m, k, l, bytes, lattice) ->
          let op = Matmul.make ~m ~k ~l () in
          let buf = Buffer.make bytes in
          let seq =
            Exhaustive.best_per_class ~lattice
              ~pool:Fusecu_util.Pool.sequential op buf
          in
          let par = Exhaustive.best_per_class ~lattice ~pool op buf in
          check_int "same classes" (List.length seq) (List.length par);
          List.iter2
            (fun (c1, (r1 : Exhaustive.result)) (c2, (r2 : Exhaustive.result)) ->
              check_bool "same class" true (Nra.equal c1 c2);
              check_bool "same schedule" true
                (Schedule.equal r1.schedule r2.schedule);
              check_int "same cost" r1.cost.Cost.total r2.cost.Cost.total;
              check_int "same explored" r1.explored r2.explored)
            seq par)
        determinism_cases)

let test_parallel_fused_search_deterministic () =
  with_pool 4 (fun pool ->
      let pair =
        Fused.make_pair_exn
          (Matmul.make ~name:"qk" ~m:24 ~k:6 ~l:24 ())
          (Matmul.make ~name:"sv" ~m:24 ~k:24 ~l:6 ())
      in
      List.iter
        (fun bytes ->
          let buf = Buffer.make bytes in
          let seq =
            Fused_search.exhaustive ~lattice:Space.All
              ~pool:Fusecu_util.Pool.sequential pair buf
          in
          let par = Fused_search.exhaustive ~lattice:Space.All ~pool pair buf in
          match (seq, par) with
          | None, None -> ()
          | Some s, Some p ->
            check_int "same traffic" s.traffic p.traffic;
            check_int "same explored" s.explored p.explored;
            check_bool "same producer" true
              (Schedule.equal s.fused.Fused.producer p.fused.Fused.producer);
            check_bool "same consumer" true
              (Schedule.equal s.fused.Fused.consumer p.fused.Fused.consumer)
          | _ -> Alcotest.fail "fused feasibility disagrees")
        [ 200; 1024; 4000 ])

(* the GA never touches the pool: a fixed seed must reproduce the same
   answer whatever the global domain count is *)
let test_genetic_ignores_domains () =
  let op = Matmul.make ~m:48 ~k:36 ~l:60 () in
  let buf = Buffer.make 800 in
  Fusecu_util.Pool.set_global_size 1;
  let a = Genetic.search op buf in
  Fusecu_util.Pool.set_global_size 4;
  let b = Genetic.search op buf in
  Fusecu_util.Pool.set_global_size (Fusecu_util.Pool.default_size ());
  match (a, b) with
  | Some a, Some b ->
    check_int "same traffic across domain counts" a.cost.Cost.total
      b.cost.Cost.total;
    check_bool "same schedule across domain counts" true
      (Schedule.equal a.schedule b.schedule);
    check_int "same evaluations" a.explored b.explored
  | _ -> Alcotest.fail "GA found nothing"

(* ------------------------------------------------------------------ *)
(* Genetic                                                             *)

let test_genetic_deterministic () =
  let op = Matmul.make ~m:48 ~k:36 ~l:60 () in
  let buf = Buffer.make 800 in
  match (Genetic.search op buf, Genetic.search op buf) with
  | Some a, Some b ->
    check_int "same traffic" a.cost.Cost.total b.cost.Cost.total;
    check_bool "same schedule" true (Schedule.equal a.schedule b.schedule)
  | _ -> Alcotest.fail "GA found nothing"

let test_genetic_near_optimal () =
  (* the GA should land within a modest factor of the exhaustive optimum
     on divisor-rich operators *)
  let cases =
    [ (48, 36, 60, 800); (64, 64, 64, 500); (96, 24, 48, 2000); (32, 32, 32, 4000) ]
  in
  List.iter
    (fun (m, k, l, bytes) ->
      let op = Matmul.make ~m ~k ~l () in
      let buf = Buffer.make bytes in
      match (Genetic.search op buf, Exhaustive.search op buf) with
      | Some ga, Some ex ->
        let ratio =
          float_of_int ga.cost.Cost.total /. float_of_int ex.cost.Cost.total
        in
        check_bool
          (Printf.sprintf "GA within 1.25x at %dx%dx%d/%d (got %.3f)" m k l bytes
             ratio)
          true (ratio <= 1.25)
      | _ -> Alcotest.fail "search failed")
    cases

let test_genetic_infeasible () =
  let op = Matmul.make ~m:4 ~k:4 ~l:4 () in
  check_bool "no feasible genome" true (Genetic.search op (Buffer.make 2) = None)

let test_genetic_explores_less_than_exhaustive_on_big_spaces () =
  let op = Matmul.make ~m:960 ~k:960 ~l:960 () in
  let buf = Buffer.of_kib 64 in
  match Genetic.search op buf with
  | None -> Alcotest.fail "GA found nothing"
  | Some ga ->
    check_bool "bounded evaluations" true
      (ga.explored <= 48 * 61 (* pop x (gens+1) *));
    check_bool "far smaller than the space" true
      (ga.explored < Space.size Space.Divisors op buf)

(* ------------------------------------------------------------------ *)
(* Fused search                                                        *)

let attention_pair ~m ~dh =
  Fused.make_pair_exn
    (Matmul.make ~name:"qk" ~m ~k:dh ~l:m ())
    (Matmul.make ~name:"sv" ~m ~k:m ~l:dh ())

let test_fused_exhaustive_valid () =
  let pair = attention_pair ~m:24 ~dh:6 in
  let buf = Buffer.make 1024 in
  match Fused_search.exhaustive ~lattice:Space.All pair buf with
  | None -> Alcotest.fail "no fused dataflow found"
  | Some r -> (
    match Fused.eval pair r.fused buf with
    | Ok t -> check_int "traffic consistent" t r.traffic
    | Error e -> Alcotest.failf "searched fused dataflow invalid: %s" e)

let test_fused_beats_unfused_on_attention () =
  let pair = attention_pair ~m:24 ~dh:6 in
  let buf = Buffer.make 1024 in
  let v = Fused_search.decide ~lattice:Space.All pair buf in
  check_bool "fusion wins" true v.fusion_wins

let test_fused_search_ga_close_to_exhaustive () =
  let pair = attention_pair ~m:24 ~dh:6 in
  let buf = Buffer.make 1024 in
  match
    (Fused_search.genetic ~lattice:Space.All pair buf,
     Fused_search.exhaustive ~lattice:Space.All pair buf)
  with
  | Some ga, Some ex ->
    check_bool "GA within 1.3x of optimum" true
      (float_of_int ga.traffic /. float_of_int ex.traffic <= 1.3)
  | _ -> Alcotest.fail "fused search failed"

let test_principle_fusion_close_to_searched () =
  (* Fig. 9's claim, fusion included: the principle plan is close to the
     searched one across buffer sizes. *)
  let pair = attention_pair ~m:32 ~dh:8 in
  List.iter
    (fun bytes ->
      let buf = Buffer.make bytes in
      match Fusion.plan_pair pair buf with
      | Error _ -> ()
      | Ok decision -> (
        let v = Fused_search.decide ~lattice:Space.All pair buf in
        match v.best_traffic with
        | None -> ()
        | Some best ->
          let mine = Fusion.traffic_of_decision decision in
          check_bool
            (Printf.sprintf "bs=%d: %d vs searched %d" bytes mine best)
            true
            (float_of_int mine /. float_of_int best <= 1.25)))
    [ 80; 200; 600; 1500; 4000 ]


(* ------------------------------------------------------------------ *)
(* Branch and bound: must reproduce the exhaustive optimum bit-for-bit  *)

let mode_of_lattice = function
  | Space.All -> Mode.Exact
  | Space.Divisors -> Mode.Divisors
  | Space.Pow2 -> Mode.Pow2

let principle_seed lattice op buf =
  match Intra.optimize ~mode:(mode_of_lattice lattice) op buf with
  | Ok (plan : Intra.plan) -> Some plan.schedule
  | Error _ -> None

let check_bnb_matches ?seed tag lattice op buf =
  let ex = Exhaustive.search ~lattice op buf in
  let bnb, stats = Bnb.search_with_stats ~lattice ?seed op buf in
  match (ex, bnb) with
  | None, None -> ()
  | Some e, Some b ->
    check_bool (tag ^ ": same schedule") true
      (Schedule.equal e.schedule b.schedule);
    check_int (tag ^ ": same cost") e.cost.Cost.total b.cost.Cost.total;
    (* +1: on near-empty spaces the seed's own evaluation can make the
       seeded search cost one more eval than the trivial enumeration *)
    check_bool (tag ^ ": fewer evaluations") true (b.explored <= e.explored + 1);
    check_int (tag ^ ": stats consistent") b.explored stats.Bnb.explored
  | Some _, None -> Alcotest.failf "%s: bnb missed a feasible space" tag
  | None, Some _ -> Alcotest.failf "%s: bnb invented a schedule" tag

let test_bnb_matches_exhaustive () =
  List.iter
    (fun (m, k, l, bytes, lattice) ->
      let op = Matmul.make ~m ~k ~l () in
      let buf = Buffer.make bytes in
      let tag = Printf.sprintf "%dx%dx%d/%d" m k l bytes in
      check_bnb_matches (tag ^ " unseeded") lattice op buf;
      check_bnb_matches (tag ^ " seeded") lattice op buf
        ?seed:(principle_seed lattice op buf))
    (determinism_cases
    @ [ (17, 5, 23, 120, Space.All);
        (7, 7, 7, 2, Space.All);
        (1, 96, 1, 40, Space.Divisors);
        (60, 48, 36, 100_000, Space.Divisors) (* everything fits: Large *) ])

(* an off-lattice seed (here: a Pow2-quantized plan offered to a
   Divisors search) must be discarded, not trusted as an incumbent *)
let test_bnb_ignores_foreign_seed () =
  let op = Matmul.make ~m:48 ~k:36 ~l:60 () in
  let buf = Buffer.make 800 in
  match Intra.optimize ~mode:Mode.Pow2 op buf with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check_bnb_matches "foreign seed" Space.Divisors op buf ~seed:plan.schedule

let test_bnb_prunes_hard_when_seeded () =
  (* a divisor-rich operator with a roomy buffer sits in a regime where
     the principles are exact: the seeded search must evaluate a tiny
     fraction of what enumeration would *)
  let op = Matmul.make ~m:96 ~k:24 ~l:48 () in
  let buf = Buffer.make 2000 in
  let seed = principle_seed Space.Divisors op buf in
  let r, _ = Bnb.search_with_stats ~lattice:Space.Divisors ?seed op buf in
  match (r, Exhaustive.search ~lattice:Space.Divisors op buf) with
  | Some b, Some e ->
    check_bool
      (Printf.sprintf "bnb %d evals <= 10%% of exhaustive %d" b.explored
         e.explored)
      true
      (10 * b.explored <= e.explored)
  | _ -> Alcotest.fail "search failed"

let check_bnb_fused_matches ?seed tag lattice pair buf =
  let ex = Fused_search.exhaustive ~lattice pair buf in
  let bnb = Bnb.search_fused ~lattice ?seed pair buf in
  match (ex, bnb) with
  | None, None -> ()
  | Some e, Some b ->
    check_int (tag ^ ": same traffic") e.traffic b.traffic;
    check_bool (tag ^ ": same producer") true
      (Schedule.equal e.fused.Fused.producer b.fused.Fused.producer);
    check_bool (tag ^ ": same consumer") true
      (Schedule.equal e.fused.Fused.consumer b.fused.Fused.consumer);
    check_bool (tag ^ ": fewer evaluations") true (b.explored <= e.explored)
  | Some _, None -> Alcotest.failf "%s: fused bnb missed a dataflow" tag
  | None, Some _ -> Alcotest.failf "%s: fused bnb invented a dataflow" tag

let test_bnb_fused_matches_exhaustive () =
  let pair = attention_pair ~m:24 ~dh:6 in
  List.iter
    (fun bytes ->
      let buf = Buffer.make bytes in
      let tag = Printf.sprintf "attention/%d" bytes in
      check_bnb_fused_matches (tag ^ " unseeded") Space.All pair buf;
      (* seed from the exhaustive winner itself: the tightest possible
         in-space bound must not change the answer *)
      let seed =
        Option.map
          (fun (r : Fused_search.result) -> r.fused)
          (Fused_search.exhaustive ~lattice:Space.All pair buf)
      in
      check_bnb_fused_matches (tag ^ " seeded") Space.All pair buf ?seed)
    [ 60; 200; 1024; 4000 ]

(* The six shrunk counterexamples PR 5's oracle surfaced (see
   test_oracle.ml): boundary problems that once exposed principle bugs
   are exactly where an inadmissible pruning bound would bite. *)
let pr5_counterexamples =
  [ (7, 3, 4, 2, 16);
    (2, 2, 2, 2, 7);
    (2, 2, 2, 2, 11);
    (5, 2, 4, 6, 31);
    (5, 2, 4, 6, 33);
    (6, 1, 5, 4, 16) ]

let test_bnb_pr5_counterexamples () =
  List.iter
    (fun (m, k, l, l2, bytes) ->
      let buf = Buffer.make bytes in
      let op1 = Matmul.make ~name:"p" ~m ~k ~l () in
      let op2 = Matmul.make ~name:"c" ~m ~k:l ~l:l2 () in
      let tag = Printf.sprintf "m=%d,k=%d,l=%d,l2=%d,bs=%d" m k l l2 bytes in
      List.iter
        (fun op ->
          check_bnb_matches (tag ^ " intra") Space.All op buf
            ?seed:(principle_seed Space.All op buf))
        [ op1; op2 ];
      let pair = Fused.make_pair_exn op1 op2 in
      check_bnb_fused_matches (tag ^ " fused") Space.All pair buf)
    pr5_counterexamples

(* qcheck property: on random problems spanning all three regimes (tiny
   buffers up to everything-fits), the canonicalized problem's B&B
   answer equals exhaustive's in traffic AND schedule, on every lattice,
   seeded or not. *)
let bnb_qcheck_prop =
  let gen =
    QCheck.Gen.(
      tup4 (int_range 1 14) (int_range 1 14) (int_range 1 14) (int_range 0 2))
  in
  let print (m, k, l, r) = Printf.sprintf "m=%d k=%d l=%d regime=%d" m k l r in
  QCheck.Test.make ~count:60 ~name:"bnb = exhaustive across regimes"
    (QCheck.make ~print gen)
    (fun (m, k, l, rsel) ->
      let op0 = Matmul.make ~m ~k ~l () in
      (* service-style M<->L canonicalization *)
      let op = if op0.m <= op0.l then op0 else Matmul.transpose op0 in
      let full = Matmul.ideal_ma op in
      let bytes =
        match rsel with
        | 0 -> 2 + ((m + k + l) mod 7) (* tiny, often infeasible *)
        | 1 -> max 4 (full / 3) (* partial residency *)
        | _ -> full + 8 (* everything fits: Large *)
      in
      let buf = Buffer.make bytes in
      List.iter
        (fun lattice ->
          let tag = Printf.sprintf "%s/%d" (Matmul.to_string op) bytes in
          check_bnb_matches (tag ^ " unseeded") lattice op buf;
          check_bnb_matches (tag ^ " seeded") lattice op buf
            ?seed:(principle_seed lattice op buf))
        [ Space.All; Space.Divisors; Space.Pow2 ];
      true)

(* ------------------------------------------------------------------ *)
(* Nest branch-and-bound: bit-identical to the nest exhaustive scan     *)

module NSearch = Fusecu_nest.Search
module NNest = Fusecu_nest.Nest
module NLower = Fusecu_nest.Lower

let nest_zoo () =
  [
    ("mm", NLower.of_matmul (Matmul.make ~m:12 ~k:8 ~l:10 ()), [ 40; 120; 400 ]);
    ( "conv",
      NLower.of_conv (Conv.make ~n:1 ~c:2 ~h:6 ~w:6 ~k:3 ~r:3 ~s:3 ()),
      [ 64; 200 ] );
    ("bmm", NLower.batched_mm ~b:3 ~m:4 ~k:5 ~l:6 (), [ 50; 150 ]);
    ("gmm", NLower.grouped_mm ~groups:2 ~heads:3 ~m:4 ~k:5 ~l:4 (), [ 60; 200 ]);
    ("attn", NLower.attention_pair ~seq_q:6 ~seq_k:8 ~d:4 (), [ 64; 160 ]);
    ("chain", NLower.of_chain (Chain.of_dims ~m:6 [ 4; 5; 3 ]), [ 40; 100 ]);
  ]

let check_nest_bnb_matches name lattice nest buf ?seed () =
  let exp =
    NSearch.exhaustive ~lattice nest ~capacity:(Buffer.elements buf)
  in
  let got = Nest_bnb.search ~lattice ?seed nest buf in
  match (exp, got) with
  | None, None -> ()
  | Some e, Some g ->
    check_int (name ^ " total") e.NSearch.cost.NNest.total
      g.NSearch.cost.NNest.total;
    check_int (name ^ " tiling idx") e.NSearch.tiling_index g.NSearch.tiling_index;
    check_int (name ^ " order rank") e.NSearch.order_rank g.NSearch.order_rank;
    Alcotest.(check (array int))
      (name ^ " tiles") e.NSearch.schedule.NNest.tiles
      g.NSearch.schedule.NNest.tiles;
    Alcotest.(check (array int))
      (name ^ " order") e.NSearch.schedule.NNest.order
      g.NSearch.schedule.NNest.order;
    check_bool (name ^ " no extra evals") true
      (g.NSearch.evaluated <= e.NSearch.evaluated)
  | Some _, None -> Alcotest.fail (name ^ ": nest bnb found nothing")
  | None, Some _ -> Alcotest.fail (name ^ ": nest bnb invented a result")

let test_nest_bnb_matches_exhaustive () =
  List.iter
    (fun (name, nest, sizes) ->
      List.iter
        (fun bytes ->
          let buf = Buffer.make bytes in
          List.iter
            (fun lattice ->
              check_nest_bnb_matches
                (Printf.sprintf "%s/%d" name bytes)
                lattice nest buf ())
            [ NSearch.All; NSearch.Divisors; NSearch.Pow2 ])
        sizes)
    (nest_zoo ())

let test_nest_bnb_seeds () =
  let nest = NLower.of_matmul (Matmul.make ~m:12 ~k:8 ~l:10 ()) in
  let buf = Buffer.make 64 in
  (match NSearch.exhaustive ~lattice:NSearch.Divisors nest ~capacity:64 with
  | None -> Alcotest.fail "expected a feasible schedule"
  | Some e ->
    check_nest_bnb_matches "in-space seed" NSearch.Divisors nest buf
      ~seed:e.NSearch.schedule ();
    let _, stats =
      Nest_bnb.search_with_stats ~lattice:NSearch.Divisors
        ~seed:e.NSearch.schedule nest buf
    in
    check_bool "seed prunes" true (stats.Bnb.pruned_bound > 0));
  (* 5 is off the divisor lattice of 12: the seed must be discarded,
     not trusted, and the result unchanged *)
  let off =
    NNest.schedule_make nest ~tiles:[| 5; 1; 1 |] ~order:[| 0; 1; 2 |]
  in
  check_nest_bnb_matches "off-lattice seed" NSearch.Divisors nest buf ~seed:off
    ()

let () =
  Alcotest.run "dse"
    [ ( "space",
        [ Alcotest.test_case "tile candidates" `Quick test_tile_candidates;
          Alcotest.test_case "buffer pruning" `Quick test_space_respects_buffer;
          Alcotest.test_case "size counted = enumerated" `Quick
            test_space_size_counts;
          Alcotest.test_case "streaming = list, partitionable" `Quick
            test_space_streaming_matches_list ] );
      ( "exhaustive",
        [ Alcotest.test_case "small op" `Quick test_exhaustive_small;
          Alcotest.test_case "infeasible" `Quick test_exhaustive_infeasible;
          Alcotest.test_case "best per class" `Quick test_best_per_class ] );
      ( "determinism",
        [ Alcotest.test_case "parallel search = sequential" `Quick
            test_parallel_search_deterministic;
          Alcotest.test_case "parallel best-per-class = sequential" `Quick
            test_parallel_best_per_class_deterministic;
          Alcotest.test_case "parallel fused search = sequential" `Quick
            test_parallel_fused_search_deterministic;
          Alcotest.test_case "genetic ignores FUSECU_DOMAINS" `Quick
            test_genetic_ignores_domains ] );
      ( "genetic",
        [ Alcotest.test_case "deterministic" `Quick test_genetic_deterministic;
          Alcotest.test_case "near optimal" `Quick test_genetic_near_optimal;
          Alcotest.test_case "infeasible" `Quick test_genetic_infeasible;
          Alcotest.test_case "bounded evaluations" `Quick
            test_genetic_explores_less_than_exhaustive_on_big_spaces ] );
      ( "bnb",
        [ Alcotest.test_case "matches exhaustive" `Quick
            test_bnb_matches_exhaustive;
          Alcotest.test_case "ignores off-lattice seeds" `Quick
            test_bnb_ignores_foreign_seed;
          Alcotest.test_case "seeded pruning power" `Quick
            test_bnb_prunes_hard_when_seeded;
          Alcotest.test_case "fused matches exhaustive" `Quick
            test_bnb_fused_matches_exhaustive;
          Alcotest.test_case "PR 5 counterexamples" `Quick
            test_bnb_pr5_counterexamples;
          QCheck_alcotest.to_alcotest bnb_qcheck_prop ] );
      ( "nest-bnb",
        [ Alcotest.test_case "matches nest exhaustive" `Quick
            test_nest_bnb_matches_exhaustive;
          Alcotest.test_case "seed handling" `Quick test_nest_bnb_seeds ] );
      ( "fused",
        [ Alcotest.test_case "exhaustive valid" `Quick test_fused_exhaustive_valid;
          Alcotest.test_case "fusion wins on attention" `Quick
            test_fused_beats_unfused_on_attention;
          Alcotest.test_case "GA close to exhaustive" `Quick
            test_fused_search_ga_close_to_exhaustive;
          Alcotest.test_case "principles close to searched (Fig. 9)" `Quick
            test_principle_fusion_close_to_searched ] ) ]
