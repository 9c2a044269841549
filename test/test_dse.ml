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

let test_parallel_buffer_sweep_deterministic () =
  with_pool 4 (fun pool ->
      List.iter
        (fun (m, k, l, from_bytes, to_bytes) ->
          let op = Matmul.make ~m ~k ~l () in
          let bytes =
            Buffer_sweep.geometric ~from_bytes ~to_bytes ~steps_per_octave:2 ()
          in
          let seq = Buffer_sweep.run ~pool:Fusecu_util.Pool.sequential op ~bytes in
          let par = Buffer_sweep.run ~pool op ~bytes in
          check_bool "points found" true (List.length seq > 4);
          check_bool
            (Printf.sprintf "same points at %dx%dx%d" m k l)
            true (seq = par))
        [ (64, 48, 36, 256, 4096); (1024, 768, 768, 32 * 1024, 8 * 1024 * 1024) ])

let test_parallel_workload_eval_deterministic () =
  let open Fusecu_arch in
  with_pool 4 (fun pool ->
      List.iter
        (fun (model, bytes) ->
          let workload = Fusecu_workloads.Workload.of_model model in
          let buf = Buffer.make bytes in
          let eval pool =
            match Perf.eval_workload ~pool Platform.fusecu buf workload with
            | Ok e -> e
            | Error e -> Alcotest.fail e
          in
          let seq = eval Fusecu_util.Pool.sequential and par = eval pool in
          let tag = Fusecu_workloads.Model.(model.name) in
          check_bool (tag ^ ": several segments") true
            (List.length seq.Perf.segments > 1);
          check_bool (tag ^ ": same segments") true
            (seq.Perf.segments = par.Perf.segments);
          check_int (tag ^ ": same traffic") seq.Perf.traffic par.Perf.traffic;
          check_int (tag ^ ": same cycles") seq.Perf.cycles par.Perf.cycles)
        [ ( Fusecu_workloads.Model.make ~name:"tiny" ~batch:1 ~heads:2 ~seq:32
              ~hidden:32 (),
            2048 );
          (Fusecu_workloads.Zoo.bert, 512 * 1024) ])

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
    | Error e -> Alcotest.failf "searched fused dataflow invalid: %a" Fused.pp_error e)

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

(* The paper fixtures: BERT's 1024x768x768 projection at three buffer
   sizes, each seeded from the principle plan, and the attention
   score x value pair (unseeded) at 64 KiB, all on the default lattice.
   B&B must reach the exhaustive traffic with at most a tenth of its
   evaluations, and its search tree is pinned. *)
let test_bnb_paper_fixtures () =
  let bert = Matmul.make ~name:"bert-proj" ~m:1024 ~k:768 ~l:768 () in
  let sequential = Fusecu_util.Pool.sequential in
  (* (B&B traffic, B&B stats, exhaustive traffic, enumerated) *)
  let intra kib =
    let buf = Buffer.of_kib kib in
    let seed = Result.to_option (Intra.optimize bert buf) in
    match
      ( Bnb.search_with_stats
          ?seed:(Option.map (fun (p : Intra.plan) -> p.schedule) seed)
          bert buf,
        Exhaustive.search ~pool:sequential bert buf )
    with
    | (Some b, stats), Some e ->
      (b.Exhaustive.cost.Cost.total, stats, e.Exhaustive.cost.Cost.total,
       e.Exhaustive.explored)
    | _ -> Alcotest.failf "bert at %d KiB: no schedule" kib
  in
  let fused kib =
    let pair = attention_pair ~m:1024 ~dh:64 and buf = Buffer.of_kib kib in
    match
      ( Bnb.search_fused_with_stats pair buf,
        Fused_search.exhaustive ~pool:sequential pair buf )
    with
    | (Some b, stats), Some e ->
      (b.Fused_search.traffic, stats, e.Fused_search.traffic,
       e.Fused_search.explored)
    | _ -> Alcotest.failf "attention pair at %d KiB: no dataflow" kib
  in
  List.iter
    (fun (name, run, traffic, explored, enumerated, nodes, pruned_bound,
          pruned_infeasible) ->
      let bnb_traffic, (stats : Bnb.stats), ex_traffic, ex_enumerated = run () in
      check_int (name ^ ": B&B traffic = exhaustive") ex_traffic bnb_traffic;
      check_bool
        (Printf.sprintf "%s: %d evaluations within 10%% of the %d enumerated"
           name stats.Bnb.explored ex_enumerated)
        true
        (10 * stats.Bnb.explored <= ex_enumerated);
      check_int (name ^ " traffic") traffic bnb_traffic;
      check_int (name ^ " explored") explored stats.Bnb.explored;
      check_int (name ^ " enumerated") enumerated ex_enumerated;
      check_int (name ^ " nodes") nodes stats.Bnb.nodes;
      check_int (name ^ " pruned by bound") pruned_bound stats.Bnb.pruned_bound;
      check_int (name ^ " pruned infeasible") pruned_infeasible
        stats.Bnb.pruned_infeasible)
    [ (* name, search, traffic, explored, enumerated, nodes, pruned by
         bound, pruned infeasible *)
      ("bert-512k", (fun () -> intra 512), 2752512, 7, 20988, 12, 197, 0);
      ("bert-64k", (fun () -> intra 64), 6094848, 7, 17328, 10, 160, 3);
      ("bert-8k", (fun () -> intra 8), 16318464, 666, 10956, 130, 198, 25);
      ("attention-fused-64k", (fun () -> fused 64), 655360, 6528, 77796, 57, 142, 11)
    ]

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

(* The B&B tree on the beyond-matmul zoo, pinned: nodes, evaluations
   and prunes, the winner's (total, tiling index, order rank), and the
   enumeration's evaluations. Buffers are in elements; the strided conv
   gets a tighter one so that feasibility pruning binds, and the
   attention pair a larger one. A change to the cost, validity or bound
   kernels that keeps the answers but moves any of these has changed
   the search, and with it the wire's [evaluated] field. Apart from the
   pins, the B&B winner must be the exhaustive winner, its traffic must
   not undercut [Bound.ideal], and it must evaluate no more schedules
   than the enumeration. *)
let nest_tree_pins =
  [ (* name, capacity, nodes, evaluated, pruned by bound, pruned
       infeasible, total, tiling index, order rank, enumerated *)
    ("conv3x3", 1024, 4321, 418198, 105, 304, 13248, 3343, 0, 457798);
    ("conv3x3-strided", 512, 368, 17916, 0, 47, 6808, 279, 1, 17916);
    ("conv1x1", 1024, 59, 163, 20, 0, 4944, 133, 0, 1002);
    ("bmm-heads", 1024, 55, 504, 159, 9, 344064, 33, 3, 19542);
    ("gqa-scores", 1024, 1096, 68676, 755, 563, 1605632, 33, 16, 166584);
    ("attn-pair", 2048, 1561, 4114, 408, 271, 69632, 1231, 2, 5998) ]

let test_nest_bnb_tree_pinned () =
  check_int "every zoo nest pinned"
    (List.length Fusecu_workloads.Zoo.nest_cases)
    (List.length nest_tree_pins);
  List.iter
    (fun (name, capacity, nodes, evaluated, pruned_bound, pruned_infeasible,
          total, ti, rank, enumerated) ->
      let nest = List.assoc name Fusecu_workloads.Zoo.nest_cases in
      let r, stats = Nest_bnb.search_with_stats nest (Buffer.make capacity) in
      let r = Option.get r in
      let e =
        match NSearch.exhaustive nest ~capacity with
        | Some e -> e
        | None -> Alcotest.fail (name ^ ": exhaustive found nothing")
      in
      Alcotest.(check (triple int int int))
        (name ^ ": B&B winner = exhaustive winner")
        (e.NSearch.cost.NNest.total, e.NSearch.tiling_index, e.NSearch.order_rank)
        (r.NSearch.cost.NNest.total, r.NSearch.tiling_index, r.NSearch.order_rank);
      check_bool (name ^ ": traffic >= ideal") true
        (r.NSearch.cost.NNest.total >= Fusecu_nest.Bound.ideal nest);
      check_bool (name ^ ": evaluated <= enumerated") true
        (r.NSearch.evaluated <= e.NSearch.evaluated);
      check_int (name ^ " nodes") nodes stats.Bnb.nodes;
      check_int (name ^ " explored") evaluated stats.Bnb.explored;
      check_int (name ^ " pruned by bound") pruned_bound stats.Bnb.pruned_bound;
      check_int (name ^ " pruned infeasible") pruned_infeasible
        stats.Bnb.pruned_infeasible;
      check_int (name ^ " total") total r.NSearch.cost.NNest.total;
      check_int (name ^ " tiling index") ti r.NSearch.tiling_index;
      check_int (name ^ " order rank") rank r.NSearch.order_rank;
      check_int (name ^ " evaluated") evaluated r.NSearch.evaluated;
      check_int (name ^ " enumerated") enumerated e.NSearch.evaluated)
    nest_tree_pins

(* The same tree on the other two lattices: nodes, evaluations, both
   prune counts and the winner's (total, tiling index, order rank). As
   above, a change to the kernels that keeps the answers but moves any
   of these has changed the search. No exhaustive scan here: on [All]
   the conv enumerations run to tens of millions of schedules. *)
let nest_tree_pins_other_lattices =
  [ (* lattice, name, capacity, nodes, evaluated, pruned by bound,
       pruned infeasible, total, tiling index, order rank *)
    (NSearch.Pow2, "conv3x3", 1024, 6153, 970142, 83, 611, 13248, 5138, 0);
    (NSearch.Pow2, "conv3x3-strided", 512, 3012, 441544, 0, 391, 6528, 2369, 4);
    (NSearch.Pow2, "conv1x1", 1024, 121, 1011, 52, 0, 4944, 553, 0);
    (NSearch.Pow2, "bmm-heads", 1024, 49, 504, 122, 9, 344064, 33, 3);
    (NSearch.Pow2, "gqa-scores", 1024, 1096, 68676, 755, 563, 1605632, 33, 16);
    (NSearch.Pow2, "attn-pair", 2048, 1561, 4114, 408, 271, 69632, 1231, 2);
    (NSearch.All, "conv3x3", 1024, 209435, 65349988, 3873, 91113, 13248, 317816, 0);
    (NSearch.All, "conv3x3-strided", 512, 35053, 10383300, 0, 13811, 6360, 53129, 4);
    (NSearch.All, "conv1x1", 1024, 800, 9271, 855, 0, 4944, 50112, 0);
    (NSearch.All, "bmm-heads", 1024, 159, 1146, 5397, 1048, 294912, 1375, 3);
    (NSearch.All, "gqa-scores", 1024, 89214, 9367596, 52271, 396635, 1343488, 1375, 16);
    (NSearch.All, "attn-pair", 2048, 2150325, 8154882, 404556, 3577151, 49152, 53247, 1) ]

let test_nest_bnb_tree_pinned_other_lattices () =
  List.iter
    (fun (lattice, tag) ->
      check_int ("every zoo nest pinned on " ^ tag)
        (List.length Fusecu_workloads.Zoo.nest_cases)
        (List.length
           (List.filter
              (fun (l, _, _, _, _, _, _, _, _, _) -> l = lattice)
              nest_tree_pins_other_lattices)))
    [ (NSearch.Pow2, "pow2"); (NSearch.All, "all") ];
  List.iter
    (fun (lattice, name, capacity, nodes, evaluated, pruned_bound,
          pruned_infeasible, total, ti, rank) ->
      let nest = List.assoc name Fusecu_workloads.Zoo.nest_cases in
      let r, stats =
        Nest_bnb.search_with_stats ~lattice nest (Buffer.make capacity)
      in
      let r = Option.get r in
      let name = name ^ if lattice = NSearch.All then "/all" else "/pow2" in
      check_int (name ^ " nodes") nodes stats.Bnb.nodes;
      check_int (name ^ " explored") evaluated stats.Bnb.explored;
      check_int (name ^ " pruned by bound") pruned_bound stats.Bnb.pruned_bound;
      check_int (name ^ " pruned infeasible") pruned_infeasible
        stats.Bnb.pruned_infeasible;
      check_int (name ^ " total") total r.NSearch.cost.NNest.total;
      check_int (name ^ " tiling index") ti r.NSearch.tiling_index;
      check_int (name ^ " order rank") rank r.NSearch.order_rank;
      check_int (name ^ " evaluated") evaluated r.NSearch.evaluated)
    nest_tree_pins_other_lattices

(* Every search in a process shares the order-class tables ([Search]'s
   memo), and none of that may show. Over the zoo nests (Divisors and
   Pow2, at the pinned capacities; on All their exhaustive scans run to
   millions of schedules) and random small problems on all three
   lattices, with structures interleaved: a first and a second search
   return the same answer, [evaluated] included, and both equal
   [Search.exhaustive]'s; so do searches through a 2-domain pool and
   from two systhreads of one domain; and a caller that scribbles over
   a returned order changes no later answer. Every search shares the
   memo, so each winner is also held to a scan of every order at its
   tiling through [Nest.valid] and [Nest.eval], which read no table.
   Besides the five served kinds, the problems include two matmul
   twins of the same rank and tensor count, one with its output
   internal and one with its projections swapped, so a memo key that
   dropped the internal flags or the used axes would hand one of them
   the matmul's table. *)
let memo_problems () =
  let module Rng = Fusecu_oracle.Rng in
  let module L = Fusecu_nest.Lower in
  let rng = Rng.make 11 in
  let small _ =
    let d () = Rng.range rng ~lo:1 ~hi:10 in
    (* matmul's rank and tensor count, another structure; extents up to
       24 against the buffers below make several loops active *)
    let twin ?internal name a b c =
      let d () = Rng.range rng ~lo:4 ~hi:24 in
      let m = d () and k = d () and l = d () in
      NNest.make ~name ~axes:[| "m"; "k"; "l" |] ~extents:[| m; k; l |]
        ~tensors:
          [ NNest.tensor "A" [ NNest.Point 0; NNest.Point a ];
            NNest.tensor "B" [ NNest.Point b; NNest.Point 2 ];
            NNest.tensor ?internal "C" [ NNest.Point 0; NNest.Point c ] ]
    in
    let nest =
      match Rng.int rng 7 with
      | 0 -> twin "matmul" 1 1 2
      | 1 ->
        L.of_kind (L.N_batched_mm { b = Rng.range rng ~lo:1 ~hi:4; m = d (); k = d (); l = d () })
      | 2 ->
        let g () = Rng.range rng ~lo:1 ~hi:3 in
        L.of_kind (L.N_grouped_mm { groups = g (); heads = g (); m = d (); k = d (); l = d () })
      | 3 -> L.of_kind (L.N_attention { seq_q = d (); seq_k = d (); d = d (); dv = d () })
      | 4 ->
        let hw = Rng.range rng ~lo:3 ~hi:7 and r = Rng.choose rng [ 1; 3 ] in
        L.of_conv
          (Conv.make ~n:1 ~c:(Rng.range rng ~lo:1 ~hi:4) ~h:hw ~w:hw
             ~k:(Rng.range rng ~lo:1 ~hi:4) ~r ~s:r ~stride:(Rng.range rng ~lo:1 ~hi:2)
             ~padding:(Rng.range rng ~lo:0 ~hi:1) ())
      | 5 -> twin ~internal:true "mm-internal-out" 1 1 2
      | _ -> twin "mm-swapped" 2 1 1
    in
    let lattice = Rng.choose rng [ NSearch.All; NSearch.Divisors; NSearch.Pow2 ] in
    (nest.NNest.name, lattice, nest, Rng.range rng ~lo:8 ~hi:400)
  in
  let zoo =
    List.concat_map
      (fun (name, capacity, _, _, _, _, _, _, _, _) ->
        let nest = List.assoc name Fusecu_workloads.Zoo.nest_cases in
        [ (name, NSearch.Divisors, nest, capacity); (name, NSearch.Pow2, nest, capacity) ])
      nest_tree_pins
  in
  (* a zoo problem after every fifth random one *)
  List.concat
    (List.mapi
       (fun i p -> if i mod 5 = 4 then [ p; List.nth zoo (i / 5) ] else [ p ])
       (List.init (5 * List.length zoo) small))

(* Everything a search returns, printed. *)
let show_answer nest (r : NSearch.result option) ~with_evaluated =
  match r with
  | None -> "none"
  | Some r ->
    Printf.sprintf "%s per [%s] total %d ti %d rank %d%s"
      (NNest.schedule_to_string nest r.NSearch.schedule)
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun (p : NNest.per_tensor) ->
                 Printf.sprintf "%d,%d,%d" p.NNest.fetches p.NNest.traffic p.NNest.revisit)
               r.NSearch.cost.NNest.per)))
      r.NSearch.cost.NNest.total r.NSearch.tiling_index r.NSearch.order_rank
      (if with_evaluated then Printf.sprintf " evaluated %d" r.NSearch.evaluated else "")

(* The winner's (total, order rank) is the first minimum of a scan of
   every order at its tiling, and its order and cost are that order's. *)
let scan_winner (name, lattice, nest, capacity) (r : NSearch.result) =
  let tiles = r.NSearch.schedule.NNest.tiles in
  let sp = NSearch.compile ~lattice nest ~capacity in
  let first = ref None in
  List.iteri
    (fun rank order ->
      let s = { NNest.tiles; order } in
      if NNest.valid nest s then begin
        let cost = NNest.eval nest s in
        match !first with
        | Some (f : NSearch.result) when f.NSearch.cost.NNest.total <= cost.NNest.total -> ()
        | _ -> first := Some { r with NSearch.schedule = s; cost; order_rank = rank }
      end)
    (NSearch.orders sp ~trips:(NNest.trips_of nest tiles));
  Alcotest.(check string)
    (Printf.sprintf "%s/%d: winner = scan of its tiling" name capacity)
    (show_answer nest !first ~with_evaluated:false)
    (show_answer nest (Some r) ~with_evaluated:false)

let test_nest_memo_invisible () =
  let problems = Array.of_list (memo_problems ()) in
  let search (_, lattice, nest, capacity) =
    Nest_bnb.search ~lattice nest (Buffer.make capacity)
  in
  let shown rs =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let name, _, nest, capacity = problems.(i) in
           Printf.sprintf "%s/%d: %s" name capacity (show_answer nest r ~with_evaluated:true))
         rs)
  in
  (* results in problem order, searched forwards or backwards *)
  let search_all ~backwards =
    let n = Array.length problems in
    let rs = Array.make n None in
    for j = 0 to n - 1 do
      let i = if backwards then n - 1 - j else j in
      rs.(i) <- search problems.(i)
    done;
    rs
  in
  let cold_results = search_all ~backwards:false in
  let cold = shown cold_results in
  let warm = shown (search_all ~backwards:true) in
  Alcotest.(check (list string)) "warm = cold" cold warm;
  Array.iteri
    (fun i r ->
      let name, lattice, nest, capacity = problems.(i) in
      Alcotest.(check string)
        (Printf.sprintf "%s/%d = exhaustive" name capacity)
        (show_answer nest (NSearch.exhaustive ~lattice nest ~capacity) ~with_evaluated:false)
        (show_answer nest r ~with_evaluated:false);
      Option.iter (scan_winner problems.(i)) r)
    cold_results;
  with_pool 2 (fun pool ->
      Alcotest.(check (list string)) "2-domain pool = sequential" cold
        (shown (Fusecu_util.Pool.parallel_map ~pool search problems)));
  let threaded = Array.make 2 [||] in
  let threads =
    List.init 2 (fun t ->
        Thread.create
          (fun () -> threaded.(t) <- search_all ~backwards:(t = 1))
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun t rs ->
      Alcotest.(check (list string))
        (Printf.sprintf "systhread %d = sequential" t) cold (shown rs))
    threaded;
  Array.iter
    (Option.iter (fun (r : NSearch.result) ->
         Array.fill r.NSearch.schedule.NNest.order 0
           (Array.length r.NSearch.schedule.NNest.order) 0))
    cold_results;
  Alcotest.(check (list string)) "after the caller mutates its orders" cold
    (shown (search_all ~backwards:false))

(* A search builds one cost record, for its winner, after the search:
   it must be [Nest.eval] of the returned schedule, field for field,
   from [Nest_bnb.search] and from [Search.exhaustive]. Over the zoo
   nests on all three lattices at their pinned capacities and the
   random problems of "order-class memo invisible". *)
let test_nest_result_cost () =
  let zoo_all =
    List.map
      (fun (name, capacity, _, _, _, _, _, _, _, _) ->
        (name, NSearch.All, List.assoc name Fusecu_workloads.Zoo.nest_cases, capacity))
      nest_tree_pins
  in
  let checked = ref 0 in
  List.iter
    (fun (name, lattice, nest, capacity) ->
      let check_cost searcher (r : NSearch.result option) =
        Option.iter
          (fun (r : NSearch.result) ->
            incr checked;
            let ctx = Printf.sprintf "%s/%d %s" name capacity searcher in
            let want = NNest.eval nest r.NSearch.schedule in
            let per (c : NNest.cost) =
              Array.to_list
                (Array.map
                   (fun (p : NNest.per_tensor) -> (p.NNest.fetches, p.NNest.traffic, p.NNest.revisit))
                   c.NNest.per)
            in
            check_int (ctx ^ " total") want.NNest.total r.NSearch.cost.NNest.total;
            Alcotest.(check (list (triple int int int)))
              (ctx ^ " per tensor (fetches, traffic, revisit)")
              (per want) (per r.NSearch.cost))
          r
      in
      check_cost "nest_bnb" (Nest_bnb.search ~lattice nest (Buffer.make capacity));
      check_cost "exhaustive" (NSearch.exhaustive ~lattice nest ~capacity))
    (memo_problems () @ zoo_all);
  check_bool "most problems feasible" true (!checked > List.length (memo_problems ()))

(* The search tree beyond the zoo: 300 problems shaped like perfbench's
   nest_miss requests (its five kinds in about its mix, its size
   ranges, buffers in elements), a third on each lattice; on All,
   where every tile is a candidate, the attention templates are halved
   to keep those searches short. Pinned: the sums of nodes,
   evaluations and both prune counts, and a hash of every winner's
   (total, tiling index, order rank). The six zoo nests alone would let
   an inexact bound or class table through that still moves a served
   [evaluated]. The values were printed by the build before the
   shared order-class tables and the incremental bound trips. *)
let nest_miss_sample () =
  let module Rng = Fusecu_oracle.Rng in
  let module L = Fusecu_nest.Lower in
  let rng = Rng.make 0x6e657374 in
  let mult ~step ~lo ~hi = step * Rng.range rng ~lo:(lo / step) ~hi:(hi / step) in
  let conv ?(stride = 1) ?(padding = 0) ~c ~hw ~k ~r () =
    L.N_conv2d (Conv.make ~n:1 ~c ~h:hw ~w:hw ~k ~r ~s:r ~stride ~padding ())
  in
  let problem lattice =
    match Rng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
      let d () = mult ~step:16 ~lo:16 ~hi:256 in
      let m = d () and k = d () and l = d () in
      (L.N_matmul { m; k; l }, mult ~step:64 ~lo:256 ~hi:4096)
    | 7 | 8 | 9 | 10 | 11 ->
      let d () = mult ~step:16 ~lo:16 ~hi:96 in
      let b = Rng.range rng ~lo:2 ~hi:16 in
      let m = d () and k = d () and l = d () in
      (L.N_batched_mm { b; m; k; l }, mult ~step:64 ~lo:512 ~hi:2048)
    | 12 | 13 | 14 | 15 ->
      let hw = Rng.range rng ~lo:4 ~hi:14 and c = Rng.choose rng [ 4; 8; 16 ] in
      (conv ~c ~hw ~k:(Rng.choose rng [ 4; 8; 16 ]) ~r:1 (), mult ~step:64 ~lo:512 ~hi:1024)
    | 16 ->
      let g () = Rng.choose rng [ 2; 4 ] and d () = Rng.choose rng [ 16; 32; 48 ] in
      let groups = g () and heads = g () in
      let m = d () and k = d () and l = d () in
      (L.N_grouped_mm { groups; heads; m; k; l }, 1024)
    | 17 ->
      let h = if lattice = NSearch.All then 2 else 1 in
      let s () = Rng.choose rng [ 32; 48; 64 ] / h and d = Rng.choose rng [ 32; 64 ] / h in
      let seq_q = s () and seq_k = s () in
      (L.N_attention { seq_q; seq_k; d; dv = d }, 2048 / h)
    | _ ->
      let c = Rng.choose rng [ 4; 8 ] and k = Rng.choose rng [ 4; 8 ] in
      let hw = Rng.range rng ~lo:5 ~hi:7 in
      ( (if Rng.bool rng then conv ~c ~hw ~k ~r:3 ()
         else conv ~stride:2 ~padding:1 ~c ~hw ~k ~r:3 ()),
        768 )
  in
  List.init 300 (fun i ->
      let lattice =
        match i mod 3 with 0 -> NSearch.Divisors | 1 -> NSearch.Pow2 | _ -> NSearch.All
      in
      let kind, capacity = problem lattice in
      (kind, capacity, lattice))

let test_nest_bnb_tree_pinned_sample () =
  let nodes = ref 0 and evaluated = ref 0 and pruned_bound = ref 0 in
  let pruned_infeasible = ref 0 and hash = ref 0 and infeasible = ref 0 in
  List.iter
    (fun (kind, capacity, lattice) ->
      let r, stats =
        Nest_bnb.search_with_stats ~lattice (Fusecu_nest.Lower.of_kind kind)
          (Buffer.make capacity)
      in
      nodes := !nodes + stats.Bnb.nodes;
      evaluated := !evaluated + stats.Bnb.explored;
      pruned_bound := !pruned_bound + stats.Bnb.pruned_bound;
      pruned_infeasible := !pruned_infeasible + stats.Bnb.pruned_infeasible;
      match r with
      | None -> incr infeasible
      | Some r ->
        List.iter
          (fun v -> hash := (!hash * 65599) + v)
          [ r.NSearch.cost.NNest.total; r.NSearch.tiling_index; r.NSearch.order_rank ];
        hash := !hash land max_int)
    (nest_miss_sample ());
  check_int "nodes" 301107 !nodes;
  check_int "evaluated" 2861806 !evaluated;
  check_int "pruned by bound" 606077 !pruned_bound;
  check_int "pruned infeasible" 302906 !pruned_infeasible;
  check_int "infeasible problems" 0 !infeasible;
  check_int "winners' hash" 83146701692568231 !hash

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
          Alcotest.test_case "parallel buffer sweep = sequential" `Quick
            test_parallel_buffer_sweep_deterministic;
          Alcotest.test_case "parallel workload eval = sequential" `Quick
            test_parallel_workload_eval_deterministic;
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
          Alcotest.test_case "paper fixtures pinned" `Quick
            test_bnb_paper_fixtures;
          QCheck_alcotest.to_alcotest bnb_qcheck_prop ] );
      ( "nest-bnb",
        [ Alcotest.test_case "matches nest exhaustive" `Quick
            test_nest_bnb_matches_exhaustive;
          Alcotest.test_case "seed handling" `Quick test_nest_bnb_seeds;
          Alcotest.test_case "zoo search tree pinned" `Quick
            test_nest_bnb_tree_pinned;
          Alcotest.test_case "zoo search tree pinned on pow2 and all" `Quick
            test_nest_bnb_tree_pinned_other_lattices;
          Alcotest.test_case "order-class memo invisible" `Quick
            test_nest_memo_invisible;
          Alcotest.test_case "search tree pinned on a nest_miss sample" `Quick
            test_nest_bnb_tree_pinned_sample;
          Alcotest.test_case "result cost = Nest.eval of its schedule" `Quick
            test_nest_result_cost ] );
      ( "fused",
        [ Alcotest.test_case "exhaustive valid" `Quick test_fused_exhaustive_valid;
          Alcotest.test_case "fusion wins on attention" `Quick
            test_fused_beats_unfused_on_attention;
          Alcotest.test_case "GA close to exhaustive" `Quick
            test_fused_search_ga_close_to_exhaustive;
          Alcotest.test_case "principles close to searched (Fig. 9)" `Quick
            test_principle_fusion_close_to_searched ] ) ]
