open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let nra_t : Nra.t Alcotest.testable = Alcotest.testable Nra.pp Nra.equal

let regime_t : Regime.t Alcotest.testable =
  Alcotest.testable Regime.pp Regime.equal

(* ------------------------------------------------------------------ *)
(* The paper's worked example (Sec. III-A):
   BERT MM 1024x768x768 with a 512 KB buffer. *)

let bert = Matmul.make ~name:"bert" ~m:1024 ~k:768 ~l:768 ()

let test_paper_example_regime () =
  let buf = Buffer.of_kib 512 in
  let th = Regime.thresholds bert in
  check_int "Dmin^2/2" (768 * 768 / 2) th.small_max;
  (* exact Large boundary: smallest tensor resident plus one row and
     one column of the other two (the paper's asymptotic Tensor_min) *)
  check_int "FP3min - 1" ((768 * 768) + 768 + 768 - 1) th.medium_max;
  Alcotest.check regime_t "medium buffer" Regime.Medium (Regime.classify bert buf)

let test_paper_example_dataflow () =
  let buf = Buffer.of_kib 512 in
  let plan = Intra.optimize_exn ~mode:Mode.Divisors bert buf in
  (match plan.dataflow with
  | Nra.Two_nra { untiled = Dim.K; redundant = Operand.B } -> ()
  | d -> Alcotest.failf "expected Two-NRA untiled K: %s" (Nra.dataflow_to_string d));
  check_int "T_M = 512 (paper)" 512 (Tiling.get plan.schedule.tiling Dim.M);
  check_int "T_L = 1" 1 (Tiling.get plan.schedule.tiling Dim.L);
  check_bool "K untiled" true (Tiling.untiled bert plan.schedule.tiling Dim.K);
  check_int "MA(B) = 2KL (paper)" (2 * 768 * 768) plan.cost.b.traffic;
  check_int "MA(A) = MK" (1024 * 768) plan.cost.a.traffic;
  check_int "MA(C) = ML" (1024 * 768) plan.cost.c.traffic

(* ------------------------------------------------------------------ *)
(* Regimes                                                             *)

let test_regime_bands () =
  (* square operator: Dmin = 64, min tensor = 4096 *)
  let op = Matmul.make ~m:64 ~k:64 ~l:64 () in
  let classify bytes = Regime.classify op (Buffer.make bytes) in
  Alcotest.check regime_t "tiny" Regime.Tiny (classify (64 * 64 / 4));
  Alcotest.check regime_t "small low" Regime.Small (classify ((64 * 64 / 4) + 1));
  Alcotest.check regime_t "small high" Regime.Small (classify (64 * 64 / 2));
  Alcotest.check regime_t "medium" Regime.Medium (classify ((64 * 64 / 2) + 1));
  (* Three-NRA is infeasible until the 64x64 tensor fits together with a
     64-row and a 64-column working tile, so Medium extends to 4223 *)
  Alcotest.check regime_t "medium high" Regime.Medium (classify ((64 * 64) + 127));
  Alcotest.check regime_t "large" Regime.Large (classify ((64 * 64) + 128))

(* Exact boundary arithmetic on every regime edge, for an odd and an
   even Dmin: bs <= floor(Dmin^2/4) is exactly the integer form of the
   paper's real-valued bound, and the Large edge is the exact Three-NRA
   feasibility footprint. *)
let test_regime_exact_boundaries () =
  let check_edges op =
    let th = Regime.thresholds op in
    let classify bs = Regime.classify op (Buffer.make bs) in
    Alcotest.check regime_t "tiny top" Regime.Tiny (classify th.tiny_max);
    Alcotest.check regime_t "small bottom" Regime.Small (classify (th.tiny_max + 1));
    Alcotest.check regime_t "small top" Regime.Small (classify th.small_max);
    Alcotest.check regime_t "medium bottom" Regime.Medium
      (classify (th.small_max + 1));
    Alcotest.check regime_t "medium top" Regime.Medium (classify th.medium_max);
    Alcotest.check regime_t "large bottom" Regime.Large (classify (th.medium_max + 1))
  in
  (* odd Dmin = 7: Dmin^2 = 49, floors at 12 / 24 *)
  let odd = Matmul.make ~m:7 ~k:9 ~l:11 () in
  let th = Regime.thresholds odd in
  check_int "odd tiny_max" 12 th.tiny_max;
  check_int "odd small_max" 24 th.small_max;
  check_int "odd medium_max" ((7 * 9) + 7 + 9 - 1) th.medium_max;
  check_edges odd;
  (* even Dmin = 8 *)
  let even = Matmul.make ~m:8 ~k:10 ~l:12 () in
  let th = Regime.thresholds even in
  check_int "even tiny_max" 16 th.tiny_max;
  check_int "even small_max" 32 th.small_max;
  check_int "even medium_max" ((8 * 10) + 8 + 10 - 1) th.medium_max;
  check_edges even

(* Dmin^2 on a pathological operator exceeds max_int; the thresholds
   must saturate rather than wrap negative (which used to classify
   every buffer as Large). *)
let test_regime_threshold_overflow () =
  let huge = 1 lsl 31 in
  let op = Matmul.make ~m:huge ~k:huge ~l:huge () in
  let th = Regime.thresholds op in
  check_bool "tiny_max positive" true (th.tiny_max > 0);
  check_bool "monotone" true
    (th.tiny_max <= th.small_max && th.small_max <= th.medium_max);
  check_int "tiny_max saturated" (max_int / 4) th.tiny_max;
  Alcotest.check regime_t "1M-element buffer is Tiny" Regime.Tiny
    (Regime.classify op (Buffer.make 1_000_000))

let test_expected_classes () =
  Alcotest.(check (list nra_t)) "tiny" [ Nra.Single ]
    (Regime.expected_classes Regime.Tiny);
  Alcotest.(check (list nra_t)) "small" [ Nra.Single; Nra.Two ]
    (Regime.expected_classes Regime.Small);
  Alcotest.(check (list nra_t)) "medium" [ Nra.Single; Nra.Two ]
    (Regime.expected_classes Regime.Medium);
  Alcotest.(check (list nra_t)) "large" [ Nra.Three ]
    (Regime.expected_classes Regime.Large)

(* The regime table predicts the class of the searched optimum (checked
   away from the exact boundaries, where either neighbour is allowed). *)
let test_regime_predicts_search () =
  let op = Matmul.make ~m:48 ~k:32 ~l:40 () in
  List.iter
    (fun bytes ->
      let buf = Buffer.make bytes in
      match Exhaustive.search ~lattice:Space.All op buf with
      | None -> Alcotest.fail "search infeasible"
      | Some best ->
        let cls = Nra.class_of (Nra.classify op best.schedule) in
        let expected = Regime.expected_classes (Regime.classify op buf) in
        check_bool
          (Printf.sprintf "bs=%d class %s in predicted set" bytes
             (Nra.to_string cls))
          true
          (List.mem cls expected))
    [ 128; 900; 4000 ]

(* ------------------------------------------------------------------ *)
(* Principle builders                                                  *)

let test_single_builder_shape () =
  let op = Matmul.make ~m:100 ~k:100 ~l:100 () in
  let buf = Buffer.make 200 in
  List.iter
    (fun stationary ->
      let cands = Principles.single Mode.Exact op buf ~stationary in
      check_bool "has candidates" true (cands <> []);
      List.iter
        (fun (c : Principles.candidate) ->
          check_bool "fits" true (Schedule.fits c.schedule buf);
          check_bool "stationary is NRA" true
            (Cost.is_nra op c.schedule stationary))
        cands)
    Operand.all

let test_two_builder_shape () =
  let op = Matmul.make ~m:64 ~k:16 ~l:64 () in
  let buf = Buffer.make 200 in
  List.iter
    (fun untiled ->
      List.iter
        (fun redundant ->
          let cands = Principles.two Mode.Exact op buf ~untiled ~redundant in
          List.iter
            (fun (c : Principles.candidate) ->
              check_bool "fits" true (Schedule.fits c.schedule buf);
              check_bool "untiled dim untiled" true
                (Tiling.untiled op c.schedule.tiling untiled))
            cands)
        (Operand.with_dim untiled))
    Dim.all;
  Alcotest.check_raises "bad redundant"
    (Invalid_argument "Principles.two: redundant operand must use the untiled dim")
    (fun () ->
      ignore (Principles.two Mode.Exact op buf ~untiled:Dim.K ~redundant:Operand.C))

let test_three_builder_shape () =
  let op = Matmul.make ~m:16 ~k:8 ~l:12 () in
  let big = Buffer.make 4096 in
  List.iter
    (fun resident ->
      match Principles.three Mode.Exact op big ~resident with
      | [ c ] ->
        check_int "ideal MA" (Matmul.ideal_ma op) (Cost.eval op c.schedule).total;
        check_int "three NRA" 3 (Cost.nra_count op c.schedule)
      | _ -> Alcotest.fail "expected exactly one candidate")
    Operand.all;
  let tiny = Buffer.make 16 in
  check_int "infeasible -> none" 0
    (List.length (Principles.three Mode.Exact op tiny ~resident:Operand.C))

let test_divisor_mode_quantizes () =
  let op = Matmul.make ~m:1024 ~k:768 ~l:768 () in
  let buf = Buffer.of_kib 512 in
  List.iter
    (fun (c : Principles.candidate) ->
      List.iter
        (fun d ->
          let t = Tiling.get c.schedule.tiling d in
          check_int
            (Printf.sprintf "tile %d divides %d" t (Matmul.dim op d))
            0
            (Matmul.dim op d mod t))
        Dim.all)
    (Intra.candidates ~mode:Mode.Divisors op buf)

(* Pow2 plans must reach the Pow2-lattice optimum. These oracle
   counterexamples fail when a builder trip-aligns a tile before
   rounding it onto the lattice, which loses a trip on Pow2 (a 23-long
   dimension with a budget of 18 goes 18 -> 12 -> 8, never 16): the
   principles then return 516, 987 and 856 here, and 369 on the pair. *)
let test_pow2_intra_optimal () =
  List.iter
    (fun (m, k, l, bs, optimum) ->
      let op = Matmul.make ~m ~k ~l () and buf = Buffer.make bs in
      let name = Printf.sprintf "%s bs=%d" (Matmul.to_string op) bs in
      match
        ( Intra.optimize ~mode:Mode.Pow2 op buf,
          Exhaustive.search ~lattice:Space.Pow2 op buf )
      with
      | Ok plan, Some best ->
        check_int (name ^ " exhaustive") optimum best.Exhaustive.cost.Cost.total;
        check_int (name ^ " principles") optimum (Intra.ma plan)
      | _ -> Alcotest.failf "%s: expected a feasible plan and optimum" name)
    [ (12, 6, 10, 29, 492); (9, 17, 12, 47, 975); (20, 6, 23, 137, 838) ]

let test_pow2_fuse_optimal () =
  let op1 = Matmul.make ~m:3 ~k:4 ~l:6 () in
  let pair = Fused.make_pair_exn op1 (Matmul.make ~m:3 ~k:6 ~l:23 ()) in
  let buf = Buffer.make 20 in
  let verdict = Fused_search.decide ~lattice:Space.Pow2 pair buf in
  Alcotest.(check (option int)) "exhaustive" (Some 348) verdict.Fused_search.best_traffic;
  match Fusion.plan_pair ~mode:Mode.Pow2 ~strategy:Fusion.Best_of_both pair buf with
  | Ok decision ->
    check_int "best-of-both" 348 (Fusion.traffic_of_decision decision)
  | Error e -> Alcotest.fail e

let prop_snap_smallest_of_its_trips =
  QCheck.Test.make ~count:1000
    ~name:"snap: smallest lattice tile of quantize's trip count"
    (QCheck.make
       ~print:(fun (mode, d, t) -> Format.asprintf "%a D=%d t=%d" Mode.pp mode d t)
       QCheck.Gen.(
         let* mode = oneofl [ Mode.Exact; Mode.Divisors; Mode.Pow2 ] in
         let* d = oneof [ int_range 1 64; int_range 1 4096 ] in
         let* t = int_range (-2) (d + 8) in
         return (mode, d, t)))
    (fun (mode, d, t) ->
      let op = Matmul.make ~m:d ~k:1 ~l:1 () in
      let q = Mode.quantize mode op Dim.M t and s = Mode.snap mode op Dim.M t in
      let lattice =
        Space.tile_candidates
          (match mode with
          | Mode.Exact -> Space.All
          | Mode.Divisors -> Space.Divisors
          | Mode.Pow2 -> Space.Pow2)
          d
      in
      let trips x = Fusecu_util.Arith.ceil_div d x in
      List.mem s lattice
      && trips s = trips q
      && List.for_all (fun x -> trips x <> trips s || x >= s) lattice
      && (mode = Mode.Exact || s = q))

(* ------------------------------------------------------------------ *)
(* Optimality: principles == exhaustive search                         *)

let gen_small_case =
  QCheck.Gen.(
    let* m = int_range 1 24 and* k = int_range 1 24 and* l = int_range 1 24 in
    let* bytes = int_range 3 600 in
    return (Matmul.make ~m ~k ~l (), bytes))

let arb_small_case =
  QCheck.make
    ~print:(fun (op, bytes) -> Printf.sprintf "%s bs=%d" (Matmul.to_string op) bytes)
    gen_small_case

let prop_principles_match_exhaustive =
  QCheck.Test.make ~count:250
    ~name:"principle-built dataflow matches exhaustive optimum" arb_small_case
    (fun (op, bytes) ->
      let buf = Buffer.make bytes in
      match (Intra.optimize op buf, Exhaustive.search ~lattice:Space.All op buf) with
      | Ok plan, Some best -> Intra.ma plan = best.cost.Cost.total
      | Error _, None -> true
      | Error _, Some _ | Ok _, None -> false)

let prop_principles_match_exhaustive_medium =
  QCheck.Test.make ~count:40 ~name:"principle optimum holds at medium dims"
    (QCheck.make
       ~print:(fun (op, bytes) ->
         Printf.sprintf "%s bs=%d" (Matmul.to_string op) bytes)
       QCheck.Gen.(
         let* m = int_range 8 64 and* k = int_range 8 64 and* l = int_range 8 64 in
         let* bytes = int_range 8 4000 in
         return (Matmul.make ~m ~k ~l (), bytes)))
    (fun (op, bytes) ->
      let buf = Buffer.make bytes in
      match (Intra.optimize op buf, Exhaustive.search ~lattice:Space.All op buf) with
      | Ok plan, Some best -> Intra.ma plan = best.cost.Cost.total
      | Error _, None -> true
      | Error _, Some _ | Ok _, None -> false)

let prop_optimizer_monotone_in_buffer =
  QCheck.Test.make ~count:100 ~name:"more buffer never hurts"
    (QCheck.make
       ~print:(fun ((op, b1), b2) ->
         Printf.sprintf "%s %d->%d" (Matmul.to_string op) b1 b2)
       QCheck.Gen.(
         let* case = gen_small_case in
         let* extra = int_range 0 500 in
         return (case, snd case + extra)))
    (fun ((op, b1), b2) ->
      match
        (Intra.optimize op (Buffer.make b1), Intra.optimize op (Buffer.make b2))
      with
      | Ok p1, Ok p2 -> Intra.ma p2 <= Intra.ma p1
      | Error _, _ -> true
      | Ok _, Error _ -> false)

let prop_redundancy_at_least_one =
  QCheck.Test.make ~count:150 ~name:"redundancy >= 1" arb_small_case
    (fun (op, bytes) ->
      match Intra.optimize op (Buffer.make bytes) with
      | Ok plan -> Intra.redundancy plan >= 1.0 -. 1e-9
      | Error _ -> true)

let test_large_buffer_hits_lower_bound () =
  let op = Matmul.make ~m:64 ~k:32 ~l:48 () in
  let buf = Buffer.make 100000 in
  let plan = Intra.optimize_exn op buf in
  check_int "ideal" (Matmul.ideal_ma op) (Intra.ma plan);
  Alcotest.check nra_t "three" Nra.Three (Nra.class_of plan.dataflow)

let test_infeasible_buffer () =
  let op = Matmul.make ~m:4 ~k:4 ~l:4 () in
  check_bool "bs=2 impossible" true
    (Result.is_error (Intra.optimize op (Buffer.make 2)));
  check_bool "bs=3 minimal" true (Result.is_ok (Intra.optimize op (Buffer.make 3)))

(* ------------------------------------------------------------------ *)
(* Nra classification                                                  *)

let test_classify_matches_builders () =
  let op = Matmul.make ~m:40 ~k:40 ~l:40 () in
  let check_class bytes expected =
    let plan = Intra.optimize_exn op (Buffer.make bytes) in
    Alcotest.check nra_t
      (Printf.sprintf "bs=%d" bytes)
      expected
      (Nra.class_of plan.dataflow)
  in
  check_class 100 Nra.Single;
  check_class 1000 Nra.Two;
  check_class 10000 Nra.Three

(* ------------------------------------------------------------------ *)
(* Fusion and Principle 4                                              *)

let mk_pair ~m ~k1 ~l1 ~l2 =
  Fused.make_pair_exn
    (Matmul.make ~name:"mm1" ~m ~k:k1 ~l:l1 ())
    (Matmul.make ~name:"mm2" ~m ~k:l1 ~l:l2 ())

let test_pattern_classes () =
  check_int "seven patterns" 7 (List.length Fusion.all_patterns);
  let nra_opt = Alcotest.option nra_t in
  Alcotest.check nra_opt "a" (Some Nra.Single)
    (Fusion.pattern_class Fusion.P_single_os_is);
  Alcotest.check nra_opt "b" (Some Nra.Two)
    (Fusion.pattern_class Fusion.P_two_os_is);
  Alcotest.check nra_opt "e" (Some Nra.Three)
    (Fusion.pattern_class Fusion.P_three_resident);
  Alcotest.check nra_opt "block spans classes" None
    (Fusion.pattern_class Fusion.P_block)

let test_profitable_is_equality () =
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          check_bool "principle 4" (Nra.equal c1 c2) (Fusion.profitable c1 c2))
        Nra.all)
    Nra.all

let test_candidates_all_valid () =
  let pair = mk_pair ~m:32 ~k1:16 ~l1:24 ~l2:16 in
  List.iter
    (fun bytes ->
      let buf = Buffer.make bytes in
      List.iter
        (fun (_, fused, traffic) ->
          match Fused.eval pair fused buf with
          | Ok t -> check_int "traffic consistent" t traffic
          | Error e -> Alcotest.failf "invalid candidate: %a" Fused.pp_error e)
        (Fusion.candidates pair buf))
    [ 64; 256; 1024; 8192 ]

let test_attention_pair_fuses () =
  (* attention-like pair with a large intermediate: fusion must win *)
  let pair = mk_pair ~m:64 ~k1:8 ~l1:64 ~l2:8 in
  let buf = Buffer.make 4096 in
  match Fusion.plan_pair pair buf with
  | Ok (Fusion.Fuse { traffic; _ }) ->
    let unfused =
      Intra.ma (Intra.optimize_exn pair.op1 buf)
      + Intra.ma (Intra.optimize_exn pair.op2 buf)
    in
    check_bool "fusion reduces traffic" true (traffic < unfused);
    check_int "fused ideal achieved"
      (Chain.ideal_ma_fused (Chain.make_exn [ pair.op1; pair.op2 ]))
      traffic
  | Ok (Fusion.No_fuse { why; _ }) -> Alcotest.failf "expected fusion: %s" why
  | Error e -> Alcotest.fail e

let test_cross_class_does_not_fuse () =
  (* first op much larger than the second: classes differ at this buffer *)
  let pair = mk_pair ~m:512 ~k1:256 ~l1:16 ~l2:8 in
  let buf = Buffer.make 2048 in
  let c1 = Nra.class_of (Intra.optimize_exn pair.op1 buf).dataflow in
  let c2 = Nra.class_of (Intra.optimize_exn pair.op2 buf).dataflow in
  if not (Nra.equal c1 c2) then begin
    match Fusion.plan_pair pair buf with
    | Ok (Fusion.No_fuse _) -> ()
    | Ok (Fusion.Fuse _) -> Alcotest.fail "Principle 4 violated by planner"
    | Error e -> Alcotest.fail e
  end

let test_principle4_agreement () =
  (* Principle 4 is a heuristic from the continuous model; on small
     integer operators it must agree with the exhaustive fuse/no-fuse
     oracle in the vast majority of cases and never lose
     catastrophically. *)
  let rng = Random.State.make [| 4242 |] in
  let total = ref 0 and agree = ref 0 and worst = ref 1.0 in
  for _ = 1 to 80 do
    let d () = 2 + Random.State.int rng 14 in
    let m = d () in
    let k1 = d () in
    let l1 = d () in
    let l2 = d () in
    let pair = mk_pair ~m ~k1 ~l1 ~l2 in
    let buf = Buffer.make (6 + Random.State.int rng 500) in
    match Fusion.plan_pair pair buf with
    | Error _ -> ()
    | Ok decision -> (
      let v = Fused_search.decide ~lattice:Space.All pair buf in
      match v.best_traffic with
      | None -> ()
      | Some best ->
        incr total;
        let mine = Fusion.traffic_of_decision decision in
        let r = float_of_int mine /. float_of_int best in
        if r > !worst then worst := r;
        let i_fuse =
          match decision with Fusion.Fuse _ -> true | Fusion.No_fuse _ -> false
        in
        if i_fuse = v.fusion_wins || r < 1.02 then incr agree)
  done;
  check_bool "enough decided cases" true (!total > 40);
  let rate = float_of_int !agree /. float_of_int !total in
  check_bool (Printf.sprintf "agreement %.2f >= 0.85" rate) true (rate >= 0.85);
  check_bool (Printf.sprintf "worst loss %.2f bounded" !worst) true (!worst < 1.6)





(* ------------------------------------------------------------------ *)
(* Fig. 4 catalog                                                      *)

let test_catalog_methods () =
  check_int "single: one method" 1 (List.length (Catalog.methods_available Nra.Single));
  check_int "two: two methods" 2 (List.length (Catalog.methods_available Nra.Two));
  check_int "three: two methods" 2 (List.length (Catalog.methods_available Nra.Three))

let test_catalog_structure () =
  (* green arrows are exactly the same-class ones *)
  List.iter
    (fun (a : Catalog.arrow) ->
      check_bool "green = same class"
        (Nra.equal a.producer_class a.consumer_class)
        a.profitable)
    Catalog.arrows;
  check_bool "has green" true (Catalog.green <> []);
  check_bool "has red" true (Catalog.red <> []);
  (* every profitable arrow has a hardware mapping; red arrows have none *)
  List.iter
    (fun a -> check_bool "green mapped" true (Catalog.mapping_for a <> None))
    Catalog.green;
  List.iter
    (fun a -> check_bool "red unmapped" true (Catalog.mapping_for a = None))
    Catalog.red

let test_catalog_mappings_match_fig5 () =
  (* Single-NRA fusion (stationary C) is tile fusion; untiled-dim
     fusions are column fusion *)
  let find pc pm cc cm =
    List.find
      (fun (a : Catalog.arrow) ->
        a.producer_class = pc && a.producer_method = pm && a.consumer_class = cc
        && a.consumer_method = cm)
      Catalog.arrows
  in
  Alcotest.(check (option (Alcotest.testable (fun fmt -> function
    | `Tile_fusion -> Format.pp_print_string fmt "tile"
    | `Column_fusion -> Format.pp_print_string fmt "column") ( = ))))
    "single OS-IS is tile fusion" (Some `Tile_fusion)
    (Catalog.mapping_for
       (find Nra.Single Catalog.Keep_stationary Nra.Single Catalog.Keep_stationary));
  Alcotest.(check bool) "two untiled is column fusion" true
    (Catalog.mapping_for
       (find Nra.Two Catalog.Untile_dimension Nra.Two Catalog.Untile_dimension)
    = Some `Column_fusion)

(* ------------------------------------------------------------------ *)
(* Buffer sweeps                                                       *)

let test_sweep_monotone_and_transitions () =
  let op = Matmul.make ~m:256 ~k:192 ~l:160 () in
  let points =
    Buffer_sweep.run op
      ~bytes:(Buffer_sweep.geometric ~from_bytes:256 ~to_bytes:(1 lsl 20)
                ~steps_per_octave:2 ())
  in
  check_bool "enough points" true (List.length points > 10);
  (* MA never increases with buffer size *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      check_bool
        (Printf.sprintf "MA monotone at %d" b.Buffer_sweep.bytes)
        true
        (b.Buffer_sweep.ma <= a.Buffer_sweep.ma);
      monotone rest
    | _ -> ()
  in
  monotone points;
  (* the class ladder climbs Single -> Two -> Three per the paper *)
  check_bool "transitions match the paper's bands" true
    (Buffer_sweep.check_paper_bands op points);
  let classes = List.map (fun (_, a, b) -> (a, b)) (Buffer_sweep.transitions points) in
  check_bool "reaches Three-NRA" true
    (List.exists (fun (_, b) -> Nra.equal b Nra.Three) classes)

let test_sweep_geometric_ladder () =
  let ladder = Buffer_sweep.geometric ~from_bytes:1024 ~to_bytes:8192 () in
  Alcotest.(check (list int)) "doubling" [ 1024; 2048; 4096; 8192 ] ladder;
  Alcotest.check_raises "bad range"
    (Invalid_argument "Buffer_sweep.geometric: bad range") (fun () ->
      ignore (Buffer_sweep.geometric ~from_bytes:0 ()))

let prop_sweep_bands_hold =
  QCheck.Test.make ~count:60 ~name:"regime transitions follow the paper's bands"
    (QCheck.make
       ~print:(fun (m, k, l) -> Printf.sprintf "%dx%dx%d" m k l)
       QCheck.Gen.(
         let* m = int_range 16 128 and* k = int_range 16 128 in
         let* l = int_range 16 128 in
         return (m, k, l)))
    (fun (m, k, l) ->
      let op = Matmul.make ~m ~k ~l () in
      let points =
        Buffer_sweep.run op
          ~bytes:(Buffer_sweep.geometric ~from_bytes:16 ~to_bytes:131072
                    ~steps_per_octave:2 ())
      in
      Buffer_sweep.check_paper_bands op points)

(* ------------------------------------------------------------------ *)
(* Paper equations (library forms)                                     *)

let test_equations_match_cost_model () =
  let op = Matmul.make ~m:64 ~k:48 ~l:32 () in
  (* Eq. 1 vs the general model on a dividing tile *)
  List.iter
    (fun t ->
      let tiling = Tiling.make op ~m:t ~k:1 ~l:t in
      let order = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
      check_int
        (Printf.sprintf "Eq.1 at t=%d" t)
        (Equations.eq1_ma op ~t)
        (Cost.eval op (Schedule.make tiling order)).Cost.total)
    [ 4; 8; 16; 32 ];
  (* Eq. 3 vs the general model *)
  List.iter
    (fun t_m ->
      let tiling = Tiling.make op ~m:t_m ~k:48 ~l:1 in
      let order = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
      check_int
        (Printf.sprintf "Eq.3 at t_m=%d" t_m)
        (Equations.eq3_ma op ~t_m)
        (Cost.eval op (Schedule.make tiling order)).Cost.total)
    [ 2; 8; 16; 64 ];
  Alcotest.check_raises "Eq.1 needs dividing t"
    (Invalid_argument "Equations.eq1_ma: t must divide M and L") (fun () ->
      ignore (Equations.eq1_ma op ~t:7))

let test_equations_eq4_and_bands () =
  let op = bert in
  (* the worked example: BS = 512K elements, K = 768 -> T_M = 680 *)
  check_int "Eq.4 T_M" 680 (Equations.eq4_max_t_m op ~capacity:524288);
  check_bool "Eq.2 at that point" true
    (Equations.eq2_constraint ~t_m:680 ~t_k:768 ~t_l:1 ~capacity:524288);
  check_bool "Eq.2 rejects one more" false
    (Equations.eq2_constraint ~t_m:682 ~t_k:768 ~t_l:1 ~capacity:524288);
  let lo, hi = Equations.single_two_shift_band op in
  check_int "band low" (768 * 768 / 4) lo;
  check_int "band high" (768 * 768 / 2) hi;
  check_int "three threshold" (768 * 768) (Equations.three_threshold op)

(* ------------------------------------------------------------------ *)
(* Whole-chain fusion                                                  *)

let attention_3chain =
  (* qkT -> .V -> output projection per head: three links *)
  Chain.of_dims ~name:"attn3" ~m:64 [ 8; 64; 8; 8 ]

let test_multi_fusion_valid () =
  let buf = Buffer.make 8192 in
  match Multi_fusion.row_pipeline attention_3chain buf with
  | [] -> Alcotest.fail "expected row-pipeline candidates"
  | candidates ->
    List.iter
      (fun c ->
        match Multi_fusion.eval attention_3chain c buf with
        | Ok traffic ->
          check_bool "traffic at least fused bound" true
            (traffic >= Chain.ideal_ma_fused attention_3chain)
        | Error e -> Alcotest.fail e)
      candidates

let test_multi_fusion_hits_fused_bound () =
  let buf = Buffer.make 8192 in
  match Multi_fusion.plan attention_3chain buf with
  | Error e -> Alcotest.fail e
  | Ok (Multi_fusion.Fallback _) -> Alcotest.fail "expected full fusion"
  | Ok (Multi_fusion.Full_fusion { traffic; fused }) ->
    check_int "whole-chain fusion reaches the fused lower bound"
      (Chain.ideal_ma_fused attention_3chain)
      traffic;
    check_int "three schedules" 3
      (List.length fused.Multi_fusion.schedules)

let test_multi_fusion_beats_pairwise () =
  (* pairwise fusion must spill the middle intermediate at least once;
     full fusion never does *)
  let buf = Buffer.make 8192 in
  match
    (Multi_fusion.plan attention_3chain buf,
     Planner.plan_chain attention_3chain buf)
  with
  | Ok decision, Ok pairwise ->
    check_bool "full <= pairwise" true
      (Multi_fusion.traffic_of_decision decision <= pairwise.Planner.traffic)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_multi_fusion_falls_back () =
  (* weights cannot fit: the row pipeline is infeasible and planning
     falls back to the pairwise plan *)
  let big = Chain.of_dims ~name:"big" ~m:256 [ 512; 512; 512 ] in
  let buf = Buffer.make 4096 in
  match Multi_fusion.plan big buf with
  | Ok (Multi_fusion.Fallback _) -> ()
  | Ok (Multi_fusion.Full_fusion _) -> Alcotest.fail "expected fallback"
  | Error e -> Alcotest.fail e

let test_multi_fusion_validate_errors () =
  let chain = Chain.of_dims ~m:8 [ 4; 8; 4 ] in
  let bad =
    List.map
      (fun (op : Matmul.t) ->
        Schedule.make
          (Tiling.make op ~m:2 ~k:2 ~l:2)
          (Order.make ~outer:Dim.K ~mid:Dim.M ~inner:Dim.L))
      (Chain.ops chain)
  in
  match Multi_fusion.make chain bad with
  | Error e -> Alcotest.failf "make should accept counts: %s" e
  | Ok t ->
    check_bool "validation rejects redundant intermediates" true
      (Result.is_error (Multi_fusion.validate chain t));
    check_bool "wrong count rejected" true
      (Result.is_error (Multi_fusion.make chain (List.tl bad)))

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_planner_attention_chain () =
  let chain = Chain.of_dims ~name:"attn" ~m:64 [ 8; 64; 8 ] in
  let buf = Buffer.make 4096 in
  match Planner.plan_chain chain buf with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check_int "one fused segment" 1 (List.length plan.segments);
    (match plan.segments with
    | [ Planner.Fused_pair _ ] -> ()
    | _ -> Alcotest.fail "expected a fused pair");
    check_int "traffic is segment sum"
      (Fusecu_util.Arith.sum (List.map Planner.segment_traffic plan.segments))
      plan.traffic

let test_planner_three_op_chain () =
  let chain = Chain.of_dims ~name:"c3" ~m:32 [ 8; 32; 8; 32 ] in
  let buf = Buffer.make 4096 in
  match Planner.plan_chain chain buf with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    let solos =
      List.length
        (List.filter (function Planner.Solo _ -> true | _ -> false) plan.segments)
    in
    check_bool "pairs formed" true (solos <= 1);
    check_bool "beats all-solo" true
      (match Planner.plan_ops (Chain.ops chain) buf with
      | Ok solo_plan -> plan.traffic <= solo_plan.traffic
      | Error _ -> false)

let test_planner_ops_bag () =
  let ops =
    [ Matmul.make ~m:16 ~k:16 ~l:16 (); Matmul.make ~m:8 ~k:8 ~l:8 () ]
  in
  match Planner.plan_ops ops (Buffer.make 2048) with
  | Ok plan ->
    check_int "two segments" 2 (List.length plan.segments);
    check_int "sum"
      (Fusecu_util.Arith.sum (List.map Planner.segment_traffic plan.segments))
      plan.traffic
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Lower bounds and Table I                                            *)

let test_lower_bounds () =
  let chain = Chain.of_dims ~m:16 [ 8; 16; 8 ] in
  check_bool "fused < unfused" true
    (Lower_bound.chain_fused chain < Lower_bound.chain_unfused chain);
  let op = Matmul.make ~m:16 ~k:16 ~l:16 () in
  check_int "intra" (Matmul.ideal_ma op) (Lower_bound.intra op);
  let r = Lower_bound.redundancy op (Buffer.make 4096) Mode.Exact in
  Alcotest.(check (float 1e-9)) "large buffer meets bound" 1.0 r

let test_summary_table () =
  check_int "six optimizers" 6 (List.length Summary.rows);
  let this_work = List.nth Summary.rows 5 in
  check_bool "principle-based" true
    (String.equal this_work.Summary.tiling_scheme "principle");
  check_bool "compute-unit fusion" true
    (String.equal this_work.Summary.fusion_medium "compute unit")


(* ------------------------------------------------------------------ *)
(* Register-level principles (Sec. IV-B)                               *)

let test_register_level_bounds () =
  check_int "capacity" (128 * 128) (Register_level.register_capacity ~pe_dim:128);
  check_int "2N bound" 256 (Register_level.max_useful_untiled_dim ~pe_dim:128);
  (* attention heads (Dmin = 64 < 2N) profit from untiling at register
     level; a 768-min-dim projection does not *)
  let qk = Matmul.make ~m:1024 ~k:64 ~l:1024 () in
  check_bool "dh=64 profits" true (Register_level.untiling_profitable ~pe_dim:128 qk);
  let proj = Matmul.make ~m:1024 ~k:768 ~l:768 () in
  check_bool "768 does not profit" false
    (Register_level.untiling_profitable ~pe_dim:128 proj)

let prop_fusecu_covers_all_useful_untiling =
  (* the paper's architecture argument: whenever the register-level
     principles would untile, the needed dimension fits within 2N *)
  QCheck.Test.make ~count:400 ~name:"2N adaptive array covers every useful untiling"
    (QCheck.make
       ~print:(fun (m, k, l, n) -> Printf.sprintf "%dx%dx%d N=%d" m k l n)
       QCheck.Gen.(
         let* m = int_range 1 4096 and* k = int_range 1 4096 in
         let* l = int_range 1 4096 and* n = int_range 4 256 in
         return (m, k, l, n)))
    (fun (m, k, l, n) ->
      Register_level.supported_by_fusecu ~pe_dim:n (Matmul.make ~m ~k ~l ()))

(* ------------------------------------------------------------------ *)
(* Explanations                                                        *)

let contains text needle =
  let n = String.length needle and t = String.length text in
  let rec scan i = i + n <= t && (String.sub text i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_explain_intra () =
  let buf = Buffer.of_kib 512 in
  match Explain.intra ~mode:Mode.Divisors bert buf with
  | Error e -> Alcotest.fail e
  | Ok text ->
    List.iter
      (fun needle ->
        check_bool ("mentions " ^ needle) true (contains text needle))
      [ "medium regime"; "Principle 2"; "Two-NRA"; "family comparison" ]

let test_explain_fusion () =
  let pair =
    Fused.make_pair_exn
      (Matmul.make ~name:"qk" ~m:256 ~k:16 ~l:256 ())
      (Matmul.make ~name:"sv" ~m:256 ~k:256 ~l:16 ())
  in
  match Explain.fusion pair (Buffer.make 8192) with
  | Error e -> Alcotest.fail e
  | Ok text ->
    check_bool "mentions Principle 4" true (contains text "Principle 4")

let qsuite =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250704 |]))
    [ prop_principles_match_exhaustive; prop_principles_match_exhaustive_medium;
      prop_optimizer_monotone_in_buffer; prop_redundancy_at_least_one;
      prop_fusecu_covers_all_useful_untiling; prop_sweep_bands_hold;
      prop_snap_smallest_of_its_trips ]

let () =
  Alcotest.run "core"
    [ ( "paper example",
        [ Alcotest.test_case "regime" `Quick test_paper_example_regime;
          Alcotest.test_case "dataflow" `Quick test_paper_example_dataflow ] );
      ( "regimes",
        [ Alcotest.test_case "bands" `Quick test_regime_bands;
          Alcotest.test_case "exact boundaries" `Quick
            test_regime_exact_boundaries;
          Alcotest.test_case "threshold overflow" `Quick
            test_regime_threshold_overflow;
          Alcotest.test_case "expected classes" `Quick test_expected_classes;
          Alcotest.test_case "predicts searched class" `Quick
            test_regime_predicts_search ] );
      ( "builders",
        [ Alcotest.test_case "single" `Quick test_single_builder_shape;
          Alcotest.test_case "two" `Quick test_two_builder_shape;
          Alcotest.test_case "three" `Quick test_three_builder_shape;
          Alcotest.test_case "divisor quantization" `Quick
            test_divisor_mode_quantizes;
          Alcotest.test_case "pow2 plans are pow2-optimal" `Quick
            test_pow2_intra_optimal;
          Alcotest.test_case "pow2 best-of-both is pow2-optimal" `Quick
            test_pow2_fuse_optimal ] );
      ( "optimizer",
        [ Alcotest.test_case "large buffer hits bound" `Quick
            test_large_buffer_hits_lower_bound;
          Alcotest.test_case "infeasible buffer" `Quick test_infeasible_buffer;
          Alcotest.test_case "class follows buffer" `Quick
            test_classify_matches_builders ] );
      ( "fusion",
        [ Alcotest.test_case "pattern classes" `Quick test_pattern_classes;
          Alcotest.test_case "Principle 4 = class equality" `Quick
            test_profitable_is_equality;
          Alcotest.test_case "candidates valid" `Quick test_candidates_all_valid;
          Alcotest.test_case "attention pair fuses" `Quick
            test_attention_pair_fuses;
          Alcotest.test_case "cross-class stays unfused" `Quick
            test_cross_class_does_not_fuse;
          Alcotest.test_case "Principle 4 vs oracle (agreement stats)" `Slow
            test_principle4_agreement ] );
      ( "fig4 catalog",
        [ Alcotest.test_case "methods per class" `Quick test_catalog_methods;
          Alcotest.test_case "green/red structure" `Quick test_catalog_structure;
          Alcotest.test_case "mappings match Fig. 5" `Quick
            test_catalog_mappings_match_fig5 ] );
      ( "buffer sweep",
        [ Alcotest.test_case "monotone + transitions" `Quick
            test_sweep_monotone_and_transitions;
          Alcotest.test_case "geometric ladder" `Quick
            test_sweep_geometric_ladder ] );
      ( "equations",
        [ Alcotest.test_case "reduce to the cost model" `Quick
            test_equations_match_cost_model;
          Alcotest.test_case "Eq.4 and regime bands" `Quick
            test_equations_eq4_and_bands ] );
      ( "multi-fusion",
        [ Alcotest.test_case "row pipeline valid" `Quick test_multi_fusion_valid;
          Alcotest.test_case "reaches fused bound" `Quick
            test_multi_fusion_hits_fused_bound;
          Alcotest.test_case "beats pairwise" `Quick
            test_multi_fusion_beats_pairwise;
          Alcotest.test_case "falls back when infeasible" `Quick
            test_multi_fusion_falls_back;
          Alcotest.test_case "validation" `Quick
            test_multi_fusion_validate_errors ] );
      ( "planner",
        [ Alcotest.test_case "attention chain" `Quick test_planner_attention_chain;
          Alcotest.test_case "three-op chain" `Quick test_planner_three_op_chain;
          Alcotest.test_case "bag of ops" `Quick test_planner_ops_bag ] );
      ( "bounds",
        [ Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
          Alcotest.test_case "Table I data" `Quick test_summary_table ] );
      ( "register level",
        [ Alcotest.test_case "2N bound" `Quick test_register_level_bounds ] );
      ( "explain",
        [ Alcotest.test_case "intra derivation" `Quick test_explain_intra;
          Alcotest.test_case "fusion derivation" `Quick test_explain_fusion ] );
      ("properties", qsuite) ]
