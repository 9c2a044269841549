(* The projective loop-nest IR (lib/nest) against the legacy matmul
   stack and against its own simulator.

   The load-bearing locks:
   - on the MM instance, footprint/eval are bit-identical to
     Tiling.footprint/Cost.eval over entire schedule spaces;
   - Search.exhaustive returns the legacy Exhaustive.search winner
     (same tiles, same cost) including the PR 5 counterexample corpus;
   - the analytic cost equals resident-tile simulation on every nest
     kind (conv2d windows, batched/grouped MM, fused attention). *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_nest

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mm_make ~m ~k ~l = Matmul.make ~name:"t" ~m ~k ~l ()

let all_tilings mm =
  let open Matmul in
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun tk ->
          List.map
            (fun tl -> Tiling.make mm ~m:tm ~k:tk ~l:tl)
            (Fusecu_util.Arith.range 1 mm.l))
        (Fusecu_util.Arith.range 1 mm.k))
    (Fusecu_util.Arith.range 1 mm.m)

let per_nth (c : Nest.cost) i = c.Nest.per.(i)

(* legacy per-operand vs nest per-tensor, tensors listed A;B;C *)
let check_cost_identity mm nest tiling order =
  let legacy = Cost.eval mm (Schedule.make tiling order) in
  let s = Lower.schedule_of_mm nest ~tiling ~order in
  let cost = Nest.eval nest s in
  let ctx =
    Printf.sprintf "%s %s" (Tiling.footprint tiling |> string_of_int)
      (Order.to_string order)
  in
  check_int (ctx ^ " total") legacy.Cost.total cost.Nest.total;
  List.iteri
    (fun i (po : Cost.per_operand) ->
      let pn = per_nth cost i in
      check_int (ctx ^ " traffic") po.Cost.traffic pn.Nest.traffic;
      check_int (ctx ^ " fetches") po.Cost.fetches pn.Nest.fetches;
      check_int (ctx ^ " revisit") po.Cost.revisit pn.Nest.revisit)
    [ legacy.Cost.a; legacy.Cost.b; legacy.Cost.c ];
  check_int (ctx ^ " footprint") (Tiling.footprint tiling)
    (Nest.footprint nest s);
  check_bool (ctx ^ " valid") true (Nest.valid nest s);
  check_int (ctx ^ " max_total") (Cost.max_total mm) (Nest.max_total nest);
  check_bool (ctx ^ " total <= max_total") true
    (legacy.Cost.total <= Cost.max_total mm);
  cost

let test_mm_cost_identity () =
  List.iter
    (fun mm ->
      let nest = Lower.of_matmul mm in
      check_int "ideal = intra bound" (Matmul.ideal_ma mm) (Bound.ideal nest);
      List.iter
        (fun tiling ->
          List.iter
            (fun order -> ignore (check_cost_identity mm nest tiling order))
            Order.all)
        (all_tilings mm))
    [ mm_make ~m:12 ~k:8 ~l:10; mm_make ~m:7 ~k:3 ~l:4; mm_make ~m:5 ~k:9 ~l:2 ]

(* the simulator agrees with the closed form on ragged MM tiles *)
let test_mm_sim_identity () =
  let mm = mm_make ~m:7 ~k:3 ~l:4 in
  let nest = Lower.of_matmul mm in
  List.iter
    (fun tiling ->
      List.iter
        (fun order ->
          let s = Lower.schedule_of_mm nest ~tiling ~order in
          let cost = Nest.eval nest s in
          let sim = Nsim.eval nest s in
          check_int "sim total" cost.Nest.total sim.Nest.total;
          Array.iteri
            (fun i (pn : Nest.per_tensor) ->
              let ps = per_nth sim i in
              check_int "sim traffic" pn.Nest.traffic ps.Nest.traffic;
              check_int "sim fetches" pn.Nest.fetches ps.Nest.fetches;
              check_int "sim revisit" pn.Nest.revisit ps.Nest.revisit)
            cost.Nest.per)
        Order.all)
    (all_tilings mm)

(* the admissible bound is below every schedule's actual traffic *)
let test_mm_bound_admissible () =
  let mm = mm_make ~m:6 ~k:4 ~l:5 in
  let nest = Lower.of_matmul mm in
  List.iter
    (fun tiling ->
      List.iter
        (fun order ->
          let s = Lower.schedule_of_mm nest ~tiling ~order in
          let cost = Nest.eval nest s in
          let trips = Array.init 3 (fun i -> Nest.trips nest s i) in
          let lb = Bound.penalized nest ~trips in
          check_bool "bound admissible" true (lb <= cost.Nest.total))
        Order.all)
    (all_tilings mm);
  check_int "all-ones trips = ideal" (Bound.ideal nest)
    (Bound.penalized nest ~trips:[| 1; 1; 1 |])

let nest_search_vs_legacy ~lattice mm bytes =
  let buffer = Buffer.make bytes in
  let nest = Lower.of_matmul mm in
  let space_lattice =
    match lattice with
    | Search.All -> Fusecu_dse.Space.All
    | Search.Divisors -> Fusecu_dse.Space.Divisors
    | Search.Pow2 -> Fusecu_dse.Space.Pow2
  in
  let legacy =
    Fusecu_dse.Exhaustive.search ~lattice:space_lattice
      ~pool:Fusecu_util.Pool.sequential mm buffer
  in
  let mine = Search.exhaustive ~lattice nest ~capacity:(Buffer.elements buffer) in
  (match (legacy, mine) with
  | None, None -> ()
  | Some lr, Some nr ->
    let lt = lr.Fusecu_dse.Exhaustive.schedule.Schedule.tiling in
    check_int "best total" lr.Fusecu_dse.Exhaustive.cost.Cost.total
      nr.Search.cost.Nest.total;
    check_int "best tile m" (Tiling.get lt Dim.M) nr.Search.schedule.Nest.tiles.(0);
    check_int "best tile k" (Tiling.get lt Dim.K) nr.Search.schedule.Nest.tiles.(1);
    check_int "best tile l" (Tiling.get lt Dim.L) nr.Search.schedule.Nest.tiles.(2)
  | Some _, None -> Alcotest.fail "nest search missed a feasible schedule"
  | None, Some _ -> Alcotest.fail "nest search invented a schedule");
  (legacy, mine)

let test_mm_search_parity () =
  List.iter
    (fun (m, k, l, bytes) ->
      ignore (nest_search_vs_legacy ~lattice:Search.Divisors
                (mm_make ~m ~k ~l) bytes);
      ignore (nest_search_vs_legacy ~lattice:Search.All (mm_make ~m ~k ~l) bytes))
    [
      (12, 8, 10, 64); (12, 8, 10, 256); (9, 9, 9, 40); (16, 4, 16, 100);
      (6, 6, 6, 3);  (* infeasible for anything but tiny tiles *)
      (5, 7, 11, 30);
    ]

(* PR 5 oracle counterexample corpus, replayed through the nest path *)
let regression_specs =
  [
    (7, 3, 4, 2, 16);
    (2, 2, 2, 2, 7);
    (2, 2, 2, 2, 11);
    (5, 2, 4, 6, 31);
    (5, 2, 4, 6, 33);
    (6, 1, 5, 4, 16);
  ]

let test_regression_corpus () =
  List.iter
    (fun (m, k, l, _l2, bytes) ->
      ignore (nest_search_vs_legacy ~lattice:Search.All (mm_make ~m ~k ~l) bytes))
    regression_specs

(* ---- windows / conv2d ---- *)

let conv_small =
  Conv.make ~name:"c" ~n:1 ~c:2 ~h:6 ~w:6 ~k:3 ~r:3 ~s:3 ()

let test_window_extents () =
  let cv = conv_small in
  let nest = Lower.of_conv cv in
  check_int "points = macs" (Conv.macs cv) (Nest.points nest);
  let input = List.hd nest.Nest.tensors in
  check_int "padded input size"
    (cv.Conv.n * cv.Conv.c
    * (((Conv.output_height cv - 1) * cv.Conv.stride) + Conv.effective_r cv)
    * (((Conv.output_width cv - 1) * cv.Conv.stride) + Conv.effective_s cv))
    (Nest.tensor_size nest input);
  let strided =
    Conv.make ~n:1 ~c:1 ~h:7 ~w:9 ~k:2 ~r:3 ~s:3 ~stride:2 ~dilation:2 ()
  in
  let n2 = Lower.of_conv strided in
  check_int "dilated points = macs" (Conv.macs strided) (Nest.points n2);
  (* halo-free ideal beats the im2col-inflated ideal for overlapping
     kernels *)
  check_bool "direct ideal < im2col ideal" true
    (Bound.ideal nest < Bound.ideal (Lower.of_conv_im2col cv));
  (* the widest halo: strided output axes in one tile, kernel axes in
     unit tiles, the input revisited per ko tile — 882 of its traffic
     against 288 points *)
  let wide =
    Lower.of_conv (Conv.make ~n:1 ~c:1 ~h:9 ~w:9 ~k:2 ~r:3 ~s:3 ~stride:2 ())
  in
  let s =
    Nest.schedule_make wide ~tiles:[| 1; 1; 4; 4; 1; 1; 1 |]
      ~order:[| 1; 0; 2; 3; 4; 5; 6 |]
  in
  check_bool "max_total covers the widest halo" true
    ((Nest.eval wide s).Nest.total <= Nest.max_total wide)

(* deterministic schedule sampler for rank-n nests: cycle through each
   axis's divisor candidates with a little LCG, rotate the loop order *)
let sample_schedules nest count =
  let n = Nest.rank nest in
  let cands =
    Array.init n (fun i -> Fusecu_util.Arith.divisors nest.Nest.extents.(i))
  in
  let state = ref 12345 in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  List.init count (fun j ->
      let tiles =
        Array.init n (fun i ->
            let c = cands.(i) in
            List.nth c (next (List.length c)))
      in
      let order = Array.init n (fun i -> (i + j) mod n) in
      Nest.schedule_make nest ~tiles ~order)

let check_sim_agrees name nest count =
  List.iter
    (fun s ->
      let cost = Nest.eval nest s in
      let sim = Nsim.eval nest s in
      check_int (name ^ " sim=analytic") cost.Nest.total sim.Nest.total;
      check_bool (name ^ " total, footprint <= max_total") true
        (max cost.Nest.total (Nest.footprint nest s) <= Nest.max_total nest);
      Array.iteri
        (fun i (pn : Nest.per_tensor) ->
          check_int (name ^ " per-tensor") pn.Nest.traffic
            (per_nth sim i).Nest.traffic)
        cost.Nest.per)
    (sample_schedules nest count)

let test_conv_sim () =
  check_sim_agrees "conv" (Lower.of_conv conv_small) 40;
  check_sim_agrees "conv-strided"
    (Lower.of_conv
       (Conv.make ~n:2 ~c:2 ~h:9 ~w:7 ~k:2 ~r:3 ~s:2 ~stride:2 ()))
    40;
  check_sim_agrees "conv-dilated"
    (Lower.of_conv
       (Conv.make ~n:1 ~c:2 ~h:9 ~w:9 ~k:2 ~r:3 ~s:3 ~dilation:2 ()))
    40

let test_bmm_gmm_sim () =
  check_sim_agrees "bmm" (Lower.batched_mm ~b:3 ~m:4 ~k:5 ~l:6 ()) 40;
  check_sim_agrees "gmm"
    (Lower.grouped_mm ~groups:2 ~heads:3 ~m:4 ~k:5 ~l:4 ())
    40

let test_attention () =
  let nest = Lower.attention_pair ~seq_q:6 ~seq_k:8 ~d:4 () in
  check_int "one internal" 1 (List.length (Nest.internals nest));
  (* S(m,n) with both free axes (d, e) innermost is revisit-free *)
  let valid_s =
    Nest.schedule_make nest ~tiles:[| 2; 2; 4; 4 |] ~order:[| 0; 1; 2; 3 |]
  in
  check_bool "flash-style order valid" true (Nest.valid nest valid_s);
  (* a tiled free axis outside a tiled used axis revisits S: invalid *)
  let invalid_s =
    Nest.schedule_make nest ~tiles:[| 2; 2; 2; 4 |] ~order:[| 2; 0; 1; 3 |]
  in
  check_bool "revisiting order invalid" false (Nest.valid nest invalid_s);
  check_sim_agrees "attn" nest 40;
  match Search.exhaustive nest ~capacity:64 with
  | None -> Alcotest.fail "attention search found nothing"
  | Some r ->
    check_bool "attn total >= ideal" true
      (r.Search.cost.Nest.total >= Bound.ideal nest);
    check_bool "attn winner valid" true (Nest.valid nest r.Search.schedule)

let test_chain () =
  let chain = Chain.of_dims ~m:6 [ 4; 5; 3 ] in
  let nest = Lower.of_chain chain in
  check_int "rank" 4 (Nest.rank nest);
  check_int "intermediates internal" 1 (List.length (Nest.internals nest));
  check_int "fused ideal" (Chain.ideal_ma_fused chain) (Bound.ideal nest);
  check_sim_agrees "chain" nest 30

(* ---- conv output-shape boundary cases (the bugfix) ---- *)

let test_conv_validation () =
  let err r = match r with Error e -> e | Ok _ -> "ok" in
  (* dilated kernel overflows the padded input: OCaml's truncating
     division used to round the would-be 0-position output up to 1 *)
  check_bool "dilated overflow rejected" true
    (err (Conv.validate ~n:1 ~c:1 ~h:4 ~w:4 ~k:1 ~r:3 ~s:3 ~dilation:2 ())
    = "kernel larger than the padded input");
  check_bool "width overflow rejected" true
    (Result.is_error
       (Conv.validate ~n:1 ~c:1 ~h:9 ~w:2 ~k:1 ~r:3 ~s:3 ~dilation:2 ()));
  check_bool "dilation >= 1" true
    (err (Conv.validate ~n:1 ~c:1 ~h:4 ~w:4 ~k:1 ~r:1 ~s:1 ~dilation:0 ())
    = "dilation must be >= 1");
  (* exact fit is legal and yields one output position *)
  (match Conv.validate ~n:1 ~c:1 ~h:5 ~w:5 ~k:1 ~r:3 ~s:3 ~dilation:2 () with
  | Error e -> Alcotest.fail ("exact dilated fit rejected: " ^ e)
  | Ok cv ->
    check_int "exact fit height" 1 (Conv.output_height cv);
    check_int "effective span" 5 (Conv.effective_r cv));
  (* stride larger than the data still yields a single position *)
  let cv = Conv.make ~n:1 ~c:1 ~h:3 ~w:3 ~k:1 ~r:3 ~s:3 ~stride:7 () in
  check_int "big stride height" 1 (Conv.output_height cv);
  check_int "big stride macs" (Conv.macs cv) (Nest.points (Lower.of_conv cv));
  Alcotest.check_raises "make raises structured message"
    (Invalid_argument "Conv.make: kernel larger than the padded input")
    (fun () ->
      ignore (Conv.make ~n:1 ~c:1 ~h:4 ~w:4 ~k:1 ~r:3 ~s:3 ~dilation:2 ()))

let test_schedule_validation () =
  let nest = Lower.of_matmul (mm_make ~m:4 ~k:4 ~l:4) in
  Alcotest.check_raises "tile over extent"
    (Invalid_argument "Nest.schedule_make: tile 5 out of [1,4] on axis m")
    (fun () ->
      ignore (Nest.schedule_make nest ~tiles:[| 5; 1; 1 |] ~order:[| 0; 1; 2 |]));
  Alcotest.check_raises "order not a permutation"
    (Invalid_argument "Nest.schedule_make: order is not a permutation")
    (fun () ->
      ignore (Nest.schedule_make nest ~tiles:[| 1; 1; 1 |] ~order:[| 0; 0; 2 |]))

let () =
  Alcotest.run "nest"
    [
      ( "mm-identity",
        [
          Alcotest.test_case "cost bit-identical" `Quick test_mm_cost_identity;
          Alcotest.test_case "sim bit-identical" `Quick test_mm_sim_identity;
          Alcotest.test_case "bound admissible" `Quick test_mm_bound_admissible;
          Alcotest.test_case "search parity" `Quick test_mm_search_parity;
          Alcotest.test_case "pr5 corpus" `Quick test_regression_corpus;
        ] );
      ( "beyond-mm",
        [
          Alcotest.test_case "window extents" `Quick test_window_extents;
          Alcotest.test_case "conv sim" `Quick test_conv_sim;
          Alcotest.test_case "bmm/gmm sim" `Quick test_bmm_gmm_sim;
          Alcotest.test_case "attention" `Quick test_attention;
          Alcotest.test_case "chain" `Quick test_chain;
        ] );
      ( "validation",
        [
          Alcotest.test_case "conv boundaries" `Quick test_conv_validation;
          Alcotest.test_case "schedule guards" `Quick test_schedule_validation;
        ] );
    ]
