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

(* ------------------------------------------------------------------ *)
(* Reference: the list-based formulas the compiled kernels replaced.   *)
(* Each kernel in lib/nest must equal its reference on every nest,     *)
(* schedule and trip vector.                                           *)

module Ref = struct
  let trips nest tiles =
    Array.mapi (fun i e -> Fusecu_util.Arith.ceil_div e tiles.(i)) nest.Nest.extents

  let positions order =
    let pos = Array.make (Array.length order) 0 in
    Array.iteri (fun p i -> pos.(i) <- p) order;
    pos

  (* the p_star form: trip counts of the tiled free loops ordered
     outside the innermost tiled used loop *)
  let revisit nest tensor ~trips ~order =
    let used = Nest.used_axes tensor and pos = positions order in
    let p_star =
      List.fold_left
        (fun acc u -> if trips.(u) > 1 then max acc pos.(u) else acc)
        (-1) used
    in
    let r = ref 1 in
    for i = 0 to Nest.rank nest - 1 do
      if trips.(i) > 1 && pos.(i) < p_star && not (List.mem i used) then
        r := !r * trips.(i)
    done;
    !r

  let access_sweep nest trips = function
    | Nest.Point i -> nest.Nest.extents.(i)
    | Nest.Window { outer; kernel; stride; dilation } ->
      let eo = nest.Nest.extents.(outer) and ek = nest.Nest.extents.(kernel) in
      let no = trips.(outer) and nk = trips.(kernel) in
      (stride * nk * (eo - no)) + (dilation * no * (ek - nk)) + (no * nk)

  let sweep nest trips tensor =
    List.fold_left (fun acc a -> acc * access_sweep nest trips a) 1 tensor.Nest.dims

  let eval nest (s : Nest.schedule) : Nest.cost =
    let trips = trips nest s.Nest.tiles in
    let per =
      Array.of_list
        (List.map
           (fun x ->
             if x.Nest.internal then { Nest.fetches = 0; traffic = 0; revisit = 0 }
             else begin
               let r = revisit nest x ~trips ~order:s.Nest.order in
               let fetches =
                 List.fold_left (fun acc u -> acc * trips.(u)) 1 (Nest.used_axes x)
               in
               { Nest.fetches = r * fetches; traffic = r * sweep nest trips x; revisit = r }
             end)
           nest.Nest.tensors)
    in
    { Nest.per; total = Array.fold_left (fun acc p -> acc + p.Nest.traffic) 0 per }

  let valid nest (s : Nest.schedule) =
    let trips = trips nest s.Nest.tiles in
    List.for_all
      (fun x -> revisit nest x ~trips ~order:s.Nest.order = 1)
      (Nest.internals nest)

  let footprint_tiles nest tiles =
    let extent = function
      | Nest.Point i -> tiles.(i)
      | Nest.Window { outer; kernel; stride; dilation } ->
        ((tiles.(outer) - 1) * stride) + ((tiles.(kernel) - 1) * dilation) + 1
    in
    List.fold_left
      (fun acc x -> acc + List.fold_left (fun p a -> p * extent a) 1 x.Nest.dims)
      0 nest.Nest.tensors

  let min_sweep nest x =
    let min_access = function
      | Nest.Point i -> nest.Nest.extents.(i)
      | Nest.Window { outer; kernel; stride; dilation } ->
        let eo = nest.Nest.extents.(outer) and ek = nest.Nest.extents.(kernel) in
        let f no nk =
          (stride * nk * (eo - no)) + (dilation * no * (ek - nk)) + (no * nk)
        in
        min (min (f 1 1) (f 1 ek)) (min (f eo 1) (f eo ek))
    in
    List.fold_left (fun acc a -> acc * min_access a) 1 x.Nest.dims

  let ideal nest =
    List.fold_left (fun acc x -> acc + min_sweep nest x) 0 (Nest.externals nest)

  (* conflict graph over the externals that must revisit-or-pay,
     max-weight independent set by enumeration *)
  let penalized nest ~trips =
    let n = Nest.rank nest in
    let externals = Array.of_list (Nest.externals nest) in
    let used = Array.map Nest.used_axes externals in
    let free x = List.filter (fun i -> not (List.mem i used.(x))) (List.init n Fun.id) in
    let hot i = trips.(i) > 1 in
    let members =
      Array.of_list
        (List.filter
           (fun x -> List.exists hot (free x) && List.exists hot used.(x))
           (List.init (Array.length externals) Fun.id))
    in
    let m = Array.length members in
    let pen =
      Array.map
        (fun x ->
          let cheapest =
            List.fold_left (fun acc f -> min acc (max trips.(f) 2)) max_int (free x)
          in
          (cheapest - 1) * min_sweep nest externals.(x))
        members
    in
    let conflict a b =
      let xa = members.(a) and xb = members.(b) in
      List.exists (fun f -> hot f && List.mem f used.(xb)) (free xa)
      && List.exists (fun g -> hot g && List.mem g used.(xa)) (free xb)
    in
    let best_saved = ref 0 in
    for mask = 0 to (1 lsl m) - 1 do
      let ok = ref true and w = ref 0 in
      for a = 0 to m - 1 do
        if mask land (1 lsl a) <> 0 then begin
          w := !w + pen.(a);
          for b = a + 1 to m - 1 do
            if mask land (1 lsl b) <> 0 && conflict a b then ok := false
          done
        end
      done;
      if !ok && !w > !best_saved then best_saved := !w
    done;
    ideal nest + (Array.fold_left ( + ) 0 pen - !best_saved)

  (* over the tensor list, with [List.mem] on each tensor's used axes *)
  let max_total nest =
    let open Fusecu_util.Arith in
    List.fold_left
      (fun acc x ->
        let used = Nest.used_axes x in
        let free = ref 1 in
        Array.iteri
          (fun i e -> if not (List.mem i used) then free := mul_sat !free e)
          nest.Nest.extents;
        let sweep =
          List.fold_left
            (fun acc a ->
              mul_sat acc
                (match a with
                | Nest.Point i -> nest.Nest.extents.(i)
                | Nest.Window { outer; kernel; stride; dilation } ->
                  mul_sat
                    (add_sat (add_sat stride dilation) 1)
                    (mul_sat nest.Nest.extents.(outer) nest.Nest.extents.(kernel))))
            1 x.Nest.dims
        in
        add_sat acc (mul_sat !free sweep))
      0 nest.Nest.tensors
end

(* ---- random nests, schedules and trip vectors ---- *)

(* A conv with [oh] x [ow] outputs: stride up to 3 with a 1x1 kernel
   gives a skipping window. *)
let gen_conv =
  let open QCheck.Gen in
  let* n = int_range 1 2 and* c = int_range 1 3 and* k = int_range 1 3 in
  let* r = int_range 1 3 and* s = int_range 1 3 in
  let* stride = int_range 1 3 and* dilation = int_range 1 2 in
  let* padding = int_range 0 1 and* oh = int_range 1 4 and* ow = int_range 1 4 in
  let side o kern = max 1 (((o - 1) * stride) + ((kern - 1) * dilation) + 1 - (2 * padding)) in
  return
    (match
       Conv.validate ~stride ~dilation ~padding ~n ~c ~h:(side oh r) ~w:(side ow s) ~k ~r ~s ()
     with
    | Ok cv -> Lower.of_conv cv
    | Error _ -> Lower.of_conv (Conv.make ~n ~c ~h:(side oh r) ~w:(side ow s) ~k ~r:1 ~s:1 ()))

(* Any projective nest: each tensor reads a random subset of the axes,
   consecutive pairs of them possibly fused into a [Window]; the first
   tensor may be internal. *)
let projective ~extent ~stride ~dilation =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let* extents = array_repeat n extent in
  let rec dims = function
    | a :: b :: rest ->
      let* window = bool in
      if window then
        let* stride = stride and* dilation = dilation in
        let+ tl = dims rest in
        Nest.Window { outer = a; kernel = b; stride; dilation } :: tl
      else
        let+ tl = dims (b :: rest) in
        Nest.Point a :: tl
    | [ a ] -> return [ Nest.Point a ]
    | [] -> return []
  in
  let tensor j =
    let* axes = shuffle_l (List.init n Fun.id) in
    let* keep = int_range 1 n in
    let* d = dims (List.filteri (fun i _ -> i < keep) axes) in
    let+ internal = if j = 0 then map (fun k -> k = 0) (int_range 0 2) else return false in
    Nest.tensor ~internal (Printf.sprintf "T%d" j) d
  in
  let* nt = int_range 2 4 in
  let+ tensors = flatten_l (List.init nt tensor) in
  Nest.make ~name:"rand" ~axes:(Array.init n (Printf.sprintf "x%d")) ~extents ~tensors

(* Extents up to 6, strides up to 4, dilations up to 3. *)
let gen_projective =
  QCheck.Gen.(projective ~extent:(int_range 1 6) ~stride:(int_range 1 4) ~dilation:(int_range 1 3))

(* Nests whose worst-case totals overflow an [int]: extents near 2^31
   beside small ones, strides and dilations up to 2^40. *)
let gen_huge_nest =
  let open QCheck.Gen in
  let near_2_31 = int_range ((1 lsl 31) - 64) ((1 lsl 31) + 64) in
  let param = oneof [ int_range 1 4; int_range 1 (1 lsl 40) ] in
  projective ~extent:(oneof [ int_range 1 8; near_2_31 ]) ~stride:param ~dilation:param

let gen_nest =
  let open QCheck.Gen in
  let d = int_range 1 8 in
  frequency
    [ (1, map3 (fun m k l -> Lower.of_matmul (mm_make ~m ~k ~l)) d d d);
      (2, gen_conv);
      (1, map3 (fun b (m, k) l -> Lower.batched_mm ~b ~m ~k ~l ()) (int_range 1 3) (pair d d) d);
      ( 1,
        map3
          (fun (groups, heads) (m, k) l -> Lower.grouped_mm ~groups ~heads ~m ~k ~l ())
          (pair (int_range 1 3) (int_range 1 3)) (pair d d) d );
      ( 1,
        map3
          (fun (seq_q, seq_k) d dv -> Lower.attention_pair ~seq_q ~seq_k ~d ~dv ())
          (pair d d) (int_range 1 6) (int_range 1 6) );
      (4, gen_projective) ]

let gen_schedule nest =
  let open QCheck.Gen in
  let n = Nest.rank nest in
  let* tiles = flatten_a (Array.map (int_range 1) nest.Nest.extents) in
  let+ order = shuffle_l (List.init n Fun.id) in
  Nest.schedule_make nest ~tiles ~order:(Array.of_list order)

let print_case (nest, schedules, trips) =
  Format.asprintf "%a@.%s@.trips %s" Nest.pp nest
    (String.concat "; " (List.map (Nest.schedule_to_string nest) schedules))
    (String.concat "; "
       (List.map
          (fun t -> String.concat "," (Array.to_list (Array.map string_of_int t)))
          trips))

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      let* nest = gen_nest in
      let* schedules = list_repeat 8 (gen_schedule nest) in
      let+ trips =
        list_repeat 8 (flatten_a (Array.map (int_range 1) nest.Nest.extents))
      in
      (nest, schedules, trips))

let kernels_match_reference =
  QCheck.Test.make ~count:400 ~name:"kernels = list-based reference" arb_case
    (fun (nest, schedules, trip_vectors) ->
      Bound.ideal nest = Ref.ideal nest
      && List.for_all
           (fun (s : Nest.schedule) ->
             let trips = Ref.trips nest s.Nest.tiles in
             Nest.footprint_tiles nest s.Nest.tiles = Ref.footprint_tiles nest s.Nest.tiles
             && Nest.eval nest s = Ref.eval nest s
             && Nest.valid nest s = Ref.valid nest s
             && Nest.sweeps nest ~trips
                = Array.of_list (List.map (Ref.sweep nest trips) nest.Nest.tensors)
             && List.for_all Fun.id
                  (List.mapi
                     (fun x tensor ->
                       Nest.revisit_of nest s x
                       = Ref.revisit nest tensor ~trips ~order:s.Nest.order)
                     nest.Nest.tensors))
           schedules
      && List.for_all
           (fun trips -> Bound.penalized nest ~trips = Ref.penalized nest ~trips)
           trip_vectors)

(* [Search.eval_tiling] over a run of tilings sharing one incumbent,
   against a brute-force scan of [Search.orders] with the reference:
   the same count per tiling and the same incumbent (total, tiling
   index, order rank, tiles, order) after each; at the end, the
   incumbent's cost record ([Search.result_of]) is the reference's,
   field for field. *)
let arb_tilings =
  let gen =
    QCheck.Gen.(
      let* nest = gen_nest in
      let* lattice = oneofl [ Search.All; Search.Divisors; Search.Pow2 ] in
      let sp = Search.compile ~lattice nest ~capacity:max_int in
      let+ runs =
        list_repeat 6
          (flatten_a
             (Array.init (Nest.rank nest) (fun i ->
                  int_range 0 (Array.length (Search.candidates sp i) - 1))))
      in
      (sp, runs))
  in
  QCheck.make
    ~print:(fun (sp, runs) ->
      Format.asprintf "%a@.candidate indices %s" Nest.pp (Search.nest_of sp)
        (String.concat "; "
           (List.map
              (fun r -> String.concat "," (Array.to_list (Array.map string_of_int r)))
              runs)))
    gen

let eval_tiling_matches_scan =
  QCheck.Test.make ~count:300 ~name:"eval_tiling = brute-force scan" arb_tilings
    (fun (sp, runs) ->
      let nest = Search.nest_of sp in
      let best = Search.incumbent sp and expected = ref None in
      let same_incumbent () =
        match !expected with
        | None -> Array.length best.Search.order = 0
        | Some ((c : Nest.cost), ti, rank, (s : Nest.schedule)) ->
          best.Search.total = c.Nest.total
          && best.Search.tiling_index = ti
          && best.Search.order_rank = rank
          && best.Search.tiles = s.Nest.tiles
          && best.Search.order = s.Nest.order
      in
      List.for_all
        (fun idxs ->
          let tiles = Array.mapi (fun i j -> (Search.candidates sp i).(j)) idxs in
          let ti = Search.tiling_index sp idxs in
          let trips = Ref.trips nest tiles in
          let count = ref 0 in
          List.iteri
            (fun rank order ->
              let s = { Nest.tiles = Array.copy tiles; order } in
              if Ref.valid nest s then begin
                incr count;
                let cost = Ref.eval nest s in
                match !expected with
                | Some ((c : Nest.cost), bti, brank, _)
                  when compare (c.Nest.total, bti, brank) (cost.Nest.total, ti, rank) <= 0 ->
                  ()
                | _ -> expected := Some (cost, ti, rank, s)
              end)
            (Search.orders sp ~trips);
          Search.eval_tiling sp ~idxs ~tiles best = !count && same_incumbent ())
        runs
      &&
      match (Search.result_of sp best ~explored:0 ~evaluated:0, !expected) with
      | None, None -> true
      | Some r, Some (c, ti, rank, s) ->
        r.Search.cost.Nest.total = c.Nest.total
        && r.Search.cost.Nest.per = c.Nest.per
        && r.Search.schedule = s
        && r.Search.tiling_index = ti
        && r.Search.order_rank = rank
      | _ -> false)

(* With the other tiles held, the footprint is affine in one axis's
   tile, and [Search.largest_fit]'s closed form finds the candidate a
   scan of [Nest.footprint_tiles] finds: over random partial tilings
   (open axes at tile 1, the rest on the lattice), every axis in turn
   reset to 1, capacities from below the smallest tile up, all three
   lattices. *)
let arb_partial_tilings =
  let gen =
    QCheck.Gen.(
      let* nest = gen_nest in
      let* lattice = oneofl [ Search.All; Search.Divisors; Search.Pow2 ] in
      let* capacity = int_range 1 (Nest.footprint_tiles nest nest.Nest.extents + 1) in
      let sp = Search.compile ~lattice nest ~capacity in
      let+ tiles =
        flatten_a
          (Array.init (Nest.rank nest) (fun i ->
               let* open_axis = bool in
               if open_axis then return 1 else oneofa (Search.candidates sp i)))
      in
      (sp, tiles))
  in
  QCheck.make
    ~print:(fun (sp, tiles) ->
      Format.asprintf "%a@.capacity %d, tiles %s" Nest.pp (Search.nest_of sp)
        (Search.capacity sp)
        (String.concat "," (Array.to_list (Array.map string_of_int tiles))))
    gen

let footprint_affine =
  QCheck.Test.make ~count:400 ~name:"footprint affine in a tile; largest_fit = scan"
    arb_partial_tilings (fun (sp, tiles) ->
      let nest = Search.nest_of sp in
      List.for_all
        (fun axis ->
          let held = tiles.(axis) in
          let at t =
            tiles.(axis) <- t;
            let fp = Nest.footprint_tiles nest tiles in
            tiles.(axis) <- 1;
            fp
          in
          let base = at 1 in
          let slope = at 2 - base in
          let cands = Search.candidates sp axis in
          let affine = Array.for_all (fun t -> at t = base + ((t - 1) * slope)) cands in
          let scan = ref (-1) in
          Array.iteri (fun j t -> if at t <= Search.capacity sp then scan := j) cands;
          let fit = Search.largest_fit sp ~base ~slope axis in
          let restored = tiles.(axis) = 1 in
          tiles.(axis) <- held;
          affine && fit = !scan && restored)
        (List.init (Nest.rank nest) Fun.id))

(* [Nest.max_total] decides the "problem too large" reject: it must be
   the list-based code's value on every nest, saturated ones included. *)
let max_total_matches_reference =
  QCheck.Test.make ~count:500 ~name:"max_total = list-based reference"
    (QCheck.make ~print:(Format.asprintf "%a" Nest.pp)
       QCheck.Gen.(oneof [ gen_nest; gen_huge_nest ]))
    (fun nest -> Nest.max_total nest = Ref.max_total nest)

(* The huge nests reach both sides of the saturation edge. *)
let test_max_total_saturates () =
  let rand = Random.State.make [| 31 |] in
  let nests = List.init 200 (fun _ -> gen_huge_nest rand) in
  let saturated = List.filter (fun t -> Nest.max_total t = max_int) nests in
  check_bool "some huge nests saturate" true (List.length saturated > 0);
  check_bool "some huge nests do not" true (List.length saturated < 200)

let test_rank_limit () =
  let axes n = Array.init n (Printf.sprintf "x%d") in
  let nest n =
    Nest.make ~name:"wide" ~axes:(axes n) ~extents:(Array.make n 2)
      ~tensors:[ Nest.tensor "A" (List.init n (fun i -> Nest.Point i)) ]
  in
  check_int "rank 62 accepted" 62 (Nest.rank (nest Nest.max_rank));
  Alcotest.check_raises "rank 63 rejected"
    (Invalid_argument "Nest.make: rank 63 above 62")
    (fun () -> ignore (nest (Nest.max_rank + 1)));
  (* the bound keeps its external tensors in a mask too *)
  let externals k =
    Nest.make ~name:"many" ~axes:[| "x" |] ~extents:[| 2 |]
      ~tensors:
        (Nest.tensor ~internal:true "S" [ Nest.Point 0 ]
        :: List.init k (fun j -> Nest.tensor (Printf.sprintf "T%d" j) [ Nest.Point 0 ]))
  in
  check_int "62 externals accepted" 62
    (List.length (Nest.externals (externals Nest.max_rank)));
  Alcotest.check_raises "63 externals rejected"
    (Invalid_argument "Nest.make: more than 62 external tensors")
    (fun () -> ignore (externals (Nest.max_rank + 1)))

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
          Alcotest.test_case "rank limit" `Quick test_rank_limit;
          Alcotest.test_case "max_total saturates" `Quick test_max_total_saturates;
        ] );
      ( "kernels",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]))
          [ kernels_match_reference;
            eval_tiling_matches_scan;
            footprint_affine;
            max_total_matches_reference ] );
    ]
