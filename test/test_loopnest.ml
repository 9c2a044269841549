open Fusecu_tensor
open Fusecu_loopnest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Buffer                                                              *)

let test_buffer () =
  let b = Buffer.of_kib 512 in
  check_int "512KB elements (int8)" 524288 (Buffer.elements b);
  let b2 = Buffer.make ~elt_bytes:2 1024 in
  check_int "fp16 elements" 512 (Buffer.elements b2);
  Alcotest.check_raises "zero" (Invalid_argument "Buffer.make: bytes must be >= 1")
    (fun () -> ignore (Buffer.make 0))

(* ------------------------------------------------------------------ *)
(* Tiling                                                              *)

let op = Matmul.make ~m:8 ~k:6 ~l:10 ()

let test_tiling () =
  let t = Tiling.make op ~m:4 ~k:100 ~l:1 in
  check_int "clamped k" 6 (Tiling.get t Dim.K);
  check_int "m kept" 4 (Tiling.get t Dim.M);
  check_int "footprint" ((4 * 6) + (6 * 1) + (4 * 1)) (Tiling.footprint t);
  check_bool "untiled k" true (Tiling.untiled op t Dim.K);
  check_bool "tiled m" false (Tiling.untiled op t Dim.M);
  check_int "trips m" 2 (Tiling.trips op t Dim.M);
  check_int "trips ragged" 3 (Tiling.trips op (Tiling.make op ~m:3 ~k:6 ~l:10) Dim.M);
  check_int "full footprint" ((8 * 6) + (6 * 10) + (8 * 10))
    (Tiling.footprint (Tiling.full op));
  check_int "unit" 3 (Tiling.footprint Tiling.unit)

let test_tiling_update () =
  let t = Tiling.with_dim op (Tiling.full op) Dim.L 3 in
  check_int "updated" 3 (Tiling.get t Dim.L);
  check_int "others kept" 8 (Tiling.get t Dim.M)

(* ------------------------------------------------------------------ *)
(* Order                                                               *)

let test_order () =
  check_int "six orders" 6 (List.length Order.all);
  let o = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
  check_int "pos outer" 1 (Order.position o Dim.M);
  check_int "pos inner" 3 (Order.position o Dim.K);
  Alcotest.(check string) "pp" "M>L>K" (Order.to_string o);
  Alcotest.check_raises "dup" (Invalid_argument "Order.make: dimensions must be distinct")
    (fun () -> ignore (Order.make ~outer:Dim.M ~mid:Dim.M ~inner:Dim.K));
  (* output-stationary orders end on K *)
  List.iter
    (fun o -> check_int "OS inner is K" 3 (Order.position o Dim.K))
    (Order.stationary_for Operand.C);
  check_int "two OS orders" 2 (List.length (Order.stationary_for Operand.C))

(* ------------------------------------------------------------------ *)
(* Cost model: paper equations                                         *)

(* Eq. 1: output-stationary, T_M = T_L = t, T_K = 1:
   MA = MKL(1/t + 1/t) + ML for dividing t. *)
let test_eq1 () =
  let op = Matmul.make ~m:64 ~k:48 ~l:32 () in
  let t = 16 in
  let tiling = Tiling.make op ~m:t ~k:1 ~l:t in
  let order = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
  let cost = Cost.eval op (Schedule.make tiling order) in
  let mkl = Matmul.macs op in
  check_int "A term" (mkl / t) cost.a.traffic;
  check_int "B term" (mkl / t) cost.b.traffic;
  check_int "C term" (64 * 32) cost.c.traffic;
  check_int "total" ((2 * mkl / t) + (64 * 32)) cost.total;
  check_bool "C is NRA" true (Cost.is_nra op (Schedule.make tiling order) Operand.C);
  check_int "single-NRA" 1 (Cost.nra_count op (Schedule.make tiling order))

(* Eq. 3: untiled K, T_L = 1: MA = MKL/T_M + MK + ML. *)
let test_eq3 () =
  let op = Matmul.make ~m:64 ~k:48 ~l:32 () in
  let tm = 8 in
  let tiling = Tiling.make op ~m:tm ~k:48 ~l:1 in
  let order = Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K in
  let s = Schedule.make tiling order in
  let cost = Cost.eval op s in
  check_int "B redundant" (Matmul.macs op / tm) cost.b.traffic;
  check_int "A once" (64 * 48) cost.a.traffic;
  check_int "C once" (64 * 32) cost.c.traffic;
  check_int "two-NRA" 2 (Cost.nra_count op s)

let test_everything_fits () =
  let op = Matmul.make ~m:8 ~k:4 ~l:6 () in
  let s = Schedule.make (Tiling.full op) (List.hd Order.all) in
  let cost = Cost.eval op s in
  check_int "ideal" (Matmul.ideal_ma op) cost.total;
  check_int "three-NRA" 3 (Cost.nra_count op s)

let test_partial_sum_penalty () =
  let op = Matmul.make ~m:16 ~k:16 ~l:16 () in
  (* K outermost with small tiles: C is revisited *)
  let tiling = Tiling.make op ~m:4 ~k:4 ~l:4 in
  let order = Order.make ~outer:Dim.K ~mid:Dim.M ~inner:Dim.L in
  let s = Schedule.make tiling order in
  let plain = Cost.eval op s in
  let penal = Cost.eval ~partial_sum_penalty:true op s in
  check_int "C revisit" 4 plain.c.revisit;
  check_int "plain C" (4 * 256) plain.c.traffic;
  check_int "penalized C" (((2 * 4) - 1) * 256) penal.c.traffic;
  check_int "A,B unchanged" plain.a.traffic penal.a.traffic

let test_at_least_one_nra () =
  let op = Matmul.make ~m:9 ~k:7 ~l:5 () in
  List.iter
    (fun order ->
      let s = Schedule.make (Tiling.make op ~m:2 ~k:2 ~l:2) order in
      check_bool "some NRA" true (Cost.nra_count op s >= 1))
    Order.all

(* ------------------------------------------------------------------ *)
(* Property: closed form == mechanical simulation                      *)

let gen_case =
  QCheck.Gen.(
    let dim = int_range 1 9 in
    let* m = dim and* k = dim and* l = dim in
    let op = Matmul.make ~m ~k ~l () in
    let tile d = int_range 1 (Matmul.dim op d) in
    let* tm = tile Dim.M and* tk = tile Dim.K and* tl = tile Dim.L in
    let* oi = int_range 0 5 in
    let order = List.nth Order.all oi in
    return (op, Schedule.make (Tiling.make op ~m:tm ~k:tk ~l:tl) order))

let print_case (op, s) =
  Printf.sprintf "%s under %s" (Matmul.to_string op) (Schedule.to_string s)

let arb_case = QCheck.make ~print:print_case gen_case

let prop_cost_matches_sim =
  QCheck.Test.make ~count:800 ~name:"closed-form traffic == simulated traffic"
    arb_case (fun (op, s) ->
      let analytic = Cost.eval op s in
      let simulated = Fusecu_oracle.Check.simulate op s in
      analytic.a.traffic = simulated.a.traffic
      && analytic.b.traffic = simulated.b.traffic
      && analytic.c.traffic = simulated.c.traffic)

let prop_fetches_match_sim =
  QCheck.Test.make ~count:800 ~name:"closed-form fetches == simulated fetches"
    arb_case (fun (op, s) ->
      let analytic = Cost.eval op s in
      let simulated = Fusecu_oracle.Check.simulate op s in
      analytic.a.fetches = simulated.a.fetches
      && analytic.b.fetches = simulated.b.fetches
      && analytic.c.fetches = simulated.c.fetches)

let prop_revisit_matches_sim =
  QCheck.Test.make ~count:500 ~name:"revisit factor == max simulated refetch"
    arb_case (fun (op, s) ->
      let analytic = Cost.eval op s in
      let simulated = Fusecu_oracle.Check.simulate op s in
      analytic.a.revisit = simulated.a.revisit
      && analytic.b.revisit = simulated.b.revisit
      && analytic.c.revisit = simulated.c.revisit)

(* The three properties above simulate the matmul's lowering: its
   iteration space must be the matmul's MACs, and the translated
   schedule must walk the matmul's tile grid, axis by axis. *)
let prop_lowering_walks_tile_grid =
  QCheck.Test.make ~count:500 ~name:"lowered nest covers all MACs on the tile grid"
    arb_case (fun (op, s) ->
      let open Fusecu_nest in
      let nest = Lower.of_matmul op in
      let ns = Lower.schedule_of_mm nest ~tiling:s.tiling ~order:s.order in
      let trips d = Tiling.trips op s.tiling d in
      Nest.points nest = Matmul.macs op
      && List.for_all (fun d -> Nest.trips nest ns (Lower.dim_axis d) = trips d) Dim.all
      && Nsim.points nest ns = trips Dim.M * trips Dim.K * trips Dim.L)

let prop_traffic_lower_bound =
  QCheck.Test.make ~count:500 ~name:"traffic >= ideal lower bound" arb_case
    (fun (op, s) -> (Cost.eval op s).total >= Matmul.ideal_ma op)

(* The trip-vector kernel prices every order of a tiling from one trip
   vector; it must agree with [Cost.eval] (held to the simulator above)
   on every order, operand by operand. *)
let prop_trip_kernel_matches_eval =
  QCheck.Test.make ~count:1000 ~name:"trip kernel == Cost.eval"
    (QCheck.make
       ~print:(fun (op, t) ->
         Format.asprintf "%s under %a" (Matmul.to_string op) Tiling.pp t)
       QCheck.Gen.(
         let dim = oneof [ int_range 1 9; int_range 1 200 ] in
         let* m = dim and* k = dim and* l = dim in
         let op = Matmul.make ~m ~k ~l () in
         let tile d = int_range 1 (Matmul.dim op d) in
         let* tm = tile Dim.M and* tk = tile Dim.K and* tl = tile Dim.L in
         return (op, Tiling.make op ~m:tm ~k:tk ~l:tl)))
    (fun (op, t) ->
      let n = Cost.trips op t in
      n.Cost.nm = Tiling.trips op t Dim.M
      && n.nk = Tiling.trips op t Dim.K
      && n.nl = Tiling.trips op t Dim.L
      && List.for_all
           (fun o ->
             let cost = Cost.eval op (Schedule.make t o) in
             Cost.total_at op n o = cost.total
             && List.for_all
                  (fun x ->
                    let c = Cost.operand cost x in
                    Cost.revisit_at n o x = c.revisit && Cost.traffic_at op n o x = c.traffic)
                  Operand.all)
           Order.all)

(* The revisit table against the rule it is built from: trip counts of
   1, 2 or anything, each made by a dimension of [n * t] under a tile
   of [t], under all six orders. *)
let prop_revisit_table_matches_rule =
  QCheck.Test.make ~count:1000 ~name:"revisit table == revisit_at"
    (QCheck.make
       ~print:(fun (op, t) ->
         Format.asprintf "%s under %a" (Matmul.to_string op) Tiling.pp t)
       QCheck.Gen.(
         let dim =
           let* n = oneof [ return 1; return 2; int_range 1 50 ] and* t = int_range 1 20 in
           return (n * t, t)
         in
         let* m, tm = dim and* k, tk = dim and* l, tl = dim in
         let op = Matmul.make ~m ~k ~l () in
         return (op, Tiling.make op ~m:tm ~k:tk ~l:tl)))
    (fun (op, t) ->
      let n = Cost.trips op t in
      n.Cost.nm = Cost.trip op.m t.m
      && n.nk = Cost.trip op.k t.k
      && n.nl = Cost.trip op.l t.l
      && List.for_all
           (fun i ->
             let o = Order.of_index i in
             o = List.nth Order.all i
             && Order.index o = i
             && Cost.table_total op n.nm n.nk n.nl i = Cost.total_at op n o
             && List.for_all
                  (fun x ->
                    let revisit =
                      if Cost.table_revisits n.nm n.nk n.nl i land Cost.operand_bit x = 0
                      then 1
                      else Cost.trip (Matmul.dim op (Operand.free_dim x))
                             (Tiling.get t (Operand.free_dim x))
                    in
                    revisit = Cost.revisit_at n o x
                    && revisit * Matmul.operand_size op x = Cost.traffic_at op n o x)
                  Operand.all)
           [ 0; 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Fused pair model                                                    *)

let fused_pair () =
  let op1 = Matmul.make ~name:"mm1" ~m:16 ~k:8 ~l:12 () in
  let op2 = Matmul.make ~name:"mm2" ~m:16 ~k:12 ~l:8 () in
  Fused.make_pair_exn op1 op2

let test_fused_pair_validation () =
  let op1 = Matmul.make ~m:16 ~k:8 ~l:12 () in
  check_bool "wrong M" true
    (Result.is_error (Fused.make_pair op1 (Matmul.make ~m:8 ~k:12 ~l:8 ())));
  check_bool "wrong K" true
    (Result.is_error (Fused.make_pair op1 (Matmul.make ~m:16 ~k:9 ~l:8 ())))

let os_is_fused pair =
  let { Fused.op1; op2 } = pair in
  let producer =
    Schedule.make
      (Tiling.make op1 ~m:4 ~k:1 ~l:4)
      (Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K)
  in
  let consumer =
    Schedule.make
      (Tiling.make op2 ~m:4 ~k:4 ~l:1)
      (Order.make ~outer:Dim.M ~mid:Dim.K ~inner:Dim.L)
  in
  { Fused.producer; consumer }

let test_fused_valid_os_is () =
  let pair = fused_pair () in
  let f = os_is_fused pair in
  (match Fused.validate pair f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid: %a" Fused.pp_invalid e);
  (* C tile shared once in the footprint *)
  check_int "footprint"
    (Schedule.footprint f.producer + Schedule.footprint f.consumer - (4 * 4))
    (Fused.footprint f);
  (* traffic = A + B of producer plus D + E of consumer; C free *)
  let prod = Cost.eval pair.op1 f.producer in
  let cons = Cost.eval pair.op2 f.consumer in
  check_int "traffic"
    (prod.a.traffic + prod.b.traffic + cons.b.traffic + cons.c.traffic)
    (Fused.traffic pair f)

let test_fused_rejects_redundant_c () =
  let pair = fused_pair () in
  let { Fused.op1; op2 } = pair in
  (* producer with C revisited: K outermost, tiled *)
  let producer =
    Schedule.make
      (Tiling.make op1 ~m:4 ~k:2 ~l:4)
      (Order.make ~outer:Dim.K ~mid:Dim.M ~inner:Dim.L)
  in
  let consumer = (os_is_fused pair).Fused.consumer in
  (match Fused.validate pair { Fused.producer; consumer } with
  | Error (Fused.Intermediate_redundant `Producer) -> ()
  | Ok () -> Alcotest.fail "expected redundant producer"
  | Error e -> Alcotest.failf "unexpected: %a" Fused.pp_invalid e);
  (* consumer with A revisited *)
  let producer = (os_is_fused pair).Fused.producer in
  let consumer_bad =
    Schedule.make
      (Tiling.make op2 ~m:4 ~k:4 ~l:2)
      (Order.make ~outer:Dim.L ~mid:Dim.M ~inner:Dim.K)
  in
  match Fused.validate pair { Fused.producer; consumer = consumer_bad } with
  | Error (Fused.Intermediate_redundant `Consumer) -> ()
  | Ok () -> Alcotest.fail "expected redundant consumer"
  | Error e -> Alcotest.failf "unexpected: %a" Fused.pp_invalid e

let test_fused_rejects_tile_mismatch () =
  let pair = fused_pair () in
  let { Fused.op2; _ } = pair in
  let f = os_is_fused pair in
  let consumer =
    Schedule.make
      (Tiling.make op2 ~m:8 ~k:4 ~l:1)
      (Order.make ~outer:Dim.M ~mid:Dim.K ~inner:Dim.L)
  in
  match Fused.validate pair { f with Fused.consumer } with
  | Error Fused.Tile_mismatch -> ()
  | Ok () -> Alcotest.fail "expected tile mismatch"
  | Error e -> Alcotest.failf "unexpected: %a" Fused.pp_invalid e

let test_fused_rejects_order_mismatch () =
  let pair = fused_pair () in
  let { Fused.op2; _ } = pair in
  let f = os_is_fused pair in
  (* consumer walks K-major while producer walks M-major *)
  let consumer =
    Schedule.make
      (Tiling.make op2 ~m:4 ~k:4 ~l:1)
      (Order.make ~outer:Dim.K ~mid:Dim.M ~inner:Dim.L)
  in
  match Fused.validate pair { f with Fused.consumer } with
  | Error Fused.Order_mismatch -> ()
  | Ok () -> Alcotest.fail "expected order mismatch"
  | Error e -> Alcotest.failf "unexpected: %a" Fused.pp_invalid e

let test_fused_resident_ignores_order () =
  let pair = fused_pair () in
  let { Fused.op1; op2 } = pair in
  (* whole C on-chip on both sides; orders deliberately mismatched *)
  let producer =
    Schedule.make
      (Tiling.make op1 ~m:16 ~k:1 ~l:12)
      (Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K)
  in
  let consumer =
    Schedule.make
      (Tiling.make op2 ~m:16 ~k:12 ~l:1)
      (Order.make ~outer:Dim.K ~mid:Dim.M ~inner:Dim.L)
  in
  match Fused.validate pair { Fused.producer; consumer } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resident C should ignore order: %a" Fused.pp_invalid e

let test_fused_eval_buffer_limit () =
  let pair = fused_pair () in
  let f = os_is_fused pair in
  let tiny = Buffer.make 8 in
  check_bool "buffer too small" true (Result.is_error (Fused.eval pair f tiny));
  let big = Buffer.make 4096 in
  match Fused.eval pair f big with
  | Ok traffic -> check_int "eval traffic" (Fused.traffic pair f) traffic
  | Error e -> Alcotest.failf "%a" Fused.pp_error e

(* The rejection texts are part of what callers print; pin them. *)
let test_fused_error_messages () =
  let pair = fused_pair () in
  let f = os_is_fused pair in
  let text e = Format.asprintf "%a" Fused.pp_error e in
  (match Fused.eval pair f (Buffer.make 8) with
  | Error e ->
    Alcotest.(check string) "over capacity"
      "fused footprint 32 exceeds buffer capacity 8" (text e)
  | Ok _ -> Alcotest.fail "expected over capacity");
  let consumer =
    Schedule.make
      (Tiling.make pair.op2 ~m:8 ~k:4 ~l:1)
      (Order.make ~outer:Dim.M ~mid:Dim.K ~inner:Dim.L)
  in
  (match Fused.eval pair { f with Fused.consumer } (Buffer.make 4096) with
  | Error e ->
    Alcotest.(check string) "invalid"
      "intermediate tile sizes differ between operators" (text e)
  | Ok _ -> Alcotest.fail "expected tile mismatch");
  List.iter
    (fun (invalid, expected) ->
      Alcotest.(check string) expected expected (text (Fused.Invalid invalid)))
    [ (Fused.Intermediate_redundant `Producer, "intermediate tensor refetched by producer");
      (Fused.Intermediate_redundant `Consumer, "intermediate tensor refetched by consumer");
      (Fused.Order_mismatch, "intermediate production and consumption orders differ") ]

let test_fused_beats_unfused_here () =
  let pair = fused_pair () in
  let f = os_is_fused pair in
  let s1 = f.Fused.producer and s2 = f.Fused.consumer in
  check_bool "fusion saves the intermediate" true
    (Fused.traffic pair f < Fused.unfused_traffic pair s1 s2)


(* ------------------------------------------------------------------ *)
(* Fused loop-order choice                                             *)

(* What [Fused.best_orders] must return: the first minimum of
   [Fused.eval] over every order pair, producer order major. *)
let brute_best_orders pair ~producer ~consumer buf =
  List.fold_left
    (fun acc o1 ->
      List.fold_left
        (fun acc o2 ->
          let f =
            { Fused.producer = Schedule.make producer o1;
              consumer = Schedule.make consumer o2 }
          in
          match (Fused.eval pair f buf, acc) with
          | Error _, _ -> acc
          | Ok t, Some (_, bt) when bt <= t -> acc
          | Ok t, _ -> Some (f, t))
        acc Order.all)
    None Order.all

let same_choice a b =
  match (a, b) with
  | None, None -> true
  | Some ((f : Fused.t), t), Some ((g : Fused.t), u) ->
    t = u
    && Schedule.equal f.producer g.producer
    && Schedule.equal f.consumer g.consumer
  | _ -> false

type orders_case = {
  pair : Fused.pair;
  producer : Tiling.t;
  consumer : Tiling.t;
  bytes : int;
}

(* [kind] 0 shares C's tile between the sides, 1 holds C resident on
   both, 2 gives the consumer a different C tile (a mismatch whenever
   M or L1 exceeds 1). The buffer is drawn around the joint footprint,
   so about a third of the cases are over capacity. *)
let gen_orders_case =
  QCheck.Gen.(
    let dim = int_range 1 12 in
    let* m = dim and* k = dim and* l = dim and* l2 = dim in
    let op1 = Matmul.make ~m ~k ~l () and op2 = Matmul.make ~m ~k:l ~l:l2 () in
    let minor n = oneof [ return 1; return n; int_range 1 n ] in
    let* kind = int_range 0 2 in
    let* tm = int_range 1 m and* tl = int_range 1 l in
    let* tk1 = minor k and* tl2 = minor l2 in
    let tm, tl = if kind = 1 then (m, l) else (tm, tl) in
    let tm2, tl' = if kind = 2 then ((tm mod m) + 1, (tl mod l) + 1) else (tm, tl) in
    let producer = Tiling.make op1 ~m:tm ~k:tk1 ~l:tl in
    let consumer = Tiling.make op2 ~m:tm2 ~k:tl' ~l:tl2 in
    let any o = Schedule.make o (List.hd Order.all) in
    let fp = Fused.footprint { Fused.producer = any producer; consumer = any consumer } in
    let* slack = int_range (-(fp / 2)) fp in
    return
      { pair = Fused.make_pair_exn op1 op2; producer; consumer; bytes = max 1 (fp + slack) })

let print_orders_case c =
  Printf.sprintf "%s ; %s under %s / %s, %d bytes" (Matmul.to_string c.pair.op1)
    (Matmul.to_string c.pair.op2)
    (Format.asprintf "%a" Tiling.pp c.producer)
    (Format.asprintf "%a" Tiling.pp c.consumer)
    c.bytes

let prop_best_orders_matches_brute_force =
  QCheck.Test.make ~count:1500
    ~name:"best_orders == first minimum of eval over all 36 order pairs"
    (QCheck.make ~print:print_orders_case gen_orders_case)
    (fun c ->
      let buf = Buffer.make c.bytes in
      same_choice
        (Fused.best_orders c.pair ~producer:c.producer ~consumer:c.consumer buf)
        (brute_best_orders c.pair ~producer:c.producer ~consumer:c.consumer buf))

let prop_eval_tiles_matches_eval =
  QCheck.Test.make ~count:1000 ~name:"eval_tiles == eval over all 36 order pairs"
    (QCheck.make ~print:print_orders_case gen_orders_case)
    (fun c ->
      let buf = Buffer.make c.bytes in
      let p = c.producer and k = c.consumer in
      (* the kernel takes agreeing C tiles *)
      p.m <> k.m || p.l <> k.k
      || List.for_all
           (fun o1 ->
             List.for_all
               (fun o2 ->
                 let fused =
                   { Fused.producer = Schedule.make p (Order.of_index o1);
                     consumer = Schedule.make k (Order.of_index o2) }
                 in
                 Fused.eval_tiles c.pair ~tm:p.m ~tk1:p.k ~tl:p.l ~tl2:k.l
                   ~capacity:(Buffer.elements buf) o1 o2
                 = match Fused.eval c.pair fused buf with Ok t -> t | Error _ -> -1)
               [ 0; 1; 2; 3; 4; 5 ])
           [ 0; 1; 2; 3; 4; 5 ])

(* The three cases the property's generator steers toward, pinned. *)
let test_best_orders_cases () =
  let pair = fused_pair () in
  let { Fused.op1; op2 } = pair in
  let agree name ~producer ~consumer bytes expect_some =
    let buf = Buffer.make bytes in
    let got = Fused.best_orders pair ~producer ~consumer buf in
    check_bool (name ^ ": found") expect_some (Option.is_some got);
    check_bool (name ^ ": = brute force") true
      (same_choice got (brute_best_orders pair ~producer ~consumer buf))
  in
  (* C resident on both sides: every valid order pair counts, even
     those whose C orders differ. *)
  agree "resident C" ~producer:(Tiling.make op1 ~m:16 ~k:1 ~l:12)
    ~consumer:(Tiling.make op2 ~m:16 ~k:12 ~l:1) 4096 true;
  agree "tile mismatch" ~producer:(Tiling.make op1 ~m:4 ~k:1 ~l:4)
    ~consumer:(Tiling.make op2 ~m:8 ~k:4 ~l:1) 4096 false;
  agree "over capacity" ~producer:(Tiling.make op1 ~m:4 ~k:1 ~l:4)
    ~consumer:(Tiling.make op2 ~m:4 ~k:4 ~l:1) 31 false;
  agree "at capacity" ~producer:(Tiling.make op1 ~m:4 ~k:1 ~l:4)
    ~consumer:(Tiling.make op2 ~m:4 ~k:4 ~l:1) 32 true

(* ------------------------------------------------------------------ *)
(* Movement description                                                *)

let test_movement_output_stationary () =
  let op = Matmul.make ~m:16 ~k:16 ~l:16 () in
  let s =
    Schedule.make
      (Tiling.make op ~m:4 ~k:1 ~l:4)
      (Order.make ~outer:Dim.M ~mid:Dim.L ~inner:Dim.K)
  in
  (* C tile stays while K sweeps A and B *)
  (match Movement.motion op s Operand.C with
  | Movement.Swept dims ->
    check_bool "C only on its own loops" true
      (not (List.exists (Dim.equal Dim.K) dims))
  | Movement.Stationary -> Alcotest.fail "C has 16 tiles");
  (match Movement.motion op s Operand.A with
  | Movement.Swept dims -> check_bool "A swept by K" true (List.exists (Dim.equal Dim.K) dims)
  | Movement.Stationary -> Alcotest.fail "A moves");
  let text = Movement.describe op s in
  check_bool "mentions loop nest" true (String.length text > 40)

let test_movement_fully_resident () =
  let op = Matmul.make ~m:4 ~k:4 ~l:4 () in
  let s = Schedule.make (Tiling.full op) (List.hd Order.all) in
  List.iter
    (fun x ->
      check_bool "all stationary" true (Movement.motion op s x = Movement.Stationary))
    Operand.all

let qsuite =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20250704 |]))
    [ prop_cost_matches_sim; prop_fetches_match_sim; prop_revisit_matches_sim;
      prop_lowering_walks_tile_grid; prop_traffic_lower_bound;
      prop_best_orders_matches_brute_force; prop_trip_kernel_matches_eval;
      prop_revisit_table_matches_rule; prop_eval_tiles_matches_eval ]

let () =
  Alcotest.run "loopnest"
    [ ( "buffer", [ Alcotest.test_case "capacity" `Quick test_buffer ] );
      ( "tiling",
        [ Alcotest.test_case "basics" `Quick test_tiling;
          Alcotest.test_case "with_dim" `Quick test_tiling_update ] );
      ( "order", [ Alcotest.test_case "basics" `Quick test_order ] );
      ( "cost",
        [ Alcotest.test_case "paper Eq.1 (output stationary)" `Quick test_eq1;
          Alcotest.test_case "paper Eq.3 (untiled K)" `Quick test_eq3;
          Alcotest.test_case "unbounded buffer is ideal" `Quick
            test_everything_fits;
          Alcotest.test_case "partial-sum penalty" `Quick
            test_partial_sum_penalty;
          Alcotest.test_case "at least one NRA operand" `Quick
            test_at_least_one_nra ] );
      ( "fused",
        [ Alcotest.test_case "pair validation" `Quick test_fused_pair_validation;
          Alcotest.test_case "valid OS-IS fusion" `Quick test_fused_valid_os_is;
          Alcotest.test_case "rejects redundant intermediate" `Quick
            test_fused_rejects_redundant_c;
          Alcotest.test_case "rejects tile mismatch" `Quick
            test_fused_rejects_tile_mismatch;
          Alcotest.test_case "rejects order mismatch" `Quick
            test_fused_rejects_order_mismatch;
          Alcotest.test_case "resident C ignores order" `Quick
            test_fused_resident_ignores_order;
          Alcotest.test_case "buffer capacity enforced" `Quick
            test_fused_eval_buffer_limit;
          Alcotest.test_case "error messages" `Quick test_fused_error_messages;
          Alcotest.test_case "best_orders: resident, mismatch, capacity" `Quick
            test_best_orders_cases;
          Alcotest.test_case "fusion saves intermediate traffic" `Quick
            test_fused_beats_unfused_here ] );
      ( "movement",
        [ Alcotest.test_case "output stationary" `Quick
            test_movement_output_stationary;
          Alcotest.test_case "fully resident" `Quick test_movement_fully_resident ] );
      ("properties", qsuite) ]
