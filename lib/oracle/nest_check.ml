open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_nest

(* Differential conformance oracle for the projective loop-nest IR —
   the `check --nests` leg. Per problem (a nest kind plus a buffer):

   - branch-and-bound vs exhaustive: Dse.Nest_bnb must reproduce
     Search.exhaustive bit-for-bit (feasibility, cost, tiling index,
     order rank, schedule);
   - analytic vs simulated: Nest.eval must equal Nsim.eval per tensor
     on the winner and on random ragged lattice schedules;
   - bounds: the winner never beats Bound.ideal, and Bound.penalized
     at the winner's actual trip counts stays admissible;
   - leaf pricing: on the winning tiling, Search.eval_tiling's order
     classes give the count and (total, rank) of a scan of every order
     through Nest.valid and Nest.eval;
   - matmul problems additionally cross-check the winner against the
     legacy Dse.Exhaustive optimum (total and tiles);
   - conv problems pin the iteration count to Conv.macs and the
     halo-exact input ideal at or below the im2col-inflated one.

   Ground truth uses the Divisors lattice — the service hot path's
   lattice — so the soak exercises exactly what production searches. *)

type problem = { kind : Lower.kind; bs : int }

let lattice = Search.Divisors

let kind_name = function
  | Lower.N_matmul _ -> "mm"
  | Lower.N_conv2d _ -> "conv"
  | Lower.N_batched_mm _ -> "bmm"
  | Lower.N_grouped_mm _ -> "gmm"
  | Lower.N_attention _ -> "attn"

let to_spec p =
  let fields =
    match p.kind with
    | Lower.N_matmul { m; k; l } -> [ ("m", m); ("k", k); ("l", l) ]
    | Lower.N_conv2d cv ->
      [ ("n", cv.Conv.n); ("c", cv.Conv.c); ("h", cv.Conv.h); ("w", cv.Conv.w);
        ("k", cv.Conv.k); ("r", cv.Conv.r); ("s", cv.Conv.s);
        ("st", cv.Conv.stride); ("di", cv.Conv.dilation);
        ("pa", cv.Conv.padding) ]
    | Lower.N_batched_mm { b; m; k; l } -> [ ("b", b); ("m", m); ("k", k); ("l", l) ]
    | Lower.N_grouped_mm { groups; heads; m; k; l } ->
      [ ("g", groups); ("hd", heads); ("m", m); ("k", k); ("l", l) ]
    | Lower.N_attention { seq_q; seq_k; d; dv } ->
      [ ("q", seq_q); ("n", seq_k); ("d", d); ("dv", dv) ]
  in
  String.concat ","
    (Printf.sprintf "kind=%s" (kind_name p.kind)
     :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields
    @ [ Printf.sprintf "bs=%d" p.bs ])

let of_spec s =
  let ( let* ) = Result.bind in
  let* fields =
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "bad field %S" part)
        | Some i ->
          Ok
            ((String.sub part 0 i,
              String.sub part (i + 1) (String.length part - i - 1))
            :: acc))
      (Ok [])
      (String.split_on_char ',' (String.trim s))
  in
  let str name =
    match List.assoc_opt name fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s" name)
  in
  let int name =
    let* v = str name in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %s=%S is not an integer" name v)
  in
  let int_default name d =
    match List.assoc_opt name fields with
    | None -> Ok d
    | Some _ -> int name
  in
  let* kind_s = str "kind" in
  let* bs = int "bs" in
  if bs < 1 then Error "bs must be >= 1"
  else
    let* kind =
      match kind_s with
      | "mm" ->
        let* m = int "m" in
        let* k = int "k" in
        let* l = int "l" in
        if m < 1 || k < 1 || l < 1 then Error "mm dims must be >= 1"
        else Ok (Lower.N_matmul { m; k; l })
      | "conv" ->
        let* n = int "n" in
        let* c = int "c" in
        let* h = int "h" in
        let* w = int "w" in
        let* k = int "k" in
        let* r = int "r" in
        let* s = int "s" in
        let* stride = int_default "st" 1 in
        let* dilation = int_default "di" 1 in
        let* padding = int_default "pa" 0 in
        let* cv =
          Result.map_error
            (fun e -> "conv: " ^ e)
            (Conv.validate ~stride ~padding ~dilation ~n ~c ~h ~w ~k ~r ~s ())
        in
        Ok (Lower.N_conv2d cv)
      | "bmm" ->
        let* b = int "b" in
        let* m = int "m" in
        let* k = int "k" in
        let* l = int "l" in
        if b < 1 || m < 1 || k < 1 || l < 1 then Error "bmm dims must be >= 1"
        else Ok (Lower.N_batched_mm { b; m; k; l })
      | "gmm" ->
        let* g = int "g" in
        let* hd = int "hd" in
        let* m = int "m" in
        let* k = int "k" in
        let* l = int "l" in
        if g < 1 || hd < 1 || m < 1 || k < 1 || l < 1 then
          Error "gmm dims must be >= 1"
        else Ok (Lower.N_grouped_mm { groups = g; heads = hd; m; k; l })
      | "attn" ->
        let* q = int "q" in
        let* n = int "n" in
        let* d = int "d" in
        let* dv = int_default "dv" 0 in
        let dv = if dv = 0 then d else dv in
        if q < 1 || n < 1 || d < 1 || dv < 1 then
          Error "attn dims must be >= 1"
        else Ok (Lower.N_attention { seq_q = q; seq_k = n; d; dv })
      | other -> Error (Printf.sprintf "unknown kind %S" other)
    in
    Ok { kind; bs }

(* Shrinking order: dimension sum, then buffer. *)
let size p =
  let dims =
    match p.kind with
    | Lower.N_matmul { m; k; l } -> m + k + l
    | Lower.N_conv2d cv ->
      cv.Conv.n + cv.Conv.c + cv.Conv.h + cv.Conv.w + cv.Conv.k + cv.Conv.r
      + cv.Conv.s + cv.Conv.stride + cv.Conv.dilation + cv.Conv.padding
    | Lower.N_batched_mm { b; m; k; l } -> b + m + k + l
    | Lower.N_grouped_mm { groups; heads; m; k; l } -> groups + heads + m + k + l
    | Lower.N_attention { seq_q; seq_k; d; dv } -> seq_q + seq_k + d + dv
  in
  (dims, p.bs)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let check = Oracle.check

let sim_points_cap = 1 lsl 17

let random_schedule rng nest =
  let n = Nest.rank nest in
  let tiles =
    Array.init n (fun i ->
        Rng.choose rng (Fusecu_util.Arith.divisors nest.Nest.extents.(i)))
  in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Nest.schedule_make nest ~tiles ~order

let per_equal (a : Nest.per_tensor) (b : Nest.per_tensor) =
  a.Nest.traffic = b.Nest.traffic
  && a.Nest.fetches = b.Nest.fetches
  && a.Nest.revisit = b.Nest.revisit

let sim_vs_analytic ctx ~name nest s =
  if Nest.points nest <= sim_points_cap then begin
    let analytic = Nest.eval nest s in
    let simulated = Nsim.eval nest s in
    check ctx name
      (analytic.Nest.total = simulated.Nest.total
      && Array.for_all2 per_equal analytic.Nest.per simulated.Nest.per)
      (fun () ->
        Printf.sprintf "schedule %s: analytic=%d sim=%d"
          (Nest.schedule_to_string nest s)
          analytic.Nest.total simulated.Nest.total)
  end

(* The winning tiling priced two ways: by [Search.eval_tiling], which
   prices one order per class, and by a scan of every order of
   [Search.orders] through [Nest.valid] and [Nest.eval], which shares
   no class table with it. Both must count the same revisit-free
   orders and find the same first (total, rank) minimum ([max_int] for
   both when no order is revisit-free, as in an empty incumbent). *)
let leaf_scan ctx nest ~capacity (e : Search.result) =
  let sp = Search.compile ~lattice nest ~capacity in
  let tiles = e.Search.schedule.Nest.tiles in
  let idxs =
    Array.mapi
      (fun i t ->
        let a = Search.candidates sp i in
        let rec find j = if a.(j) = t then j else find (j + 1) in
        find 0)
      tiles
  in
  let best = Search.incumbent sp in
  let count = Search.eval_tiling sp ~idxs ~tiles best in
  let scanned = ref 0 and scan_total = ref max_int and scan_rank = ref max_int in
  List.iteri
    (fun rank order ->
      let s = { Nest.tiles; order } in
      if Nest.valid nest s then begin
        incr scanned;
        let total = (Nest.eval nest s).Nest.total in
        if total < !scan_total then begin
          scan_total := total;
          scan_rank := rank
        end
      end)
    (Search.orders sp ~trips:(Nest.trips_of nest tiles));
  let total = best.Search.total and rank = best.Search.order_rank in
  check ctx "nest/leaf-scan"
    (count = !scanned && total = !scan_total && rank = !scan_rank)
    (fun () ->
      Printf.sprintf
        "tiles %s: eval_tiling %d orders, total=%d rk=%d; scan %d orders, \
         total=%d rk=%d"
        (Nest.schedule_to_string nest e.Search.schedule)
        count total rank !scanned !scan_total !scan_rank)

let checks ctx p =
  Oracle.tally ctx "by kind" (kind_name p.kind);
  let nest = Lower.of_kind p.kind in
  let buf = Buffer.make p.bs in
  let capacity = Buffer.elements buf in
  let exh = Search.exhaustive ~lattice nest ~capacity in
  let bnb = Fusecu_dse.Nest_bnb.search ~lattice nest buf in
  (match (exh, bnb) with
  | None, None -> check ctx "nest/bnb-exact" true (fun () -> "")
  | Some e, Some g ->
    check ctx "nest/bnb-exact"
      (e.Search.cost.Nest.total = g.Search.cost.Nest.total
      && e.Search.tiling_index = g.Search.tiling_index
      && e.Search.order_rank = g.Search.order_rank
      && e.Search.schedule.Nest.tiles = g.Search.schedule.Nest.tiles
      && e.Search.schedule.Nest.order = g.Search.schedule.Nest.order)
      (fun () ->
        Printf.sprintf "exhaustive %s total=%d ti=%d rk=%d; bnb %s total=%d ti=%d rk=%d"
          (Nest.schedule_to_string nest e.Search.schedule)
          e.Search.cost.Nest.total e.Search.tiling_index e.Search.order_rank
          (Nest.schedule_to_string nest g.Search.schedule)
          g.Search.cost.Nest.total g.Search.tiling_index g.Search.order_rank)
  | Some e, None ->
    check ctx "nest/bnb-exact" false (fun () ->
        Printf.sprintf "bnb missed feasible %s"
          (Nest.schedule_to_string nest e.Search.schedule))
  | None, Some g ->
    check ctx "nest/bnb-exact" false (fun () ->
        Printf.sprintf "bnb invented %s on an infeasible space"
          (Nest.schedule_to_string nest g.Search.schedule)));
  (match exh with
  | None -> ()
  | Some e ->
    let s = e.Search.schedule in
    check ctx "nest/winner-valid" (Nest.valid nest s) (fun () ->
        Nest.schedule_to_string nest s);
    check ctx "nest/winner-fits"
      (Buffer.fits buf (Nest.footprint nest s))
      (fun () ->
        Printf.sprintf "footprint %d > capacity %d" (Nest.footprint nest s)
          capacity);
    check ctx "nest/bound-ideal"
      (e.Search.cost.Nest.total >= Bound.ideal nest)
      (fun () ->
        Printf.sprintf "total %d < ideal %d" e.Search.cost.Nest.total
          (Bound.ideal nest));
    let trips = Array.init (Nest.rank nest) (fun i -> Nest.trips nest s i) in
    check ctx "nest/bound-admissible"
      (Bound.penalized nest ~trips <= e.Search.cost.Nest.total)
      (fun () ->
        Printf.sprintf "penalized %d > total %d"
          (Bound.penalized nest ~trips)
          e.Search.cost.Nest.total);
    leaf_scan ctx nest ~capacity e;
    sim_vs_analytic ctx ~name:"nest/analytic-sim" nest s);
  (* ragged random schedules need no feasibility: the cost contract
     holds on the whole lattice *)
  let rng = Oracle.rng ctx in
  for _ = 1 to 4 do
    sim_vs_analytic ctx ~name:"nest/analytic-sim" nest
      (random_schedule rng nest)
  done;
  match p.kind with
  | Lower.N_matmul { m; k; l } ->
    let op = Matmul.make ~name:"mm" ~m ~k ~l () in
    let legacy =
      Fusecu_dse.Exhaustive.search ~lattice:Fusecu_dse.Space.Divisors
        ~pool:Fusecu_util.Pool.sequential op buf
    in
    (match (exh, legacy) with
    | None, None -> check ctx "nest/legacy-exact" true (fun () -> "")
    | Some e, Some lr ->
      let lt = lr.Fusecu_dse.Exhaustive.schedule.Schedule.tiling in
      check ctx "nest/legacy-exact"
        (e.Search.cost.Nest.total = lr.Fusecu_dse.Exhaustive.cost.Cost.total
        && e.Search.schedule.Nest.tiles
           = [| Tiling.get lt Dim.M; Tiling.get lt Dim.K; Tiling.get lt Dim.L |])
        (fun () ->
          Printf.sprintf "nest total=%d tiles=%s; legacy total=%d %s"
            e.Search.cost.Nest.total
            (Nest.schedule_to_string nest e.Search.schedule)
            lr.Fusecu_dse.Exhaustive.cost.Cost.total
            (Schedule.to_string lr.Fusecu_dse.Exhaustive.schedule))
    | Some _, None ->
      check ctx "nest/legacy-exact" false (fun () ->
          "nest feasible where legacy space is empty")
    | None, Some _ ->
      check ctx "nest/legacy-exact" false (fun () ->
          "legacy feasible where nest space is empty"))
  | Lower.N_conv2d cv ->
    check ctx "nest/conv-macs"
      (Nest.points nest = Conv.macs cv)
      (fun () ->
        Printf.sprintf "points %d <> macs %d" (Nest.points nest) (Conv.macs cv));
    (* im2col materializes one A row per output position, so its A is
       at least the input positions actually read — but only when no
       input is skipped (stride within the dilated kernel span) and
       there is no padding (im2col stores real elements; the direct
       nest models the padded activation window) *)
    if
      cv.Conv.padding = 0
      && cv.Conv.stride <= Conv.effective_r cv
      && cv.Conv.stride <= Conv.effective_s cv
    then
      check ctx "nest/conv-im2col-ideal"
        (Bound.ideal nest <= Bound.ideal (Lower.of_conv_im2col cv))
        (fun () ->
          Printf.sprintf "direct ideal %d > im2col ideal %d" (Bound.ideal nest)
            (Bound.ideal (Lower.of_conv_im2col cv)))
  | Lower.N_batched_mm _ | Lower.N_grouped_mm _ | Lower.N_attention _ -> ()

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

(* Dimensions biased small (ragged-edge territory, cheap exhaustive
   ground truth), and never above 12 so rank-7 conv ground truth stays
   exhaustive. Conv parameters are drawn avoid-but-test style: the raw
   draw may violate the output-shape constraints; invalid combos are
   discarded through Conv.validate — the boundary tests pin that they
   are rejected, the oracle only soaks valid operators. *)
let gen rng ~max_dim =
  let max_dim = min max_dim 12 in
  let dim () = Rng.range rng ~lo:1 ~hi:max_dim in
  let small cap = Rng.range rng ~lo:1 ~hi:(min cap max_dim) in
  let rec conv tries =
    if tries = 0 then
      Lower.N_conv2d (Conv.make ~n:1 ~c:1 ~h:3 ~w:3 ~k:1 ~r:1 ~s:1 ())
    else
      let h = Rng.range rng ~lo:2 ~hi:(max 4 max_dim) in
      let w = Rng.range rng ~lo:2 ~hi:(max 4 max_dim) in
      match
        Conv.validate ~n:(small 3) ~c:(small 3) ~h ~w ~k:(small 3)
          ~r:(small 3) ~s:(small 3)
          ~stride:(Rng.range rng ~lo:1 ~hi:2)
          ~dilation:(Rng.range rng ~lo:1 ~hi:2)
          ~padding:(Rng.int rng 2) ()
      with
      | Ok cv -> Lower.N_conv2d cv
      | Error _ -> conv (tries - 1)
  in
  let kind =
    match Rng.int rng 5 with
    | 0 -> Lower.N_matmul { m = dim (); k = dim (); l = dim () }
    | 1 -> conv 64
    | 2 -> Lower.N_batched_mm { b = small 3; m = dim (); k = dim (); l = dim () }
    | 3 ->
      Lower.N_grouped_mm
        { groups = small 3; heads = small 3; m = small 5; k = small 5; l = small 5 }
    | _ ->
      Lower.N_attention
        { seq_q = dim (); seq_k = dim (); d = small 6;
          dv = (if Rng.bool rng then small 6 else 0) }
  in
  let kind =
    match kind with
    | Lower.N_attention a ->
      Lower.N_attention { a with dv = (if a.dv = 0 then a.d else a.dv) }
    | k -> k
  in
  let nest = Lower.of_kind kind in
  let ideal = Bound.ideal nest in
  let min_fp = List.length nest.Nest.tensors in
  let bs =
    match Rng.int rng 6 with
    | 0 -> min_fp
    | 1 -> max 1 (min_fp - 1) (* often infeasible: the None x None leg *)
    | 2 -> max min_fp (ideal / 4)
    | 3 -> max min_fp (ideal / 2)
    | 4 -> ideal + 8
    | _ -> Rng.range rng ~lo:min_fp ~hi:(max (min_fp + 1) ideal)
  in
  { kind; bs }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let smaller v = List.filter (fun x -> x >= 1 && x < v) [ 1; v / 2; v - 1 ]

let proposals p =
  let with_kind kind = { p with kind } in
  let dims =
    match p.kind with
    | Lower.N_matmul { m; k; l } ->
      List.concat
        [ List.map (fun m -> with_kind (Lower.N_matmul { m; k; l })) (smaller m);
          List.map (fun k -> with_kind (Lower.N_matmul { m; k; l })) (smaller k);
          List.map (fun l -> with_kind (Lower.N_matmul { m; k; l })) (smaller l) ]
    | Lower.N_conv2d cv ->
      let rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding =
        match
          Conv.validate ~stride ~padding ~dilation ~n ~c ~h ~w ~k ~r ~s ()
        with
        | Ok cv -> Some (with_kind (Lower.N_conv2d cv))
        | Error _ -> None
      in
      let { Conv.n; c; h; w; k; r; s; stride; padding; dilation; _ } = cv in
      List.filter_map Fun.id
        (List.concat
           [ List.map (fun n -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller n);
             List.map (fun c -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller c);
             List.map (fun h -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller h);
             List.map (fun w -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller w);
             List.map (fun k -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller k);
             List.map (fun r -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller r);
             List.map (fun s -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller s);
             List.map (fun stride -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller stride);
             List.map (fun dilation -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding) (smaller dilation);
             List.map (fun padding -> rebuild ~n ~c ~h ~w ~k ~r ~s ~stride ~dilation ~padding)
               (List.filter (fun x -> x >= 0 && x < padding) [ 0; padding - 1 ]) ])
    | Lower.N_batched_mm { b; m; k; l } ->
      List.concat
        [ List.map (fun b -> with_kind (Lower.N_batched_mm { b; m; k; l })) (smaller b);
          List.map (fun m -> with_kind (Lower.N_batched_mm { b; m; k; l })) (smaller m);
          List.map (fun k -> with_kind (Lower.N_batched_mm { b; m; k; l })) (smaller k);
          List.map (fun l -> with_kind (Lower.N_batched_mm { b; m; k; l })) (smaller l) ]
    | Lower.N_grouped_mm { groups; heads; m; k; l } ->
      let gmm ~groups ~heads ~m ~k ~l =
        with_kind (Lower.N_grouped_mm { groups; heads; m; k; l })
      in
      List.concat
        [ List.map (fun groups -> gmm ~groups ~heads ~m ~k ~l) (smaller groups);
          List.map (fun heads -> gmm ~groups ~heads ~m ~k ~l) (smaller heads);
          List.map (fun m -> gmm ~groups ~heads ~m ~k ~l) (smaller m);
          List.map (fun k -> gmm ~groups ~heads ~m ~k ~l) (smaller k);
          List.map (fun l -> gmm ~groups ~heads ~m ~k ~l) (smaller l) ]
    | Lower.N_attention { seq_q; seq_k; d; dv } ->
      let attn ~seq_q ~seq_k ~d ~dv =
        with_kind (Lower.N_attention { seq_q; seq_k; d; dv })
      in
      List.concat
        [ List.map (fun seq_q -> attn ~seq_q ~seq_k ~d ~dv) (smaller seq_q);
          List.map (fun seq_k -> attn ~seq_q ~seq_k ~d ~dv) (smaller seq_k);
          List.map (fun d -> attn ~seq_q ~seq_k ~d ~dv) (smaller d);
          List.map (fun dv -> attn ~seq_q ~seq_k ~d ~dv) (smaller dv) ]
  in
  let bufs = List.map (fun bs -> { p with bs }) (smaller p.bs) in
  List.sort (fun a b -> compare (size a) (size b)) (dims @ bufs)

let oracle =
  { Oracle.name = "nest oracle";
    flag = "--nests";
    max_dim = 12;
    gen;
    checks;
    proposals;
    to_spec;
    of_spec;
    tallies = [ "by kind" ];
    sums = [] }
