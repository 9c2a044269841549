open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type pattern =
  | P_single_os_is
  | P_two_os_is
  | P_two_untile_shared
  | P_three_untile_m
  | P_three_untile_shared
  | P_three_resident
  | P_block

let all_patterns =
  (* [P_block] last: ties go to the named paper pattern. *)
  [ P_single_os_is; P_two_os_is; P_two_untile_shared; P_three_untile_m;
    P_three_untile_shared; P_three_resident; P_block ]

let pattern_class = function
  | P_single_os_is -> Some Nra.Single
  | P_two_os_is | P_two_untile_shared -> Some Nra.Two
  | P_three_untile_m | P_three_untile_shared | P_three_resident -> Some Nra.Three
  | P_block -> None

let pattern_name = function
  | P_single_os_is -> "single/OS-IS"
  | P_two_os_is -> "two/OS-IS"
  | P_two_untile_shared -> "two/untile-shared"
  | P_three_untile_m -> "three/untile-M"
  | P_three_untile_shared -> "three/untile-shared"
  | P_three_resident -> "three/resident-C"
  | P_block -> "block/C-stationary"

let pp_pattern fmt p = Format.pp_print_string fmt (pattern_name p)

let weaker a b =
  match (a, b) with
  | Nra.Single, _ | _, Nra.Single -> Nra.Single
  | Nra.Two, _ | _, Nra.Two -> Nra.Two
  | Nra.Three, Nra.Three -> Nra.Three

let fused_nra (pair : Fused.pair) (f : Fused.t) =
  weaker
    (Nra.class_of (Nra.classify pair.op1 f.producer))
    (Nra.class_of (Nra.classify pair.op2 f.consumer))

let profitable = Nra.equal

let wiggle = [ -2; -1; 0; 1; 2 ]

let order ~outer ~mid ~inner = Order.make ~outer ~mid ~inner

(* Build a fused dataflow from explicit tile triples; [None] if the
   schedules are invalid or do not fit the buffer. *)
let build pair buf ~t1:(m1, k1, l1) ~o1 ~t2:(m2, k2, l2) ~o2 =
  let { Fused.op1; op2 } = pair in
  let producer = Schedule.make (Tiling.make op1 ~m:m1 ~k:k1 ~l:l1) o1 in
  let consumer = Schedule.make (Tiling.make op2 ~m:m2 ~k:k2 ~l:l2) o2 in
  let fused = { Fused.producer; consumer } in
  match Fused.eval pair fused buf with
  | Ok traffic -> Some (fused, traffic)
  | Error _ -> None

let dedup_fused cands =
  let equal_f (a : Fused.t) (b : Fused.t) =
    Schedule.equal a.producer b.producer && Schedule.equal a.consumer b.consumer
  in
  let rec uniq seen = function
    | [] -> []
    | ((_, f, _) as c) :: rest ->
      if List.exists (equal_f f) seen then uniq seen rest
      else c :: uniq (f :: seen) rest
  in
  uniq [] cands

(* Candidate tile values around a closed-form seed, quantized on a
   dimension of op1. *)
let seeds mode op1 dim base extra =
  let raw = base :: (extra @ List.map (fun w -> base + w) wiggle) in
  let q = List.map (fun t -> Mode.quantize mode op1 dim (max t 1)) raw in
  Arith.dedup_sorted q

let build_pattern mode pair buf p =
  let { Fused.op1; op2 } = pair in
  let bs = Buffer.elements buf in
  let open Dim in
  match p with
  | P_single_os_is ->
    (* Stationary C tile (t_m, t_l); joint footprint t_m*t_l + 2t_m + 2t_l. *)
    let sym = Arith.isqrt (bs + 4) - 2 in
    let partner t = (bs - (2 * t)) / (t + 2) in
    List.filter_map
      (fun tm ->
        let tl = partner tm in
        if tm < 1 || tl < 1 then None
        else begin
          let tl = Mode.quantize mode op1 L tl in
          build pair buf ~t1:(tm, 1, tl)
            ~o1:(order ~outer:M ~mid:L ~inner:K)
            ~t2:(tm, tl, 1)
            ~o2:(order ~outer:M ~mid:K ~inner:L)
        end)
      (seeds mode op1 M sym [ op1.m; partner op1.l ])
  | P_two_os_is ->
    (* Column-like C: one maximized dim t, the other 1; producer untiles
       K1, consumer untiles L2. Two mirrored variants: maximize M, or
       maximize the shared dim L1 = K2. *)
    let budget = (bs - op1.k - op2.l) / (op1.k + op2.l + 1) in
    let via_m =
      List.filter_map
        (fun t ->
          build pair buf ~t1:(t, op1.k, 1)
            ~o1:(order ~outer:M ~mid:L ~inner:K)
            ~t2:(t, 1, op2.l)
            ~o2:(order ~outer:M ~mid:K ~inner:L))
        (seeds mode op1 M budget [])
    in
    let via_shared =
      List.filter_map
        (fun t ->
          build pair buf ~t1:(1, op1.k, t)
            ~o1:(order ~outer:L ~mid:M ~inner:K)
            ~t2:(1, t, op2.l)
            ~o2:(order ~outer:K ~mid:M ~inner:L))
        (seeds mode op1 L budget [])
    in
    via_m @ via_shared
  | P_two_untile_shared ->
    (* Shared dim L1 = K2 untiled on both sides. *)
    let budget = (bs - (2 * op1.l)) / (op1.l + 2) in
    List.filter_map
      (fun t ->
        build pair buf ~t1:(t, 1, op1.l)
          ~o1:(order ~outer:M ~mid:K ~inner:L)
          ~t2:(t, op2.k, 1)
          ~o2:(order ~outer:M ~mid:L ~inner:K))
      (seeds mode op1 M budget [])
  | P_three_untile_m ->
    List.filter_map
      (fun () ->
        build pair buf ~t1:(op1.m, op1.k, 1)
          ~o1:(order ~outer:L ~mid:M ~inner:K)
          ~t2:(op2.m, 1, op2.l)
          ~o2:(order ~outer:K ~mid:M ~inner:L))
      [ () ]
  | P_three_untile_shared ->
    List.filter_map
      (fun () ->
        build pair buf ~t1:(1, op1.k, op1.l)
          ~o1:(order ~outer:M ~mid:K ~inner:L)
          ~t2:(1, op2.k, op2.l)
          ~o2:(order ~outer:M ~mid:K ~inner:L))
      [ () ]
  | P_three_resident ->
    List.filter_map
      (fun () ->
        build pair buf ~t1:(op1.m, 1, op1.l)
          ~o1:(order ~outer:K ~mid:M ~inner:L)
          ~t2:(op2.m, op2.k, 1)
          ~o2:(order ~outer:L ~mid:M ~inner:K))
      [ () ]
  | P_block ->
    (* Generalized C-stationary block family; the six named patterns
       are specific points of it, and it is complete over the valid
       fused-pair space (DESIGN.md Sec. 7c), which is what makes
       [Best_of_both] agree with exhaustive search:
       - a shared C tile (t_m, t_l) with t_m swept over the O(sqrt M)
         trip-aligned tile sizes (the O(log M) lattice points
         themselves on Pow2) and t_l maximized under the joint
         footprint (fused traffic is non-increasing in t_l);
       - the producer K tile and consumer L tile influence traffic only
         through "minimal" vs "untiled" (the intermediate is pinned
         non-redundant on both sides, so their trip counts never enter
         a revisit factor), hence (t_k1, t_l2) in {1, K1} x {1, L2};
       - the traffic-best order pair per tiling, from
         [Fused.best_orders]: validity and traffic separate into a
         producer and a consumer side that meet only in C-order
         agreement, so it scores each side's six orders once instead
         of the 36 pairs and returns the same first minimum. The
         candidate list stays O(sqrt M). *)
    let tm_sweep =
      match mode with
      | Mode.Pow2 -> op1.m :: Arith.pow2s_upto op1.m
      | Mode.Exact | Mode.Divisors ->
        let r = Arith.isqrt op1.m in
        Arith.dedup_sorted
          (List.concat (List.init r (fun i -> [ i + 1; Arith.ceil_div op1.m (i + 1) ])))
    in
    let minor_pairs =
      List.concat_map
        (fun tk1 -> List.map (fun tl2 -> (tk1, tl2)) (Arith.dedup_sorted [ 1; op2.l ]))
        (Arith.dedup_sorted [ 1; op1.k ])
    in
    List.concat_map
      (fun tm ->
        let tm = Mode.quantize mode op1 M tm in
        List.filter_map
          (fun (tk1, tl2) ->
            let tl = (bs - (tm * (tk1 + tl2))) / (tk1 + tm + tl2) in
            if tl < 1 then None
            else begin
              let tl = Mode.snap mode op1 L tl in
              Fused.best_orders pair
                ~producer:(Tiling.make op1 ~m:tm ~k:tk1 ~l:tl)
                ~consumer:(Tiling.make op2 ~m:tm ~k:tl ~l:tl2)
                buf
            end)
          minor_pairs)
      tm_sweep

let candidates ?(mode = Mode.Exact) ?(patterns = all_patterns) pair buf =
  let all =
    List.concat_map
      (fun p ->
        List.map (fun (f, traffic) -> (p, f, traffic)) (build_pattern mode pair buf p))
      patterns
  in
  dedup_fused all

type decision =
  | Fuse of { pattern : pattern; fused : Fused.t; traffic : int }
  | No_fuse of { plan1 : Intra.plan; plan2 : Intra.plan; traffic : int; why : string }

let traffic_of_decision = function
  | Fuse { traffic; _ } -> traffic
  | No_fuse { traffic; _ } -> traffic

type strategy = By_principle | Best_of_both

let best_candidate cands =
  match cands with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun ((_, _, bt) as best) ((_, _, t) as c) -> if t < bt then c else best)
         first rest)

let plan_pair ?(mode = Mode.Exact) ?(strategy = By_principle) pair buf =
  let { Fused.op1; op2 } = pair in
  match (Intra.optimize ~mode op1 buf, Intra.optimize ~mode op2 buf) with
  | Error e, _ | _, Error e -> Error e
  | Ok plan1, Ok plan2 ->
    let unfused_traffic = Intra.ma plan1 + Intra.ma plan2 in
    let no_fuse why = No_fuse { plan1; plan2; traffic = unfused_traffic; why } in
    let decide patterns why_empty =
      match best_candidate (candidates ~mode ~patterns pair buf) with
      | Some (pattern, fused, traffic) when traffic <= unfused_traffic ->
        Fuse { pattern; fused; traffic }
      | Some _ -> no_fuse "fused dataflow moves more data than unfused"
      | None -> no_fuse why_empty
    in
    let c1 = Nra.class_of plan1.dataflow and c2 = Nra.class_of plan2.dataflow in
    (match strategy with
    | By_principle ->
      if not (profitable c1 c2) then
        Ok
          (no_fuse
             (Format.asprintf "Principle 4: %a vs %a dataflow, fusion unprofitable"
                Nra.pp c1 Nra.pp c2))
      else
        (* Principle 4 says to fuse; the fused execution shares the
           buffer between both operators, so its own NRA class may be
           lower than the solo classes — every pattern keeps the two
           sides in the same class, which is all the principle asks. *)
        Ok (decide all_patterns "no feasible fused dataflow")
    | Best_of_both -> Ok (decide all_patterns "no feasible fused dataflow"))

let pp_decision fmt = function
  | Fuse { pattern; traffic; fused } ->
    Format.fprintf fmt "@[<v>fuse [%a] traffic=%s@ producer=%a@ consumer=%a@]"
      pp_pattern pattern
      (Units.pp_count traffic)
      Schedule.pp fused.Fused.producer Schedule.pp fused.Fused.consumer
  | No_fuse { traffic; why; _ } ->
    Format.fprintf fmt "no-fuse traffic=%s (%s)" (Units.pp_count traffic) why
