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

let order ~outer ~mid ~inner = Order.index (Order.make ~outer ~mid ~inner)

let m_k_l = Dim.(order ~outer:M ~mid:K ~inner:L)

let m_l_k = Dim.(order ~outer:M ~mid:L ~inner:K)

let k_m_l = Dim.(order ~outer:K ~mid:M ~inner:L)

let l_m_k = Dim.(order ~outer:L ~mid:M ~inner:K)

(* Candidate tile values around a closed-form seed, rounded on one
   dimension's lattice. *)
let seeds lat base extra =
  let raw = base :: (extra @ List.map (fun w -> base + w) wiggle) in
  Arith.dedup_sorted (List.map (fun t -> Mode.quantize lat (Int.max t 1)) raw)

(* The enumerator of the patterns' candidates, in their order: it calls
   [yield pattern tm tk1 tl tl2 o1 o2 traffic] for each fused dataflow
   that [Fused.eval] accepts, as the integer tiles of [Fused.of_tiles]
   (every pattern shares C's tile) and order indices, so no schedule or
   fused record is built per candidate. [lm] and [ll] are the lattices
   of op1's [M] and [L]. *)
let enumerate ~lm ~ll pair buf patterns yield =
  let { Fused.op1; op2 } = pair in
  let bs = Buffer.elements buf in
  (* one candidate with fixed orders, if [Fused.eval] accepts it *)
  let fixed p ~tm ~tk1 ~tl ~tl2 o1 o2 =
    let traffic = Fused.eval_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity:bs o1 o2 in
    if traffic >= 0 then yield p tm tk1 tl tl2 o1 o2 traffic
  in
  let pattern = function
    | P_single_os_is ->
      (* Stationary C tile (t_m, t_l); joint footprint t_m*t_l + 2t_m + 2t_l. *)
      let sym = Arith.isqrt_add bs 4 - 2 in
      let partner t = (bs - (2 * t)) / (t + 2) in
      List.iter
        (fun tm ->
          let tl = partner tm in
          if tm >= 1 && tl >= 1 then
            fixed P_single_os_is ~tm ~tk1:1 ~tl:(Mode.quantize ll tl) ~tl2:1 m_l_k m_k_l)
        (seeds lm sym [ op1.m; partner op1.l ])
    | P_two_os_is ->
      (* Column-like C: one maximized dim t, the other 1; producer untiles
         K1, consumer untiles L2. Two mirrored variants: maximize M, or
         maximize the shared dim L1 = K2. *)
      let budget = (bs - op1.k - op2.l) / (op1.k + op2.l + 1) in
      List.iter
        (fun t -> fixed P_two_os_is ~tm:t ~tk1:op1.k ~tl:1 ~tl2:op2.l m_l_k m_k_l)
        (seeds lm budget []);
      List.iter
        (fun t -> fixed P_two_os_is ~tm:1 ~tk1:op1.k ~tl:t ~tl2:op2.l l_m_k k_m_l)
        (seeds ll budget [])
    | P_two_untile_shared ->
      (* Shared dim L1 = K2 untiled on both sides. *)
      let budget = (bs - (2 * op1.l)) / (op1.l + 2) in
      List.iter
        (fun t -> fixed P_two_untile_shared ~tm:t ~tk1:1 ~tl:op1.l ~tl2:1 m_k_l m_l_k)
        (seeds lm budget [])
    | P_three_untile_m ->
      fixed P_three_untile_m ~tm:op1.m ~tk1:op1.k ~tl:1 ~tl2:op2.l l_m_k k_m_l
    | P_three_untile_shared ->
      fixed P_three_untile_shared ~tm:1 ~tk1:op1.k ~tl:op1.l ~tl2:op2.l m_k_l m_k_l
    | P_three_resident ->
      fixed P_three_resident ~tm:op1.m ~tk1:1 ~tl:op1.l ~tl2:1 k_m_l l_m_k
    | P_block ->
      (* Generalized C-stationary block family; the six named patterns
         are specific points of it, and it is complete over the valid
         fused-pair space (DESIGN.md Sec. 7c), which is what makes
         [Best_of_both] agree with exhaustive search:
         - a shared C tile (t_m, t_l) with t_m swept over the O(sqrt M)
           trip-aligned tile sizes on Exact and over the lattice's own
           points on Divisors (every divisor, O(number of divisors)) and
           Pow2 (O(log M)), and t_l maximized under the joint footprint
           (fused traffic is non-increasing in t_l);
         - the producer K tile and consumer L tile influence traffic only
           through "minimal" vs "untiled" (the intermediate is pinned
           non-redundant on both sides, so their trip counts never enter
           a revisit factor), hence (t_k1, t_l2) in {1, K1} x {1, L2};
         - the traffic-best order pair per tiling, from
           [Fused.best_tiles]: validity and traffic separate into a
           producer and a consumer side that meet only in C-order
           agreement, so it scores each side's six orders once instead
           of the 36 pairs and returns the same first minimum. *)
      let block tm =
        for a = 0 to if op1.k > 1 then 1 else 0 do
          let tk1 = if a = 0 then 1 else op1.k in
          for b = 0 to if op2.l > 1 then 1 else 0 do
            let tl2 = if b = 0 then 1 else op2.l in
            let tl = (bs - (tm * (tk1 + tl2))) / (tk1 + tm + tl2) in
            if tl >= 1 then begin
              let tl = Mode.snap ll tl in
              let o = Fused.best_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity:bs in
              if o >= 0 then begin
                let o1 = o / 6 and o2 = o mod 6 in
                yield P_block tm tk1 tl tl2 o1 o2
                  (Fused.eval_tiles pair ~tm ~tk1 ~tl ~tl2 ~capacity:bs o1 o2)
              end
            end
          done
        done
      in
      (* The t_m sweep, ascending. On Exact, i and ceil(M/i) for
         i <= r = isqrt M: ceil(M/i) falls strictly as i grows and
         exceeds r except possibly at i = r. On Divisors, those values
         round onto every divisor, ascending, so the divisors themselves
         give the same candidates in the same order. On Pow2, M comes
         first, then the powers of two ascending. *)
      (match lm.Mode.mode with
      | Mode.Divisors -> Array.iter block lm.Mode.points
      | Mode.Pow2 ->
        block op1.m;
        Array.iter (fun t -> if t < op1.m then block t) lm.Mode.points
      | Mode.Exact ->
        let r = Arith.isqrt op1.m in
        for i = 1 to r do
          block i
        done;
        for i = r downto 1 do
          let t = Arith.ceil_div op1.m i in
          if t > r then block t
        done)
  in
  List.iter pattern patterns

let lattices mode (pair : Fused.pair) =
  (Mode.lattice mode pair.op1.m, Mode.lattice mode pair.op1.l)

let candidates ?(mode = Mode.Exact) ?(patterns = all_patterns) pair buf =
  (* The first-occurrence filter, hashed on the six integers that fix a
     fused dataflow: a repeat of an earlier pattern's or tile's
     candidate keeps the earlier entry. *)
  let lm, ll = lattices mode pair in
  let seen = Hashtbl.create 64 and acc = ref [] in
  enumerate ~lm ~ll pair buf patterns (fun p tm tk1 tl tl2 o1 o2 traffic ->
      let key = (tm, tk1, tl, tl2, (6 * o1) + o2) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        acc := (p, Fused.of_tiles pair ~tm ~tk1 ~tl ~tl2 o1 o2, traffic) :: !acc
      end);
  List.rev !acc

type decision =
  | Fuse of { pattern : pattern; fused : Fused.t; traffic : int }
  | No_fuse of { plan1 : Intra.plan; plan2 : Intra.plan; traffic : int; why : string }

let traffic_of_decision = function
  | Fuse { traffic; _ } -> traffic
  | No_fuse { traffic; _ } -> traffic

type strategy = By_principle | Best_of_both

(* The first strict traffic minimum so far, as tiles and order indices. *)
type best = {
  mutable found : bool;
  mutable pattern : pattern;
  mutable tm : int;
  mutable tk1 : int;
  mutable tl : int;
  mutable tl2 : int;
  mutable o1 : int;
  mutable o2 : int;
  mutable traffic : int;
}

let plan_pair ?(mode = Mode.Exact) ?(strategy = By_principle) pair buf =
  let { Fused.op1; op2 } = pair in
  match (Intra.optimize ~mode op1 buf, Intra.optimize ~mode op2 buf) with
  | Error e, _ | _, Error e -> Error e
  | Ok plan1, Ok plan2 ->
    let unfused_traffic = Intra.ma plan1 + Intra.ma plan2 in
    let no_fuse why = No_fuse { plan1; plan2; traffic = unfused_traffic; why } in
    let decide () =
      (* The first strict minimum of the candidate stream: the first
         minimum of [candidates], whose filter only drops repeats, and a
         repeat cannot displace its first occurrence. Only the winner
         gets a [Fused.t]. The fold stops at the fused floor
         [|A1| + |B1| + |D| + |E|], which no candidate goes below and
         so none displaces (DESIGN.md Sec. 4d); no exit if it
         saturates. *)
      let lm, ll = lattices mode pair in
      let b =
        { found = false; pattern = P_block; tm = 0; tk1 = 0; tl = 0; tl2 = 0; o1 = 0;
          o2 = 0; traffic = 0 }
      in
      let floor =
        Arith.(
          add_sat
            (add_sat (mul_sat op1.m op1.k) (mul_sat op1.k op1.l))
            (add_sat (mul_sat op2.k op2.l) (mul_sat op2.m op2.l)))
      in
      let stop = floor < max_int in
      let exception Floor in
      let visit p tm tk1 tl tl2 o1 o2 traffic =
        if (not b.found) || traffic < b.traffic then begin
          b.found <- true;
          b.pattern <- p;
          b.tm <- tm;
          b.tk1 <- tk1;
          b.tl <- tl;
          b.tl2 <- tl2;
          b.o1 <- o1;
          b.o2 <- o2;
          b.traffic <- traffic;
          if stop && traffic = floor then raise_notrace Floor
        end
      in
      (try enumerate ~lm ~ll pair buf all_patterns visit with Floor -> ());
      if not b.found then no_fuse "no feasible fused dataflow"
      else if b.traffic <= unfused_traffic then
        Fuse
          { pattern = b.pattern;
            fused = Fused.of_tiles pair ~tm:b.tm ~tk1:b.tk1 ~tl:b.tl ~tl2:b.tl2 b.o1 b.o2;
            traffic = b.traffic }
      else no_fuse "fused dataflow moves more data than unfused"
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
        Ok (decide ())
    | Best_of_both -> Ok (decide ()))

let pp_decision fmt = function
  | Fuse { pattern; traffic; fused } ->
    Format.fprintf fmt "@[<v>fuse [%a] traffic=%s@ producer=%a@ consumer=%a@]"
      pp_pattern pattern
      (Units.pp_count traffic)
      Schedule.pp fused.Fused.producer Schedule.pp fused.Fused.consumer
  | No_fuse { traffic; why; _ } ->
    Format.fprintf fmt "no-fuse traffic=%s (%s)" (Units.pp_count traffic) why
