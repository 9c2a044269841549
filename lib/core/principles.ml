open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type candidate = { intent : Nra.dataflow; schedule : Schedule.t }

(* Integer neighbourhood explored around each closed-form tile size:
   the real-valued optimum can straddle a lattice point, so the raw
   seeds include [base + w] for [-wiggle <= w <= wiggle]. *)
let wiggle = 2

(* Largest t2 with t1*t2 + t1 + t2 <= bs (one tile of each operand,
   free-dim tile pinned to 1). *)
let partner_tile ~bs t1 = (bs - t1) / (t1 + 1)

(* Each dimension's lattice, built once per plan. *)
let lattices mode (op : Matmul.t) =
  let m = Mode.lattice mode op.m and k = Mode.lattice mode op.k
  and l = Mode.lattice mode op.l in
  function Dim.M -> m | Dim.K -> k | Dim.L -> l

(* The first-occurrence filter over one dimension's swept tiles: a
   bitmap over lattice-point indices on Divisors and Pow2, a hashed set
   on Exact, or none for a first-minimum fold, which a repeated
   candidate cannot change. *)
type seen = Every | Points of Bytes.t | Values of (int, unit) Hashtbl.t

let seen ~distinct (lat : Mode.lattice) =
  if not distinct then Every
  else
    match lat.mode with
    | Mode.Exact -> Values (Hashtbl.create 16)
    | Mode.Divisors | Mode.Pow2 -> Points (Bytes.make (Array.length lat.points) '\000')

(* Whether the tile [t], a point of [lat], is new; marks it seen. *)
let first seen lat t =
  match seen with
  | Every -> true
  | Points b ->
    let i = Mode.rank lat t in
    if Bytes.get b i <> '\000' then false
    else begin
      Bytes.set b i '\001';
      true
    end
  | Values h ->
    if Hashtbl.mem h t then false
    else begin
      Hashtbl.replace h t ();
      true
    end

(* Every enumerator below calls [yield intent tm tk tl order] once per
   candidate, in the builder's order, with the order an index into
   [Order.all]; no schedule is built per candidate. [emit] takes the
   tiles of [d1], [d2] and the third dimension, and yields the
   candidate if it fits [bs] elements. *)
let emit yield ~bs intent order ~d1 ~d2 t1 t2 t3 =
  if (t1 * t2) + (t2 * t3) + (t1 * t3) <= bs then
    match (d1, d2) with
    | Dim.M, Dim.K -> yield intent t1 t2 t3 order
    | Dim.K, Dim.M -> yield intent t2 t1 t3 order
    | Dim.M, Dim.L -> yield intent t1 t3 t2 order
    | Dim.L, Dim.M -> yield intent t2 t3 t1 order
    | Dim.K, Dim.L -> yield intent t3 t1 t2 order
    | Dim.L, Dim.K -> yield intent t3 t2 t1 order
    | (Dim.M | Dim.K | Dim.L), _ -> invalid_arg "Principles.emit: equal dimensions"

let single_on ~distinct lat buf ~stationary yield =
  let bs = Buffer.elements buf in
  let d1, d2 = Operand.dims stationary in
  let free = Operand.free_dim stationary in
  let lat1 = lat d1 and lat2 = lat d2 in
  let size1 = lat1.Mode.size in
  let intent = Nra.Single_nra { stationary } in
  let order = Order.index (Order.make ~outer:d1 ~mid:d2 ~inner:free) in
  let seen = seen ~distinct lat1 in
  (* The partner tile, the tiling and its feasibility are functions of
     [t1], so a repeated [t1] is a repeated candidate: dropped before
     it is built. *)
  let visit t1 =
    if first seen lat1 t1 then begin
      let t2 = partner_tile ~bs t1 in
      if t2 >= 1 then emit yield ~bs intent order ~d1 ~d2 t1 (Mode.snap lat2 t2) 1
    end
  in
  (* Traffic depends on tile sizes only through integer trip counts,
     so the complete candidate set along this dimension is the minimal
     tile per distinct trip count. The partner dimension then maximizes
     under the buffer constraint, making the builder a one-dimensional
     refinement of the principle's structure, not a search. The raw
     seeds: the symmetric point, each dim clamped to full size, the
     tile implied when the partner clamps, and the symmetric point's
     integer neighbourhood. *)
  let base = Arith.isqrt_add bs 1 - 1 in
  let raw f =
    f base;
    f size1;
    f (partner_tile ~bs lat2.Mode.size);
    for w = -wiggle to wiggle do
      f (base + w)
    done
  in
  let rounded t = if t >= 1 then visit (Mode.quantize lat1 t) in
  let root = Arith.isqrt size1 + 1 in
  let points = lat1.Mode.points in
  match lat1.Mode.mode with
  | Mode.Pow2 ->
    (* the lattice itself: O(log D) points, each its own trip count *)
    visit size1;
    Array.iter visit points
  | Mode.Divisors ->
    (* The rounded raw seeds, then the divisors that ceil(D/j) and
       then 1 .. root round to, in that order (j, t <= root =
       isqrt D + 1): every divisor >= the rounding of ceil(D / root),
       descending, then every divisor <= root, ascending.
       O(number of divisors). The Exact sweep's snapped raw seeds
       round to tiles already listed. *)
    raw rounded;
    let low = Mode.quantize lat1 (Arith.ceil_div size1 root) in
    for i = Array.length points - 1 downto 0 do
      if points.(i) >= low then visit points.(i)
    done;
    Array.iter (fun t -> if t <= root then visit t) points
  | Mode.Exact ->
    (* ceil(D/j), then 1 .. root, then the snapped raw seeds: O(sqrt D)
       values, since large tiles come from j <= sqrt D and small tiles
       are themselves <= sqrt D; every trip count is its own lattice
       point here *)
    raw rounded;
    for j = 1 to root do
      rounded (Arith.ceil_div size1 j)
    done;
    for t = 1 to root do
      rounded t
    done;
    raw (fun t -> if t >= 1 then visit (Mode.snap lat1 t))

let two_on ~distinct lat op buf ~untiled ~redundant yield =
  if not (Operand.uses_dim redundant untiled) then
    invalid_arg "Principles.two: redundant operand must use the untiled dim";
  let bs = Buffer.elements buf in
  let d = Matmul.dim op untiled in
  let grow = Operand.free_dim redundant in
  let shrink = Dim.other untiled grow in
  let base = (bs - d) / (d + 1) in
  if base >= 1 then begin
    let intent = Nra.Two_nra { untiled; redundant } in
    let order = Order.index (Order.make ~outer:grow ~mid:shrink ~inner:untiled) in
    let lat_grow = lat grow in
    let seen = seen ~distinct lat_grow in
    let visit t =
      if t >= 1 then begin
        let t = Mode.snap lat_grow t in
        if first seen lat_grow t then
          emit yield ~bs intent order ~d1:grow ~d2:shrink t 1 d
      end
    in
    visit base;
    for w = -wiggle to wiggle do
      visit (base + w)
    done
  end

let three_on op buf ~resident yield =
  let d1, d2 = Operand.dims resident in
  let free = Operand.free_dim resident in
  let order = Order.index (Order.make ~outer:free ~mid:d1 ~inner:d2) in
  emit yield ~bs:(Buffer.elements buf) (Nra.Three_nra { resident }) order ~d1 ~d2
    (Matmul.dim op d1) (Matmul.dim op d2) 1

let iter ~distinct mode op buf yield =
  let lat = lattices mode op in
  List.iter (fun x -> single_on ~distinct lat buf ~stationary:x yield) Operand.all;
  List.iter
    (fun d ->
      List.iter
        (fun x -> two_on ~distinct lat op buf ~untiled:d ~redundant:x yield)
        (Operand.with_dim d))
    Dim.all;
  List.iter (fun x -> three_on op buf ~resident:x yield) Operand.all

(* The list API: build each enumerated candidate's schedule. *)
let collect op enumerate =
  let acc = ref [] in
  enumerate (fun intent m k l order ->
      let schedule = Schedule.make (Tiling.make op ~m ~k ~l) (Order.of_index order) in
      acc := { intent; schedule } :: !acc);
  List.rev !acc

let single mode op buf ~stationary =
  collect op (single_on ~distinct:true (lattices mode op) buf ~stationary)

let two mode op buf ~untiled ~redundant =
  collect op (two_on ~distinct:true (lattices mode op) op buf ~untiled ~redundant)

let three _mode op buf ~resident = collect op (three_on op buf ~resident)

let all mode op buf = collect op (iter ~distinct:true mode op buf)
