open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type candidate = { intent : Nra.dataflow; schedule : Schedule.t }

(* Integer neighbourhood explored around each closed-form tile size:
   the real-valued optimum can straddle a lattice point. *)
let wiggle = [ -2; -1; 0; 1; 2 ]

(* Largest t2 with t1*t2 + t1 + t2 <= bs (one tile of each operand,
   free-dim tile pinned to 1). *)
let partner_tile ~bs t1 = (bs - t1) / (t1 + 1)

(* Each dimension's lattice, built once per plan. *)
let lattices mode (op : Matmul.t) =
  let m = Mode.lattice mode op.m and k = Mode.lattice mode op.k
  and l = Mode.lattice mode op.l in
  function Dim.M -> m | Dim.K -> k | Dim.L -> l

let single_on lat op buf ~stationary =
  let bs = Buffer.elements buf in
  let d1, d2 = Operand.dims stationary in
  let free = Operand.free_dim stationary in
  let lat1 = lat d1 and lat2 = lat d2 in
  let size1 = lat1.Mode.size in
  let rounded = List.filter_map (fun t -> if t < 1 then None else Some (Mode.quantize lat1 t)) in
  (* Traffic depends on tile sizes only through integer trip counts,
     so the complete candidate set along this dimension is the minimal
     tile per distinct trip count. The partner dimension then maximizes
     under the buffer constraint, making the builder a one-dimensional
     refinement of the principle's structure, not a search. The raw
     seeds: the symmetric point, each dim clamped to full size, the
     tile implied when the partner clamps, and the symmetric point's
     integer neighbourhood. *)
  let base = Arith.isqrt_add bs 1 - 1 in
  let raw =
    base :: size1 :: partner_tile ~bs lat2.Mode.size :: List.map (fun w -> base + w) wiggle
  in
  let root = Arith.isqrt size1 + 1 in
  let sweep =
    match lat1.Mode.mode with
    | Mode.Pow2 ->
      (* the lattice itself: O(log D) points, each its own trip count *)
      size1 :: Array.to_list lat1.Mode.points
    | Mode.Divisors ->
      (* The rounded raw seeds, then the divisors that ceil(D/j) and
         then 1 .. root round to, in that order (j, t <= root =
         isqrt D + 1): every divisor >= the rounding of ceil(D / root),
         descending, then every divisor <= root, ascending.
         O(number of divisors). The Exact sweep's snapped raw seeds
         round to tiles already listed. *)
      let points = Array.to_list lat1.Mode.points in
      let low = Mode.quantize lat1 (Arith.ceil_div size1 root) in
      rounded raw
      @ List.rev (List.filter (fun t -> t >= low) points)
      @ List.filter (fun t -> t <= root) points
    | Mode.Exact ->
      (* ceil(D/j), then 1 .. root, then the snapped raw seeds: O(sqrt D)
         values, since large tiles come from j <= sqrt D and small tiles
         are themselves <= sqrt D; every trip count is its own lattice
         point here *)
      rounded
        (raw
        @ List.map (fun j -> Arith.ceil_div size1 j) (Arith.range 1 root)
        @ Arith.range 1 root
        @ List.map (fun t -> if t >= 1 then Mode.snap lat1 t else t) raw)
  in
  let order = Order.make ~outer:d1 ~mid:d2 ~inner:free in
  (* The partner tile, the tiling and its feasibility are functions of
     [t1], so a repeated [t1] is a repeated candidate: dropped before
     it is built. *)
  List.filter_map
    (fun t1 ->
      let t2 = partner_tile ~bs t1 in
      if t2 < 1 then None
      else begin
        let tiling =
          Tiling.make op ~m:1 ~k:1 ~l:1
          |> fun t -> Tiling.with_dim op t d1 t1
          |> fun t -> Tiling.with_dim op t d2 (Mode.snap lat2 t2)
        in
        let schedule = Schedule.make tiling order in
        if Schedule.fits schedule buf then
          Some { intent = Nra.Single_nra { stationary }; schedule }
        else None
      end)
    (Arith.dedup_stable Fun.id sweep)

let single mode op buf ~stationary = single_on (lattices mode op) op buf ~stationary

let two_on lat op buf ~untiled ~redundant =
  if not (Operand.uses_dim redundant untiled) then
    invalid_arg "Principles.two: redundant operand must use the untiled dim";
  let bs = Buffer.elements buf in
  let d = Matmul.dim op untiled in
  let grow = Operand.free_dim redundant in
  let shrink = Dim.other untiled grow in
  let base = (bs - d) / (d + 1) in
  if base < 1 then []
  else begin
    let order = Order.make ~outer:grow ~mid:shrink ~inner:untiled in
    List.filter_map
      (fun t ->
        let tiling =
          Tiling.full op
          |> fun x -> Tiling.with_dim op x grow t
          |> fun x -> Tiling.with_dim op x shrink 1
        in
        let schedule = Schedule.make tiling order in
        if Schedule.fits schedule buf then
          Some { intent = Nra.Two_nra { untiled; redundant }; schedule }
        else None)
      (Arith.dedup_stable Fun.id
         (List.filter_map
            (fun t -> if t < 1 then None else Some (Mode.snap (lat grow) t))
            (base :: List.map (fun w -> base + w) wiggle)))
  end

let two mode op buf ~untiled ~redundant =
  two_on (lattices mode op) op buf ~untiled ~redundant

let three _mode op buf ~resident =
  let d1, d2 = Operand.dims resident in
  let free = Operand.free_dim resident in
  let order = Order.make ~outer:free ~mid:d1 ~inner:d2 in
  let tiling = Tiling.full op |> fun t -> Tiling.with_dim op t free 1 in
  let schedule = Schedule.make tiling order in
  if Schedule.fits schedule buf then
    [ { intent = Nra.Three_nra { resident }; schedule } ]
  else []

let all mode op buf =
  let lat = lattices mode op in
  let singles =
    List.concat_map (fun x -> single_on lat op buf ~stationary:x) Operand.all
  in
  let twos =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun x -> two_on lat op buf ~untiled:d ~redundant:x)
          (Operand.with_dim d))
      Dim.all
  in
  let threes =
    List.concat_map (fun x -> three mode op buf ~resident:x) Operand.all
  in
  singles @ twos @ threes
