open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_util

type candidate = { intent : Nra.dataflow; schedule : Schedule.t }

(* Integer neighbourhood explored around each closed-form tile size:
   the real-valued optimum can straddle a lattice point. *)
let wiggle = [ -2; -1; 0; 1; 2 ]

let dedup_candidates cands =
  let rec uniq seen = function
    | [] -> []
    | c :: rest ->
      if List.exists (fun s -> Schedule.equal s c.schedule) seen then uniq seen rest
      else c :: uniq (c.schedule :: seen) rest
  in
  uniq [] cands

(* Largest t2 with t1*t2 + t1 + t2 <= bs (one tile of each operand,
   free-dim tile pinned to 1). *)
let partner_tile ~bs t1 = (bs - t1) / (t1 + 1)

let single mode op buf ~stationary =
  let bs = Buffer.elements buf in
  let d1, d2 = Operand.dims stationary in
  let free = Operand.free_dim stationary in
  let size1 = Matmul.dim op d1 and size2 = Matmul.dim op d2 in
  let base = Arith.isqrt (bs + 1) - 1 in
  let seeds =
    (* Traffic depends on tile sizes only through integer trip counts,
       so the complete candidate set along this dimension is the
       minimal tile per distinct trip count. The partner dimension then
       maximizes under the buffer constraint, making the builder a
       one-dimensional refinement of the principle's structure, not a
       search. *)
    match mode with
    | Mode.Pow2 ->
      (* the lattice itself: O(log D) points, each its own trip count *)
      size1 :: Arith.pow2s_upto size1
    | Mode.Exact | Mode.Divisors ->
      (* symmetric point, each dim clamped to full size, the tile
         implied when the partner clamps, and the snapped versions of
         each; then ceil(D/j) — only O(sqrt D) values: large tiles come
         from j <= sqrt D, small tiles are themselves <= sqrt D *)
      let raw =
        base :: size1 :: partner_tile ~bs size2 :: List.map (fun w -> base + w) wiggle
      in
      let root = Arith.isqrt size1 + 1 in
      let by_trips =
        List.map (fun j -> Arith.ceil_div size1 j) (Arith.range 1 root)
        @ Arith.range 1 root
      in
      raw @ by_trips
      @ List.map (fun t -> if t >= 1 then Mode.snap mode op d1 t else t) raw
  in
  let order = Order.make ~outer:d1 ~mid:d2 ~inner:free in
  let mk t1 =
    if t1 < 1 then None
    else begin
      let t1 = Mode.quantize mode op d1 t1 in
      let t2 = partner_tile ~bs t1 in
      if t2 < 1 then None
      else begin
        let t2 = Mode.snap mode op d2 t2 in
        let tiling =
          Tiling.make op ~m:1 ~k:1 ~l:1
          |> fun t -> Tiling.with_dim op t d1 t1
          |> fun t -> Tiling.with_dim op t d2 t2
        in
        let schedule = Schedule.make tiling order in
        if Schedule.fits schedule buf then
          Some { intent = Nra.Single_nra { stationary }; schedule }
        else None
      end
    end
  in
  dedup_candidates (List.filter_map mk seeds)

let two mode op buf ~untiled ~redundant =
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
    let mk t =
      if t < 1 then None
      else begin
        let t = Mode.snap mode op grow t in
        let tiling =
          Tiling.full op
          |> fun x -> Tiling.with_dim op x grow t
          |> fun x -> Tiling.with_dim op x shrink 1
        in
        let schedule = Schedule.make tiling order in
        if Schedule.fits schedule buf then
          Some { intent = Nra.Two_nra { untiled; redundant }; schedule }
        else None
      end
    in
    dedup_candidates
      (List.filter_map mk (base :: List.map (fun w -> base + w) wiggle))
  end

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
  let singles =
    List.concat_map (fun x -> single mode op buf ~stationary:x) Operand.all
  in
  let twos =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun x -> two mode op buf ~untiled:d ~redundant:x)
          (Operand.with_dim d))
      Dim.all
  in
  let threes =
    List.concat_map (fun x -> three mode op buf ~resident:x) Operand.all
  in
  singles @ twos @ threes
