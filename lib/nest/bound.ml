(* Communication lower bounds for projective nests, HBL-style: the
   unbounded bound is the sum of the external tensor sizes (each
   element must cross the memory boundary at least once), which on the
   MM instance is exactly Core.Lower_bound.intra = Matmul.ideal_ma.

   [penalized] sharpens it for branch-and-bound pruning, generalizing
   Dse.Bnb's pairwise-exclusion argument (DESIGN.md section 4c, now
   section 11): two tensors T1, T2 with crossed tiled indices — f free
   in T1 but used (and tiled) in T2, g free in T2 but used (and tiled)
   in T1 — cannot both be revisit-free, because T1 needs pos(f) inner
   to pos(g) and T2 the opposite. The revisit-free tensors therefore
   form an independent set of the conflict graph, and every tensor
   outside it pays at least its cheapest single-loop revisit penalty.
   The adversary picks the max-weight independent set. On matmul the
   conflict graph is the clique over the operands freed by tiled
   dimensions, and the bound collapses to Bnb's "sum of penalties
   minus the most expensive one". *)

(* Minimum achievable one-sweep traffic of a tensor over the whole
   tiling lattice. Point dimensions partition exactly, so every sweep
   pays the full extent. Window dimensions pay the edge-clipped tile
   grid — for a skipping window (stride beyond the dilated kernel
   span) a coarse tiling touches fewer elements than the window span,
   so the tensor "size" is NOT a lower bound. The sweep closed form
   stride*nk*(eo-no) + dilation*no*(ek-nk) + no*nk is linear in each
   trip count separately, so its minimum over the trip rectangle sits
   at a corner, and both corner values (1 and the extent) are always
   achievable (tile = extent, tile = 1). *)
let min_access_sweep t = function
  | Nest.Point i -> t.Nest.extents.(i)
  | Nest.Window { outer; kernel; stride; dilation } ->
    let eo = t.Nest.extents.(outer) and ek = t.Nest.extents.(kernel) in
    let f no nk = Nest.window_sweep ~eo ~ek ~stride ~dilation ~no ~nk in
    min (min (f 1 1) (f 1 ek)) (min (f eo 1) (f eo ek))

let min_sweep t x =
  List.fold_left (fun acc a -> acc * min_access_sweep t a) 1 x.Nest.dims

(* A nest's bound, compiled once: per external tensor (in [tensors]
   order, internals skipped), its used and free axis masks, its free
   axes in increasing order and its minimal sweep; [pen] is scratch for
   one call's penalties. *)
type t = {
  ideal : int;
  used : int array;
  free : int array;
  free_axes : int array array;
  min_sweeps : int array;
  pen : int array;
}

let ideal nest =
  List.fold_left
    (fun acc x -> if x.Nest.internal then acc else acc + min_sweep nest x)
    0 nest.Nest.tensors

let compile nest =
  let ext =
    List.filter
      (fun (_, x) -> not x.Nest.internal)
      (List.mapi (fun i x -> (i, x)) nest.Nest.tensors)
  in
  let used = Array.of_list (List.map (fun (i, _) -> Nest.used_mask nest i) ext) in
  let all = (1 lsl Nest.rank nest) - 1 in
  let free = Array.map (fun u -> all land lnot u) used in
  let axes m =
    Array.of_list (List.filter (fun i -> m land (1 lsl i) <> 0) (List.init (Nest.rank nest) Fun.id))
  in
  { ideal = ideal nest;
    used;
    free;
    free_axes = Array.map axes free;
    min_sweeps = Array.of_list (List.map (fun (_, x) -> min_sweep nest x) ext);
    pen = Array.make (Array.length used) 0 }

(* Cheapest possible revisit of external [x] if it is not revisit-free:
   the violating loop may be any free axis that ends up tiled, so take
   the min over free axes of max(trips_lb, 2) - 1 sweeps, at one
   minimal sweep each (actual sweep traffic >= min_sweep). No axis
   goes below 2, so the walk stops there. *)
let penalty b ~trips x =
  let axes = b.free_axes.(x) in
  let cheapest = ref max_int and i = ref 0 in
  while !cheapest > 2 && !i < Array.length axes do
    let k = trips.(axes.(!i)) in
    if k < !cheapest then cheapest := if k > 2 then k else 2;
    incr i
  done;
  (!cheapest - 1) * b.min_sweeps.(x)

(* Crossed tiled indices: a free axis of each is a used axis of the
   other, both tiled. *)
let conflict b ~hot x y =
  b.free.(x) land hot land b.used.(y) <> 0
  && b.free.(y) land hot land b.used.(x) <> 0

(* Largest total penalty an independent set of [cand] (a mask of
   externals, none below [x]) can avoid: exact branching on [x] —
   leave it out, or keep it and drop its neighbours. Reads the
   members' penalties from [b.pen]. *)
let rec saved b ~hot x cand =
  if cand = 0 then 0
  else if cand land (1 lsl x) = 0 then saved b ~hot (x + 1) cand
  else begin
    let rest = cand lxor (1 lsl x) in
    let nbrs = ref 0 in
    for y = x + 1 to Array.length b.used - 1 do
      if rest land (1 lsl y) <> 0 && conflict b ~hot x y then
        nbrs := !nbrs lor (1 lsl y)
    done;
    let skip = saved b ~hot (x + 1) rest in
    let keep = b.pen.(x) + saved b ~hot (x + 1) (rest land lnot !nbrs) in
    if keep > skip then keep else skip
  end

(* [trips] holds per-axis lower bounds on the trip count (exact values
   make the bound exact at leaves). Admissible: every schedule whose
   actual trip counts dominate [trips] costs at least the result. *)
let penalized_in b ~trips =
  let hot = Nest.active_mask trips in
  (* Tensors that certainly revisit-or-pay: some tiled free axis (the
     potential violator) and some tiled used axis (so a violator
     actually forces a refetch). *)
  let members = ref 0 and total = ref 0 in
  for x = 0 to Array.length b.used - 1 do
    if b.free.(x) land hot <> 0 && b.used.(x) land hot <> 0 then begin
      members := !members lor (1 lsl x);
      b.pen.(x) <- penalty b ~trips x;
      total := !total + b.pen.(x)
    end
  done;
  if !members = 0 then b.ideal
  else b.ideal + (!total - saved b ~hot 0 !members)

let penalized t ~trips = penalized_in (compile t) ~trips
