open Fusecu_util

(* Projective loop-nest IR (ROADMAP item 3).

   A nest is an iteration index set [0,e_0) x ... x [0,e_{n-1}) plus
   one projection per tensor: every tensor dimension is either a
   direct projection of a single index ([Point]) or a sliding window
   driven by an (outer, kernel) index pair ([Window] — the dimension
   coordinate is outer*stride + kernel*dilation, the conv2d input
   pattern; its tile holds the halo, so consecutive tiles overlap and
   per-sweep traffic exceeds the tensor size).

   Matmul is the 3-index instance with the [Point]-projected operands
   A(m,k), B(k,l), C(m,l); on it every function in this module is
   bit-identical to lib/loopnest's Tiling/Cost (test_nest.ml locks the
   reduction over the whole schedule space).

   A tensor marked [internal] is a fused intermediate in the sense of
   the paper's Principle 4: it never moves through the memory
   hierarchy (zero traffic), but its tile occupies buffer space, and
   only schedules under which it is never revisited are [valid] — a
   revisited intermediate would have been spilled and refetched, which
   contradicts it being internal. *)

type access =
  | Point of int
  | Window of { outer : int; kernel : int; stride : int; dilation : int }

type tensor = { tname : string; dims : access list; internal : bool }

(* The tensors compiled for the kernels below, indexed like [tensors]:
   the bitmask of the axes each projection reads, and each tensor's
   dims flattened to four ints — axis, -1, 0, 0 for a [Point]; outer,
   kernel, stride, dilation for a [Window] — plus the indices of the
   external and of the internal tensors. *)
type code = {
  used : int array;
  flat : int array array;
  ext : int array;
  intern : int array;
}

type t = {
  name : string;
  axes : string array;
  extents : int array;
  tensors : tensor list;
  code : code;
}

let rank t = Array.length t.extents

let access_axes = function
  | Point i -> [ i ]
  | Window { outer; kernel; _ } -> [ outer; kernel ]

let used_axes tensor =
  List.sort_uniq compare (List.concat_map access_axes tensor.dims)

let tensor ?(internal = false) tname dims = { tname; dims; internal }

let externals t = List.filter (fun x -> not x.internal) t.tensors

let internals t = List.filter (fun x -> x.internal) t.tensors

(* The kernels keep sets of axes, and of external tensors, in one [int]
   bitmask each. *)
let max_rank = 62

let flatten x =
  let flat = Array.make (4 * List.length x.dims) 0 in
  List.iteri
    (fun j a ->
      let d = 4 * j in
      match a with
      | Point i ->
        flat.(d) <- i;
        flat.(d + 1) <- -1
      | Window { outer; kernel; stride; dilation } ->
        flat.(d) <- outer;
        flat.(d + 1) <- kernel;
        flat.(d + 2) <- stride;
        flat.(d + 3) <- dilation)
    x.dims;
  flat

let compile tensors =
  let ts = Array.of_list tensors in
  let where p =
    Array.of_list
      (List.filter (fun x -> p ts.(x)) (List.init (Array.length ts) Fun.id))
  in
  { used =
      Array.map
        (fun x -> List.fold_left (fun m i -> m lor (1 lsl i)) 0 (used_axes x))
        ts;
    flat = Array.map flatten ts;
    ext = where (fun x -> not x.internal);
    intern = where (fun x -> x.internal) }

let make ~name ~axes ~extents ~tensors =
  let n = Array.length extents in
  if n < 1 then invalid_arg "Nest.make: empty index set";
  if n > max_rank then
    invalid_arg (Printf.sprintf "Nest.make: rank %d above %d" n max_rank);
  if Array.length axes <> n then
    invalid_arg "Nest.make: axes and extents disagree";
  Array.iter
    (fun e -> if e < 1 then invalid_arg "Nest.make: extents must be >= 1")
    extents;
  let seen = Hashtbl.create n in
  Array.iter
    (fun a ->
      if Hashtbl.mem seen a then
        invalid_arg (Printf.sprintf "Nest.make: duplicate axis %S" a);
      Hashtbl.add seen a ())
    axes;
  if tensors = [] then invalid_arg "Nest.make: no tensors";
  if List.for_all (fun x -> x.internal) tensors then
    invalid_arg "Nest.make: all tensors are internal";
  if List.length (List.filter (fun x -> not x.internal) tensors) > max_rank then
    invalid_arg
      (Printf.sprintf "Nest.make: more than %d external tensors" max_rank);
  List.iter
    (fun x ->
      if x.dims = [] then
        invalid_arg (Printf.sprintf "Nest.make: tensor %S has no dims" x.tname);
      let used = ref [] in
      let use i =
        if i < 0 || i >= n then
          invalid_arg
            (Printf.sprintf "Nest.make: tensor %S references axis %d" x.tname i);
        if List.mem i !used then
          invalid_arg
            (Printf.sprintf "Nest.make: tensor %S uses axis %d twice" x.tname i);
        used := i :: !used
      in
      List.iter
        (function
          | Point i -> use i
          | Window { outer; kernel; stride; dilation } ->
            use outer;
            use kernel;
            if stride < 1 then invalid_arg "Nest.make: stride must be >= 1";
            if dilation < 1 then invalid_arg "Nest.make: dilation must be >= 1")
        x.dims)
    tensors;
  { name; axes; extents; tensors; code = compile tensors }

let access_extent t = function
  | Point i -> t.extents.(i)
  | Window { outer; kernel; stride; dilation } ->
    ((t.extents.(outer) - 1) * stride) + ((t.extents.(kernel) - 1) * dilation) + 1

let tensor_size t x =
  List.fold_left (fun acc a -> acc * access_extent t a) 1 x.dims

(* Iteration points of the (product) index set. For a fused nest with
   an internal intermediate this over-counts the true MAC work (the
   reduction is shared across the consumer sweep); it is the
   communication model's iteration space, not a FLOP counter. *)
let points t = Array.fold_left ( * ) 1 t.extents

(* ------------------------------------------------------------------ *)
(* Schedules: one tile size per index plus a loop order.               *)

type schedule = { tiles : int array; order : int array }

let schedule_make t ~tiles ~order =
  let n = rank t in
  if Array.length tiles <> n || Array.length order <> n then
    invalid_arg "Nest.schedule_make: wrong arity";
  Array.iteri
    (fun i tile ->
      if tile < 1 || tile > t.extents.(i) then
        invalid_arg
          (Printf.sprintf "Nest.schedule_make: tile %d out of [1,%d] on axis %s"
             tile t.extents.(i) t.axes.(i)))
    tiles;
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Nest.schedule_make: order is not a permutation";
      seen.(i) <- true)
    order;
  { tiles; order }

let trips t (s : schedule) i = Arith.ceil_div t.extents.(i) s.tiles.(i)

(* ------------------------------------------------------------------ *)
(* Kernels over the compiled tensors, addressed by their index in
   [tensors]. The ones a search calls per tiling or per order walk no
   list and allocate nothing but the array they return; [eval], [valid]
   and [revisit_of] first compute a schedule's trip counts.            *)

let ntensors t = Array.length t.code.used

let used_mask t x = t.code.used.(x)

let trips_of t tiles = Array.mapi (fun i e -> Arith.ceil_div e tiles.(i)) t.extents

(* The active (tiled, trips > 1) axes: only their relative order moves
   any cost. *)
let active_mask trips =
  let m = ref 0 in
  for i = 0 to Array.length trips - 1 do
    if trips.(i) > 1 then m := !m lor (1 lsl i)
  done;
  !m

(* Buffer residency of one tile per tensor (internal ones included:
   the fused intermediate lives in the buffer). On the matmul instance
   this is Tiling.footprint: tm*tk + tk*tl + tm*tl. A tensor reads an
   axis in at most one dim, and a dim's extent is affine in each of its
   tiles, so with the other tiles held the footprint is affine in one
   axis's tile. *)
let footprint_tiles t tiles =
  let fp = ref 0 in
  for x = 0 to ntensors t - 1 do
    let flat = t.code.flat.(x) in
    let p = ref 1 in
    for j = 0 to (Array.length flat / 4) - 1 do
      let d = 4 * j in
      let a = flat.(d) and b = flat.(d + 1) in
      p :=
        !p
        *
        if b < 0 then tiles.(a)
        else ((tiles.(a) - 1) * flat.(d + 2)) + ((tiles.(b) - 1) * flat.(d + 3)) + 1
    done;
    fp := !fp + !p
  done;
  !fp

let footprint t (s : schedule) = footprint_tiles t s.tiles

(* ------------------------------------------------------------------ *)
(* Analytic cost: traffic = revisit x per-sweep traffic. The sweep
   depends on the trip counts alone, the revisit factor on the loop
   order too, but only through each tensor's [revisit_mask]; so a
   search computes [sweeps] once per tiling and, per class of orders
   with equal masks, one product of trips per tensor.                  *)

type per_tensor = { fetches : int; traffic : int; revisit : int }

type cost = { per : per_tensor array; total : int }

(* One sweep over a window dimension's tile grid, edge-clipped: the sum
   over (outer tile a, kernel tile b) of
   (ext_o(a)-1)*stride + (ext_k(b)-1)*dilation + 1, in closed form. *)
let window_sweep ~eo ~ek ~stride ~dilation ~no ~nk =
  (stride * nk * (eo - no)) + (dilation * no * (ek - nk)) + (no * nk)

(* Traffic of one full sweep over each tensor's tile grid. [Point]
   dimensions partition exactly (ragged tiles sum to the extent);
   [Window] dimensions overlap by the halo. *)
let fill_sweeps t ~trips out =
  for x = 0 to ntensors t - 1 do
    let flat = t.code.flat.(x) in
    let s = ref 1 in
    for j = 0 to (Array.length flat / 4) - 1 do
      let d = 4 * j in
      let a = flat.(d) and b = flat.(d + 1) in
      s :=
        !s
        *
        if b < 0 then t.extents.(a)
        else
          window_sweep ~eo:t.extents.(a) ~ek:t.extents.(b) ~stride:flat.(d + 2)
            ~dilation:flat.(d + 3) ~no:trips.(a) ~nk:trips.(b)
    done;
    out.(x) <- !s
  done

let sweeps t ~trips =
  let out = Array.make (ntensors t) 0 in
  fill_sweeps t ~trips out;
  out

(* The axes whose trip counts multiply into the number of sweeps over
   tensor [x]. Each time a tiled free loop ordered outside the
   innermost tiled used loop advances, the inner used loops have cycled
   through the tensor's tile grid, so the next sweep refetches it.
   Walking the order from the innermost loop outward, the first active
   used loop met is that innermost one, and every active free loop met
   after it is in the mask. A loop order's cost depends on it only
   through these masks. *)
let revisit_mask t x ~active ~order =
  let used = t.code.used.(x) in
  let m = ref 0 and inside = ref false in
  for p = Array.length order - 1 downto 0 do
    let bit = 1 lsl order.(p) in
    if active land bit <> 0 then
      if used land bit <> 0 then inside := true
      else if !inside then m := !m lor bit
  done;
  !m

(* The product of the trips over [revisit_mask]: exactly lib/loopnest's
   Cost.revisit on the MM instance (where each operand has a single
   free index). *)
let revisit t x ~trips ~order =
  let m = revisit_mask t x ~active:(active_mask trips) ~order in
  let r = ref 1 in
  for i = 0 to Array.length trips - 1 do
    if m land (1 lsl i) <> 0 then r := !r * trips.(i)
  done;
  !r

(* A schedule is valid iff every internal (fused-intermediate) tensor
   is revisit-free: its tile is fully produced and consumed within one
   residency. This is the generalization of Fused.validate's
   "producer C non-redundant" requirement. *)
let revisit_free t ~active ~order =
  let intern = t.code.intern in
  let j = ref 0 in
  while !j < Array.length intern && revisit_mask t intern.(!j) ~active ~order = 0 do
    incr j
  done;
  !j = Array.length intern

let no_traffic = { fetches = 0; traffic = 0; revisit = 0 }

let eval t (s : schedule) =
  let trips = trips_of t s.tiles in
  let sweeps = sweeps t ~trips in
  let per = Array.make (ntensors t) no_traffic in
  let sum = ref 0 in
  for j = 0 to Array.length t.code.ext - 1 do
    let x = t.code.ext.(j) in
    let r = revisit t x ~trips ~order:s.order in
    let tiles = ref 1 in
    for i = 0 to rank t - 1 do
      if t.code.used.(x) land (1 lsl i) <> 0 then tiles := !tiles * trips.(i)
    done;
    per.(x) <- { fetches = r * !tiles; traffic = r * sweeps.(x); revisit = r };
    sum := !sum + per.(x).traffic
  done;
  { per; total = !sum }

let valid t (s : schedule) =
  revisit_free t ~active:(active_mask (trips_of t s.tiles)) ~order:s.order

let revisit_of t (s : schedule) x =
  revisit t x ~trips:(trips_of t s.tiles) ~order:s.order

(* Every tensor (internal ones too, for the footprint) is swept at most
   once per trip of each axis it does not use, and one sweep of a
   [Window] dimension moves at most (stride + dilation + 1) * eo * ek
   elements ([window_sweep] at its largest trip counts). Over the
   compiled tensors: a request's parse runs it on every nest line. *)
let max_total t =
  let open Arith in
  let acc = ref 0 in
  for x = 0 to ntensors t - 1 do
    let used = t.code.used.(x) and flat = t.code.flat.(x) in
    let free = ref 1 in
    for i = 0 to rank t - 1 do
      if used land (1 lsl i) = 0 then free := mul_sat !free t.extents.(i)
    done;
    let sweep = ref 1 in
    for j = 0 to (Array.length flat / 4) - 1 do
      let d = 4 * j in
      let a = flat.(d) and b = flat.(d + 1) in
      sweep :=
        mul_sat !sweep
          (if b < 0 then t.extents.(a)
           else
             mul_sat
               (add_sat (add_sat flat.(d + 2) flat.(d + 3)) 1)
               (mul_sat t.extents.(a) t.extents.(b)))
    done;
    acc := add_sat !acc (mul_sat !free !sweep)
  done;
  !acc

let pp_schedule t fmt (s : schedule) =
  let tile fmt i = Format.fprintf fmt "%s=%d" t.axes.(i) s.tiles.(i) in
  Format.fprintf fmt "@[tiles(%a)@ order(%s)@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",") tile)
    (List.init (rank t) Fun.id)
    (String.concat ">" (List.map (fun i -> t.axes.(i)) (Array.to_list s.order)))

let schedule_to_string t s = Format.asprintf "%a" (pp_schedule t) s

let pp fmt t =
  let pp_access fmt = function
    | Point i -> Format.fprintf fmt "%s" t.axes.(i)
    | Window { outer; kernel; stride; dilation } ->
      Format.fprintf fmt "%s*%d+%s*%d" t.axes.(outer) stride t.axes.(kernel)
        dilation
  in
  let pp_tensor fmt x =
    Format.fprintf fmt "%s%s[%a]" x.tname
      (if x.internal then "~" else "")
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt ",")
         pp_access)
      x.dims
  in
  Format.fprintf fmt "@[%s:@ %s@ %a@]" t.name
    (String.concat "x"
       (Array.to_list
          (Array.mapi (fun i e -> Printf.sprintf "%s=%d" t.axes.(i) e) t.extents)))
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") pp_tensor)
    t.tensors
