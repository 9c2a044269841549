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
   bit-identical to lib/loopnest's Cost/Sim (test_nest.ml locks the
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

type t = {
  name : string;
  axes : string array;
  extents : int array;
  tensors : tensor list;
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

let make ~name ~axes ~extents ~tensors =
  let n = Array.length extents in
  if n < 1 then invalid_arg "Nest.make: empty index set";
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
  { name; axes; extents; tensors }

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

let tile_access_extent tiles = function
  | Point i -> tiles.(i)
  | Window { outer; kernel; stride; dilation } ->
    ((tiles.(outer) - 1) * stride) + ((tiles.(kernel) - 1) * dilation) + 1

(* Buffer residency of one tile per tensor (internal ones included:
   the fused intermediate lives in the buffer). On the matmul instance
   this is Tiling.footprint: tm*tk + tk*tl + tm*tl. *)
let footprint_tiles t tiles =
  List.fold_left
    (fun acc x ->
      acc + List.fold_left (fun p a -> p * tile_access_extent tiles a) 1 x.dims)
    0 t.tensors

let footprint t (s : schedule) = footprint_tiles t s.tiles

(* ------------------------------------------------------------------ *)
(* Analytic cost                                                       *)

type per_tensor = { fetches : int; traffic : int; revisit : int }

type cost = { per : per_tensor array; total : int }

let positions t (s : schedule) =
  let pos = Array.make (rank t) 0 in
  Array.iteri (fun p i -> pos.(i) <- p) s.order;
  pos

let trips_all t (s : schedule) = Array.init (rank t) (fun i -> trips t s i)

(* Number of sweeps over the tensor: the product of the trip counts of
   every tiled free index ordered outside the innermost tiled used
   index. Each time such a loop advances, the inner used loops have
   cycled through the tensor's tile grid, so the next sweep refetches
   it. This is exactly lib/loopnest's Cost.revisit on the MM instance
   (where each operand has a single free index). *)
let revisit_arrays t tensor ~trips ~pos =
  let used = used_axes tensor in
  let p_star =
    List.fold_left
      (fun acc u -> if trips.(u) > 1 then max acc pos.(u) else acc)
      (-1) used
  in
  if p_star < 0 then 1
  else begin
    let r = ref 1 in
    for i = 0 to rank t - 1 do
      if trips.(i) > 1 && pos.(i) < p_star && not (List.mem i used) then
        r := !r * trips.(i)
    done;
    !r
  end

let revisit_of t (s : schedule) tensor =
  revisit_arrays t tensor ~trips:(trips_all t s) ~pos:(positions t s)

(* Traffic of one full sweep over a tensor's tile grid, edge-clipped.
   [Point] dimensions partition exactly (ragged tiles sum to the
   extent); [Window] dimensions overlap by the halo, in closed form:
   sum over (outer tile a, kernel tile b) of
   (ext_o(a)-1)*stride + (ext_k(b)-1)*dilation + 1. *)
let access_sweep t trips = function
  | Point i -> t.extents.(i)
  | Window { outer; kernel; stride; dilation } ->
    let eo = t.extents.(outer) and ek = t.extents.(kernel) in
    let no = trips.(outer) and nk = trips.(kernel) in
    (stride * nk * (eo - no)) + (dilation * no * (ek - nk)) + (no * nk)

let eval_tensor t ~trips ~pos tensor =
  let r = revisit_arrays t tensor ~trips ~pos in
  let sweep_fetches =
    List.fold_left (fun acc u -> acc * trips.(u)) 1 (used_axes tensor)
  in
  let sweep_traffic =
    List.fold_left (fun acc a -> acc * access_sweep t trips a) 1 tensor.dims
  in
  { fetches = r * sweep_fetches; traffic = r * sweep_traffic; revisit = r }

let eval t (s : schedule) =
  let trips = trips_all t s and pos = positions t s in
  let per =
    Array.of_list
      (List.map
         (fun x ->
           if x.internal then { fetches = 0; traffic = 0; revisit = 0 }
           else eval_tensor t ~trips ~pos x)
         t.tensors)
  in
  { per; total = Array.fold_left (fun acc p -> acc + p.traffic) 0 per }

(* Every tensor (internal ones too, for the footprint) is swept at most
   once per trip of each axis it does not use, and one sweep of a
   [Window] dimension moves at most (stride + dilation + 1) * eo * ek
   elements ([access_sweep] at its largest trip counts). *)
let max_total t =
  let open Arith in
  List.fold_left
    (fun acc x ->
      let used = used_axes x in
      let free = ref 1 in
      Array.iteri
        (fun i e -> if not (List.mem i used) then free := mul_sat !free e)
        t.extents;
      let sweep =
        List.fold_left
          (fun acc a ->
            mul_sat acc
              (match a with
              | Point i -> t.extents.(i)
              | Window { outer; kernel; stride; dilation } ->
                mul_sat
                  (add_sat (add_sat stride dilation) 1)
                  (mul_sat t.extents.(outer) t.extents.(kernel))))
          1 x.dims
      in
      add_sat acc (mul_sat !free sweep))
    0 t.tensors

(* A schedule is valid iff every internal (fused-intermediate) tensor
   is revisit-free: its tile is fully produced and consumed within one
   residency. This is the generalization of Fused.validate's
   "producer C non-redundant" requirement. *)
let valid t (s : schedule) =
  let trips = trips_all t s and pos = positions t s in
  List.for_all
    (fun x -> revisit_arrays t x ~trips ~pos = 1)
    (internals t)

let per_tensor_named t (c : cost) =
  List.map2 (fun x p -> (x.tname, p)) t.tensors (Array.to_list c.per)

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
