(* Resident-tile simulator for arbitrary nests: an odometer over the
   loop order. One resident tile per external tensor, keyed by the tile
   coordinates of the axes the tensor's projection uses; whenever the
   key changes the whole (edge-clipped) tile is fetched. The oracle
   holds Nest.eval, and Cost.eval on the matmul lowering, to these
   numbers on every schedule it samples. *)

let points t (s : Nest.schedule) =
  let n = Nest.rank t in
  let p = ref 1 in
  for i = 0 to n - 1 do
    p := !p * Nest.trips t s i
  done;
  !p

let eval t (s : Nest.schedule) : Nest.cost =
  let n = Nest.rank t in
  let trips = Array.init n (Nest.trips t s) in
  (* current tile coordinate per axis *)
  let coords = Array.make n 0 in
  let clipped i =
    let tile = s.Nest.tiles.(i) in
    min tile (t.Nest.extents.(i) - (coords.(i) * tile))
  in
  let access_tile_extent = function
    | Nest.Point i -> clipped i
    | Nest.Window { outer; kernel; stride; dilation } ->
      ((clipped outer - 1) * stride) + ((clipped kernel - 1) * dilation) + 1
  in
  let tensors = Array.of_list t.Nest.tensors in
  let nt = Array.length tensors in
  let used = Array.map Nest.used_axes tensors in
  let resident : int list option array = Array.make nt None in
  let fetch_counts = Array.init nt (fun _ -> Hashtbl.create 64) in
  let fetches = Array.make nt 0 in
  let traffic = Array.make nt 0 in
  let visit () =
    for x = 0 to nt - 1 do
      if not tensors.(x).Nest.internal then begin
        let key = List.map (fun u -> coords.(u)) used.(x) in
        if resident.(x) <> Some key then begin
          resident.(x) <- Some key;
          fetches.(x) <- fetches.(x) + 1;
          traffic.(x) <-
            traffic.(x)
            + List.fold_left
                (fun acc a -> acc * access_tile_extent a)
                1 tensors.(x).Nest.dims;
          let tbl = fetch_counts.(x) in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
        end
      end
    done
  in
  (* odometer over the loop order, innermost position fastest *)
  let rec bump p =
    if p < 0 then false
    else begin
      let ax = s.Nest.order.(p) in
      coords.(ax) <- coords.(ax) + 1;
      if coords.(ax) = trips.(ax) then begin
        coords.(ax) <- 0;
        bump (p - 1)
      end
      else true
    end
  in
  let continue_ = ref true in
  while !continue_ do
    visit ();
    continue_ := bump (n - 1)
  done;
  let per =
    Array.init nt (fun x ->
        if tensors.(x).Nest.internal then
          { Nest.fetches = 0; traffic = 0; revisit = 0 }
        else begin
          let revisit =
            Hashtbl.fold (fun _ c acc -> max acc c) fetch_counts.(x) 0
          in
          { Nest.fetches = fetches.(x); traffic = traffic.(x); revisit }
        end)
  in
  { Nest.per; total = Array.fold_left (fun acc p -> acc + p.Nest.traffic) 0 per }
