type method_ = Keep_stationary | Untile_dimension | Hold_entirely

let methods_available = function
  | Nra.Single -> [ Keep_stationary ]
  | Nra.Two -> [ Keep_stationary; Untile_dimension ]
  | Nra.Three -> [ Untile_dimension; Hold_entirely ]

type arrow = {
  producer_class : Nra.t;
  producer_method : method_;
  consumer_class : Nra.t;
  consumer_method : method_;
  profitable : bool;
}

(* Two methods compose across a fusion boundary when they impose
   consistent movement on the shared tensor: the same method on both
   sides always works, and a fully-resident tensor satisfies either
   side's requirement. *)
let compatible a b =
  a = b || a = Hold_entirely || b = Hold_entirely

let arrows =
  List.concat_map
    (fun pc ->
      List.concat_map
        (fun pm ->
          List.concat_map
            (fun cc ->
              List.filter_map
                (fun cm ->
                  if compatible pm cm then
                    Some
                      { producer_class = pc; producer_method = pm;
                        consumer_class = cc; consumer_method = cm;
                        profitable = Nra.equal pc cc }
                  else None)
                (methods_available cc))
            Nra.all)
        (methods_available pc))
    Nra.all

let green = List.filter (fun a -> a.profitable) arrows

let red = List.filter (fun a -> not a.profitable) arrows

let mapping_for a =
  if not a.profitable then None
  else
    match (a.producer_method, a.consumer_method) with
    | Untile_dimension, _ | _, Untile_dimension -> Some `Column_fusion
    | (Keep_stationary | Hold_entirely), (Keep_stationary | Hold_entirely) ->
      Some `Tile_fusion

let method_name = function
  | Keep_stationary -> "stationary"
  | Untile_dimension -> "untiled dim"
  | Hold_entirely -> "entire tensor"
