open Fusecu_tensor
open Fusecu_loopnest

type shape = Single | Pair of { l2 : int } | Chain3 of { l2 : int; l3 : int }

type t = { m : int; k : int; l : int; shape : shape; bs : int }

let op1 p = Matmul.make ~name:"p" ~m:p.m ~k:p.k ~l:p.l ()

let ops p =
  match p.shape with
  | Single -> [ op1 p ]
  | Pair { l2 } -> [ op1 p; Matmul.make ~name:"c" ~m:p.m ~k:p.l ~l:l2 () ]
  | Chain3 { l2; l3 } ->
    [ op1 p;
      Matmul.make ~name:"c" ~m:p.m ~k:p.l ~l:l2 ();
      Matmul.make ~name:"d" ~m:p.m ~k:l2 ~l:l3 () ]

let pair p =
  match ops p with [ a; b ] -> Some (Fused.make_pair_exn a b) | _ -> None

let chain p =
  match p.shape with
  | Chain3 { l2; l3 } -> Some (Chain.of_dims ~name:"oracle" ~m:p.m [ p.k; p.l; l2; l3 ])
  | Single | Pair _ -> None

let buffer p = Buffer.make p.bs

let to_spec p =
  let base = Printf.sprintf "m=%d,k=%d,l=%d" p.m p.k p.l in
  let shape =
    match p.shape with
    | Single -> ""
    | Pair { l2 } -> Printf.sprintf ",l2=%d" l2
    | Chain3 { l2; l3 } -> Printf.sprintf ",l2=%d,l3=%d" l2 l3
  in
  Printf.sprintf "%s%s,bs=%d" base shape p.bs

let of_spec s =
  let ( let* ) = Result.bind in
  let parse_field acc field =
    let* acc = acc in
    match String.split_on_char '=' (String.trim field) with
    | [ key; value ] -> (
      match int_of_string_opt (String.trim value) with
      | None -> Error (Printf.sprintf "bad integer in %S" field)
      | Some v ->
        if v < 1 then Error (Printf.sprintf "%s must be >= 1" key)
        else (
          match String.trim key with
          | "m" | "k" | "l" | "l2" | "l3" | "bs" as k -> Ok ((k, v) :: acc)
          | k -> Error (Printf.sprintf "unknown field %S" k)))
    | _ -> Error (Printf.sprintf "expected key=value, got %S" field)
  in
  let* fields = List.fold_left parse_field (Ok []) (String.split_on_char ',' s) in
  let get k = List.assoc_opt k fields in
  let require k =
    match get k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s" k)
  in
  let* m = require "m" in
  let* k = require "k" in
  let* l = require "l" in
  let* bs = require "bs" in
  match (get "l2", get "l3") with
  | None, None -> Ok { m; k; l; shape = Single; bs }
  | Some l2, None -> Ok { m; k; l; shape = Pair { l2 }; bs }
  | Some l2, Some l3 -> Ok { m; k; l; shape = Chain3 { l2; l3 }; bs }
  | None, Some _ -> Error "l3 without l2"

let equal (a : t) b = a = b

(* Lexicographic "simplicity" used by the shrinker: fewer operators
   first, then smaller dimensions, then a smaller buffer. *)
let size p =
  let dims =
    match p.shape with
    | Single -> p.m + p.k + p.l
    | Pair { l2 } -> p.m + p.k + p.l + l2
    | Chain3 { l2; l3 } -> p.m + p.k + p.l + l2 + l3
  in
  let arity =
    match p.shape with Single -> 1 | Pair _ -> 2 | Chain3 _ -> 3
  in
  (arity, dims, p.bs)

let smaller_dims v =
  List.sort_uniq compare (List.filter (fun x -> x >= 1 && x < v) [ 1; v / 2; v - 1 ])

let smaller_buffers p =
  let anchors =
    let th = Fusecu_core.Regime.thresholds (op1 p) in
    [ th.tiny_max; th.small_max; th.medium_max + 1 ]
  in
  List.sort_uniq compare
    (List.filter (fun b -> b >= 3 && b < p.bs) ([ 3; p.bs / 2; p.bs - 1 ] @ anchors))

let proposals p =
  let shape_cuts =
    match p.shape with
    | Single -> []
    | Pair _ -> [ { p with shape = Single } ]
    | Chain3 { l2; l3 } ->
      [ { p with shape = Pair { l2 } }; { p with shape = Pair { l2 = l3 } };
        { p with shape = Single } ]
  in
  let dim_cuts =
    List.map (fun m -> { p with m }) (smaller_dims p.m)
    @ List.map (fun k -> { p with k }) (smaller_dims p.k)
    @ List.map (fun l -> { p with l }) (smaller_dims p.l)
    @
    match p.shape with
    | Single -> []
    | Pair { l2 } -> List.map (fun l2 -> { p with shape = Pair { l2 } }) (smaller_dims l2)
    | Chain3 { l2; l3 } ->
      List.map (fun l2 -> { p with shape = Chain3 { l2; l3 } }) (smaller_dims l2)
      @ List.map (fun l3 -> { p with shape = Chain3 { l2; l3 } }) (smaller_dims l3)
  in
  let buffer_cuts = List.map (fun bs -> { p with bs }) (smaller_buffers p) in
  List.sort (fun a b -> compare (size a) (size b)) (shape_cuts @ dim_cuts @ buffer_cuts)
