open Fusecu_tensor
open Fusecu_loopnest

type t = Single | Two | Three

let to_string = function Single -> "Single-NRA" | Two -> "Two-NRA" | Three -> "Three-NRA"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let equal (a : t) b = a = b

let all = [ Single; Two; Three ]

type dataflow =
  | Single_nra of { stationary : Operand.t }
  | Two_nra of { untiled : Dim.t; redundant : Operand.t }
  | Three_nra of { resident : Operand.t }

let all_dataflows =
  List.map (fun stationary -> Single_nra { stationary }) Operand.all
  @ List.concat_map
      (fun untiled ->
        List.map (fun redundant -> Two_nra { untiled; redundant }) Operand.all)
      Dim.all
  @ List.map (fun resident -> Three_nra { resident }) Operand.all

let class_of = function
  | Single_nra _ -> Single
  | Two_nra _ -> Two
  | Three_nra _ -> Three

let pp_dataflow fmt = function
  | Single_nra { stationary } ->
    Format.fprintf fmt "Single-NRA(%s-stationary)" (Operand.stationary_name stationary)
  | Two_nra { untiled; redundant } ->
    Format.fprintf fmt "Two-NRA(untiled %a, redundant %a)" Dim.pp untiled Operand.pp
      redundant
  | Three_nra { resident } ->
    Format.fprintf fmt "Three-NRA(resident %a)" Operand.pp resident

let dataflow_to_string d = Format.asprintf "%a" pp_dataflow d

let classify op (s : Schedule.t) =
  let nra = Cost.nra_operands op s in
  let untiled_dims = List.filter (fun d -> Tiling.untiled op s.tiling d) Dim.all in
  match List.length nra with
  | 1 -> Single_nra { stationary = List.hd nra }
  | 2 -> begin
    let redundant =
      match List.filter (fun x -> not (List.mem x nra)) Operand.all with
      | [ r ] -> r
      | _ -> assert false
    in
    (* Prefer reporting an untiled dim of the redundant tensor's
       complement, falling back to any untiled dim; a Two-NRA schedule
       always has at least one. *)
    match untiled_dims with
    | d :: _ -> Two_nra { untiled = d; redundant }
    | [] ->
      (* Possible when a dimension has size 1 (trip count 1 without an
         explicit untiled choice); treat that dimension as untiled. *)
      let d =
        match List.filter (fun d -> Matmul.dim op d = 1) Dim.all with
        | d :: _ -> d
        | [] -> assert false
      in
      Two_nra { untiled = d; redundant }
  end
  | _ ->
    let resident =
      let fully op_t x =
        let d1, d2 = Operand.dims x in
        Tiling.untiled op op_t d1 && Tiling.untiled op op_t d2
      in
      let candidates = List.filter (fully s.tiling) Operand.all in
      let by_size =
        List.stable_sort
          (fun a b -> compare (Matmul.operand_size op a) (Matmul.operand_size op b))
          candidates
      in
      match by_size with
      | x :: _ -> x
      | [] -> fst (Matmul.min_operand op)
    in
    Three_nra { resident }
