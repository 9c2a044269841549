open Fusecu_tensor
open Fusecu_loopnest

(* Lowerings of the tensor operators into projective nests. Axis order
   is part of each contract: test_nest.ml locks the MM instance
   bit-for-bit against the legacy Tiling/Order/Cost stack via
   [dim_axis]/[schedule_of_mm]. *)

let of_matmul (mm : Matmul.t) =
  Nest.make ~name:mm.Matmul.name ~axes:[| "m"; "k"; "l" |]
    ~extents:[| mm.Matmul.m; mm.Matmul.k; mm.Matmul.l |]
    ~tensors:
      [
        Nest.tensor "A" [ Nest.Point 0; Nest.Point 1 ];
        Nest.tensor "B" [ Nest.Point 1; Nest.Point 2 ];
        Nest.tensor "C" [ Nest.Point 0; Nest.Point 2 ];
      ]

let dim_axis = function Dim.M -> 0 | Dim.K -> 1 | Dim.L -> 2

let schedule_of_mm nest ~tiling ~order =
  let tiles =
    Array.of_list
      (List.map (fun d -> Tiling.get tiling d) [ Dim.M; Dim.K; Dim.L ])
  in
  let order = Array.of_list (List.map dim_axis (Order.dims order)) in
  Nest.schedule_make nest ~tiles ~order

let of_chain chain =
  let ops = Chain.ops chain in
  let n = List.length ops in
  let first = List.hd ops in
  let m = first.Matmul.m in
  (* inner dims d0..dn: d0 = first.k, then each op's l *)
  let ds = first.Matmul.k :: List.map (fun (op : Matmul.t) -> op.Matmul.l) ops in
  let axes =
    Array.of_list ("m" :: List.mapi (fun i _ -> Printf.sprintf "d%d" i) ds)
  in
  let extents = Array.of_list (m :: ds) in
  let weights =
    List.mapi
      (fun i (op : Matmul.t) ->
        Nest.tensor
          (Printf.sprintf "W%d[%s]" i op.Matmul.name)
          [ Nest.Point (i + 1); Nest.Point (i + 2) ])
      ops
  in
  let outs =
    List.mapi
      (fun i _ ->
        Nest.tensor
          ~internal:(i < n - 1)
          (Printf.sprintf "C%d" i)
          [ Nest.Point 0; Nest.Point (i + 2) ])
      ops
  in
  Nest.make
    ~name:(Printf.sprintf "chain%d[%s]" n first.Matmul.name)
    ~axes ~extents
    ~tensors:((Nest.tensor "A" [ Nest.Point 0; Nest.Point 1 ] :: weights) @ outs)

let of_conv (cv : Conv.t) =
  let p = Conv.output_height cv and q = Conv.output_width cv in
  let window ~outer ~kernel =
    Nest.Window
      { outer; kernel; stride = cv.Conv.stride; dilation = cv.Conv.dilation }
  in
  Nest.make ~name:cv.Conv.name
    ~axes:[| "n"; "ko"; "oh"; "ow"; "c"; "r"; "s" |]
    ~extents:[| cv.Conv.n; cv.Conv.k; p; q; cv.Conv.c; cv.Conv.r; cv.Conv.s |]
    ~tensors:
      [
        (* padded input activation: the window spans reach
           (p-1)*stride + (r-1)*dilation + 1 <= h + 2*padding rows *)
        Nest.tensor "In"
          [
            Nest.Point 0;
            Nest.Point 4;
            window ~outer:2 ~kernel:5;
            window ~outer:3 ~kernel:6;
          ];
        Nest.tensor "W"
          [ Nest.Point 1; Nest.Point 4; Nest.Point 5; Nest.Point 6 ];
        Nest.tensor "Out"
          [ Nest.Point 0; Nest.Point 1; Nest.Point 2; Nest.Point 3 ];
      ]

let of_conv_im2col cv = of_matmul (Conv.to_matmul cv)

let batched_mm ?(name = "bmm") ~b ~m ~k ~l () =
  if b < 1 || m < 1 || k < 1 || l < 1 then
    invalid_arg "Lower.batched_mm: extents must be >= 1";
  Nest.make ~name
    ~axes:[| "b"; "m"; "k"; "l" |]
    ~extents:[| b; m; k; l |]
    ~tensors:
      [
        Nest.tensor "A" [ Nest.Point 0; Nest.Point 1; Nest.Point 2 ];
        Nest.tensor "B" [ Nest.Point 0; Nest.Point 2; Nest.Point 3 ];
        Nest.tensor "C" [ Nest.Point 0; Nest.Point 1; Nest.Point 3 ];
      ]

let grouped_mm ?(name = "gmm") ~groups ~heads ~m ~k ~l () =
  if groups < 1 || heads < 1 || m < 1 || k < 1 || l < 1 then
    invalid_arg "Lower.grouped_mm: extents must be >= 1";
  Nest.make ~name
    ~axes:[| "g"; "h"; "m"; "k"; "l" |]
    ~extents:[| groups; heads; m; k; l |]
    ~tensors:
      [
        Nest.tensor "A"
          [ Nest.Point 0; Nest.Point 1; Nest.Point 2; Nest.Point 3 ];
        (* the GQA sharing pattern: one B per group, free in the head
           axis *)
        Nest.tensor "B" [ Nest.Point 0; Nest.Point 3; Nest.Point 4 ];
        Nest.tensor "C"
          [ Nest.Point 0; Nest.Point 1; Nest.Point 2; Nest.Point 4 ];
      ]

let attention_pair ?(name = "attn") ?dv ~seq_q ~seq_k ~d () =
  let dv = Option.value dv ~default:d in
  if seq_q < 1 || seq_k < 1 || d < 1 || dv < 1 then
    invalid_arg "Lower.attention_pair: extents must be >= 1";
  Nest.make ~name
    ~axes:[| "m"; "n"; "d"; "e" |]
    ~extents:[| seq_q; seq_k; d; dv |]
    ~tensors:
      [
        Nest.tensor "Q" [ Nest.Point 0; Nest.Point 2 ];
        Nest.tensor "K" [ Nest.Point 1; Nest.Point 2 ];
        Nest.tensor "V" [ Nest.Point 1; Nest.Point 3 ];
        Nest.tensor ~internal:true "S" [ Nest.Point 0; Nest.Point 1 ];
        Nest.tensor "O" [ Nest.Point 0; Nest.Point 3 ];
      ]

type kind =
  | N_matmul of { m : int; k : int; l : int }
  | N_conv2d of Conv.t
  | N_batched_mm of { b : int; m : int; k : int; l : int }
  | N_grouped_mm of { groups : int; heads : int; m : int; k : int; l : int }
  | N_attention of { seq_q : int; seq_k : int; d : int; dv : int }

let of_kind = function
  | N_matmul { m; k; l } -> of_matmul (Matmul.make ~name:"nest" ~m ~k ~l ())
  | N_conv2d cv -> of_conv cv
  | N_batched_mm { b; m; k; l } -> batched_mm ~b ~m ~k ~l ()
  | N_grouped_mm { groups; heads; m; k; l } -> grouped_mm ~groups ~heads ~m ~k ~l ()
  | N_attention { seq_q; seq_k; d; dv } -> attention_pair ~seq_q ~seq_k ~d ~dv ()
