type t = {
  name : string;
  n : int;
  c : int;
  h : int;
  w : int;
  k : int;
  r : int;
  s : int;
  stride : int;
  padding : int;
  dilation : int;
}

let effective_r t = ((t.r - 1) * t.dilation) + 1

let effective_s t = ((t.s - 1) * t.dilation) + 1

let output_height t = ((t.h + (2 * t.padding) - effective_r t) / t.stride) + 1

let output_width t = ((t.w + (2 * t.padding) - effective_s t) / t.stride) + 1

let validate ?(name = "conv") ?(stride = 1) ?(padding = 0) ?(dilation = 1) ~n
    ~c ~h ~w ~k ~r ~s () =
  if n < 1 || c < 1 || h < 1 || w < 1 || k < 1 || r < 1 || s < 1 then
    Error "extents must be >= 1"
  else if stride < 1 then Error "stride must be >= 1"
  else if padding < 0 then Error "padding must be >= 0"
  else if dilation < 1 then Error "dilation must be >= 1"
  else begin
    let t = { name; n; c; h; w; k; r; s; stride; padding; dilation } in
    (* OCaml integer division truncates toward zero, so a dilated
       kernel overflowing the padded input would silently yield
       output_height = (negative)/stride + 1 = 1 for small overflows
       instead of going non-positive — check the span, not the
       quotient. Spans are compared saturated, so once both pass,
       [output_height]/[output_width] cannot overflow. *)
    let padded x = Fusecu_util.Arith.(add_sat x (mul_sat 2 padding)) in
    let span taps = Fusecu_util.Arith.(add_sat (mul_sat (taps - 1) dilation) 1) in
    if padded h = max_int || padded w = max_int then
      Error "padded input exceeds the integer range"
    else if span r > padded h || span s > padded w
    then Error "kernel larger than the padded input"
    else if output_height t < 1 || output_width t < 1 then
      Error "output has no positions"
    else Ok t
  end

let make ?name ?stride ?padding ?dilation ~n ~c ~h ~w ~k ~r ~s () =
  match validate ?name ?stride ?padding ?dilation ~n ~c ~h ~w ~k ~r ~s () with
  | Ok t -> t
  | Error e -> invalid_arg ("Conv.make: " ^ e)

let to_matmul t =
  Matmul.make ~name:(t.name ^ ".im2col")
    ~m:(t.n * output_height t * output_width t)
    ~k:(t.c * t.r * t.s)
    ~l:t.k ()

let macs t = Matmul.macs (to_matmul t)

let input_elements t = t.n * t.c * t.h * t.w

let im2col_inflation t =
  let lowered = t.n * output_height t * output_width t * (t.c * t.r * t.s) in
  float_of_int lowered /. float_of_int (input_elements t)

let pp fmt t =
  Format.fprintf fmt "%s: n=%d c=%d %dx%d -> k=%d %dx%d kernel stride=%d pad=%d"
    t.name t.n t.c t.h t.w t.k t.r t.s t.stride t.padding;
  if t.dilation <> 1 then Format.fprintf fmt " dil=%d" t.dilation
