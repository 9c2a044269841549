open Fusecu_tensor

let intra = Matmul.ideal_ma

let chain_unfused = Chain.ideal_ma_unfused

let chain_fused = Chain.ideal_ma_fused

let achieved op buf mode = Intra.ma (Intra.optimize_exn ~mode op buf)

let redundancy op buf mode =
  float_of_int (achieved op buf mode) /. float_of_int (intra op)
