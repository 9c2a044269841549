let bert = Model.make ~name:"Bert" ~heads:12 ~seq:1024 ~hidden:768 ()

let gpt2 = Model.make ~name:"GPT-2" ~heads:12 ~seq:2048 ~hidden:768 ()

let blenderbot = Model.make ~name:"Blenderbot" ~heads:16 ~seq:256 ~hidden:1024 ()

let xlm = Model.make ~name:"XLM" ~heads:16 ~seq:1024 ~hidden:2048 ()

let deberta_v2 = Model.make ~name:"DeBERTa-v2" ~heads:24 ~seq:1024 ~hidden:1536 ()

let llama2 = Model.make ~name:"LLaMA2" ~heads:32 ~seq:4096 ~hidden:4096 ()

let albert = Model.make ~name:"ALBERT" ~heads:64 ~seq:1024 ~hidden:4096 ()

let llama2_70b_gqa =
  Model.make ~name:"LLaMA2-70B" ~heads:64 ~kv_heads:8 ~seq:4096 ~hidden:8192 ()

let all = [ bert; gpt2; blenderbot; xlm; deberta_v2; llama2; albert ]

let find name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun (m : Model.t) -> String.lowercase_ascii m.name = target)
    all

(* Beyond-matmul cases priced through the projective nest IR. Shapes
   are scaled-down but structurally faithful (ResNet-style conv
   blocks, per-head attention batches, LLaMA2-70B's 8-group GQA, one
   flash-style fused score x value pair); sized so the Divisors-lattice
   exhaustive ground truth stays enumerable in benches and tests. *)
let nest_cases =
  let open Fusecu_nest in
  let conv = Fusecu_tensor.Conv.make in
  [ ("conv3x3", Lower.of_conv (conv ~n:1 ~c:16 ~h:14 ~w:14 ~k:16 ~r:3 ~s:3 ()));
    ("conv3x3-strided",
     Lower.of_conv
       (conv ~stride:2 ~padding:1 ~n:1 ~c:8 ~h:14 ~w:14 ~k:16 ~r:3 ~s:3 ()));
    ("conv1x1", Lower.of_conv (conv ~n:1 ~c:64 ~h:7 ~w:7 ~k:16 ~r:1 ~s:1 ()));
    ("bmm-heads", Lower.batched_mm ~name:"bmm-heads" ~b:12 ~m:64 ~k:64 ~l:64 ());
    ("gqa-scores",
     Lower.grouped_mm ~name:"gqa-scores" ~groups:8 ~heads:8 ~m:64 ~k:64 ~l:64 ());
    ("attn-pair",
     Lower.attention_pair ~name:"attn-pair" ~seq_q:64 ~seq_k:64 ~d:64 ()) ]
