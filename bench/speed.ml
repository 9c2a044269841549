(* Optimizer wall-clock comparison, the paper's motivating claim:
   search-based DSE is time-consuming, the principles are one-shot.
   [run] prints a Bechamel table of the principle optimizers against
   their searched baselines, of every searched hot path of the DSE
   engine (exhaustive search, per-class search, buffer sweep, fused
   search, workload eval) on one domain and on the full pool, and of
   single [Nest_bnb] searches on two convs and two matmul-class nests. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_dse
open Bechamel
open Toolkit
module Pool = Fusecu_util.Pool

let bert = Matmul.make ~name:"bert-proj" ~m:1024 ~k:768 ~l:768 ()

let buf = Buffer.of_kib 512

let attention_pair =
  Fused.make_pair_exn
    (Matmul.make ~name:"qk" ~m:1024 ~k:64 ~l:1024 ())
    (Matmul.make ~name:"sv" ~m:1024 ~k:1024 ~l:64 ())

(* The DSE engine tasks on the paper fixtures, parameterized by pool so
   each runs both ways. *)
let engine_tasks () =
  let workload = Fusecu_workloads.Workload.of_model Fusecu_workloads.Zoo.bert in
  let sweep_bytes =
    Buffer_sweep.geometric ~from_bytes:(32 * 1024) ~to_bytes:(8 * 1024 * 1024)
      ~steps_per_octave:2 ()
  in
  [ ("exhaustive-search", fun ~pool -> ignore (Exhaustive.search ~pool bert buf));
    ("best-per-class", fun ~pool -> ignore (Exhaustive.best_per_class ~pool bert buf));
    ( "buffer-sweep",
      fun ~pool -> ignore (Buffer_sweep.run ~pool bert ~bytes:sweep_bytes) );
    ( "fused-search",
      fun ~pool ->
        ignore (Fused_search.exhaustive ~pool attention_pair (Buffer.of_kib 64)) );
    ( "workload-eval",
      fun ~pool ->
        ignore
          (Fusecu_arch.Perf.eval_workload ~pool Fusecu_arch.Platform.fusecu buf
             workload) ) ]

(* Single nest searches, as a [nest] miss runs them: the zoo conv3x3
   at 1,024 elements, a ResNet-style 3x3 conv at 64 KB, and a matmul
   and a batched matmul of [nest_miss]'s sizes, the kinds most of its
   requests are. The order tables are shared by the process, so after
   Bechamel's first run they are warm, as on a server. *)
let nest_searches =
  let module L = Fusecu_nest.Lower in
  let resnet = L.of_conv (Conv.make ~n:4 ~c:64 ~h:56 ~w:56 ~k:64 ~r:3 ~s:3 ()) in
  [ ( "nest-bnb/zoo-conv3x3 (1024 elements)",
      List.assoc "conv3x3" Fusecu_workloads.Zoo.nest_cases,
      Buffer.make 1024 );
    ("nest-bnb/resnet-3x3 (64 KB)", resnet, Buffer.of_kib 64);
    ( "nest-bnb/matmul 240x176x208 (2 KB)",
      L.of_kind (L.N_matmul { m = 240; k = 176; l = 208 }),
      Buffer.of_kib 2 );
    ( "nest-bnb/batched_mm 8x96x80x64 (1 KB)",
      L.of_kind (L.N_batched_mm { b = 8; m = 96; k = 80; l = 64 }),
      Buffer.of_kib 1 ) ]

let pp_time ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Bechamel table: principles vs searched baselines, seq vs par        *)

(* A function, not a value: it starts the global pool's domains, and
   the fork-based drills ([--store-smoke] and friends) abort once any
   domain exists. *)
let tests () =
  let engine =
    List.concat_map
      (fun (name, run) ->
        [ Test.make
            ~name:(name ^ " (1 domain)")
            (Staged.stage (fun () -> run ~pool:Pool.sequential));
          Test.make
            ~name:
              (Printf.sprintf "%s (%d domains)" name
                 (Pool.size (Pool.get_global ())))
            (Staged.stage (fun () -> run ~pool:(Pool.get_global ()))) ])
      (engine_tasks ())
  in
  let nest =
    List.map
      (fun (name, nest, buf) ->
        Test.make ~name (Staged.stage (fun () -> ignore (Nest_bnb.search nest buf))))
      nest_searches
  in
  Test.make_grouped ~name:"optimizers"
    ([ Test.make ~name:"intra/principles (one-shot)"
         (Staged.stage (fun () -> ignore (Intra.optimize bert buf : _ result)));
       Test.make ~name:"intra/genetic-DSE (DAT proxy)"
         (Staged.stage (fun () ->
              ignore (Genetic.search bert buf : Exhaustive.result option)));
       Test.make ~name:"fusion/principles (one-shot)"
         (Staged.stage (fun () ->
              ignore (Fusion.plan_pair attention_pair buf : _ result)));
       Test.make ~name:"fusion/genetic-DSE (DAT proxy)"
         (Staged.stage (fun () ->
              ignore
                (Fused_search.genetic attention_pair buf
                  : Fused_search.result option))) ]
    @ engine @ nest)

let run () =
  Printf.printf "\n=== Optimizer timing (Bechamel) ===\n\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !rows in
  let t = Fusecu_util.Table.create [ "Optimizer"; "time/run"; "vs fastest" ] in
  let fastest = match sorted with (_, ns) :: _ -> ns | [] -> 1. in
  let t =
    Fusecu_util.Table.add_rows t
      (List.map
         (fun (name, ns) ->
           [ name; pp_time ns; Printf.sprintf "%.0fx" (ns /. fastest) ])
         sorted)
  in
  Fusecu_util.Table.print t;
  Printf.printf
    "\nThe principle-based optimizer is one-shot; the searched baselines\n\
     evaluate thousands of schedules (the paper's motivation). The\n\
     \"(N domains)\" rows run the same search on the domain pool\n\
     (FUSECU_DOMAINS overrides the size).\n"
