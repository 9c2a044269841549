open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_workloads
open Fusecu_planner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let node ?(count = 1) ?(m = 4) ?(k = 4) ?(l = 4) id name deps =
  { Graph.id;
    name;
    work = Graph.Op { op = Matmul.make ~m ~k ~l (); count };
    deps }

let graph nodes =
  match Graph.make nodes with Ok g -> g | Error e -> Alcotest.fail e

let edge_pairs (p : Partition.t) =
  List.map
    (fun (e : Partition.edge) -> (e.Partition.src, e.Partition.dst))
    p.Partition.selected

let plan_exn ?overlap ?evaluator g buf =
  match Partition.plan ?overlap ?evaluator g buf with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Overlap arithmetic                                                  *)

let test_overlap () =
  let c = Overlap.default in
  check_int "slack" 10 (Overlap.slack c ~macs:800 ~traffic:40);
  check_int "slack clamped" 0 (Overlap.slack c ~macs:160 ~traffic:40);
  check_int "hidden capped by spill" 5
    (Overlap.hidden c ~macs:800 ~traffic:40 ~spill:5);
  check_int "hidden capped by slack" 10
    (Overlap.hidden c ~macs:800 ~traffic:40 ~spill:99);
  check_int "disabled" 0
    (Overlap.hidden Overlap.disabled ~macs:1_000_000 ~traffic:0 ~spill:99)

(* ------------------------------------------------------------------ *)
(* Group primitives                                                    *)

let test_group () =
  let g = Graph.stack (Graph.of_model Zoo.bert) ~layers:1 in
  let wo = Graph.find g 4 and ffn = Graph.find g 5 and att = Graph.find g 3 in
  check_bool "wo -> ffn chainable" true (Group.chainable wo ffn);
  check_bool "attention count blocks" false (Group.chainable att wo);
  check_int "ffn ops" 2 (List.length (Group.ops ffn));
  (match Group.merged [ wo; ffn ] with
  | Ok chain -> check_int "merged ops" 3 (List.length (Chain.ops chain))
  | Error e -> Alcotest.fail e);
  check_bool "merged rejects bad link" true
    (Result.is_error (Group.merged [ att; wo ]))

(* ------------------------------------------------------------------ *)
(* BERT end-to-end                                                     *)

let test_bert_fuses_at_large_buffer () =
  let g = Graph.stack (Graph.of_model Zoo.bert) ~layers:1 in
  let p = plan_exn g (Buffer.make (8 * 1024 * 1024)) in
  Alcotest.(check (list (pair int int))) "wo -> ffn" [ (4, 5) ] (edge_pairs p);
  check_int "five groups" 5 (List.length p.Partition.groups);
  check_bool "beats unfused" true
    (p.Partition.effective < p.Partition.unfused_effective)

let test_bert_overlap_declines_marginal_fusion () =
  let g = Graph.stack (Graph.of_model Zoo.bert) ~layers:1 in
  let buf = Buffer.make (512 * 1024) in
  (* with the double-buffering credit on, the split's two hidden
     boundary spills outweigh the ~4.5M raw saving of merging wo+ffn *)
  let p = plan_exn g buf in
  Alcotest.(check (list (pair int int))) "no fusion" [] (edge_pairs p);
  (* credit off: raw traffic is all that counts, so the merge wins *)
  let p' = plan_exn ~overlap:Overlap.disabled g buf in
  Alcotest.(check (list (pair int int))) "fusion" [ (4, 5) ] (edge_pairs p')

let agree_with_exhaustive ?overlap ?evaluator g buf =
  let p = plan_exn ?overlap ?evaluator g buf in
  match Partition.exhaustive ?overlap ?evaluator g buf with
  | Error e -> Alcotest.fail e
  | Ok ex ->
    let b = ex.Partition.best in
    check_int "effective" b.Partition.effective p.Partition.effective;
    check_int "traffic" b.Partition.traffic p.Partition.traffic;
    Alcotest.(check (list (pair int int)))
      "selection" (edge_pairs b) (edge_pairs p);
    p

let stacked model layers = Graph.stack (Graph.of_model model) ~layers

let test_bert_matches_exhaustive () =
  List.iter
    (fun (model, layers, bytes) ->
      ignore (agree_with_exhaustive (stacked model layers) (Buffer.make bytes)))
    [ (Zoo.bert, 1, 512 * 1024);
      (Zoo.bert, 2, 512 * 1024);
      (Zoo.bert, 1, 8 * 1024 * 1024);
      (Zoo.bert, 2, 8 * 1024 * 1024);
      (Zoo.bert, 4, 8 * 1024 * 1024);
      (Zoo.llama2, 1, 2 * 1024 * 1024);
      (Zoo.llama2, 2, 2 * 1024 * 1024) ]

(* The partitioner's work and result on the model fixtures, pinned: a
   change that keeps every cost but moves a count has changed the
   search, and with it [plan_model]'s wire [search] object; one that
   picks another of two equal-cost edges has changed the plan. *)
let model_pins =
  [ (* model, layers, buffer, groups, fused edges, candidate edges,
       dp_states, bnb_nodes, exhaustive partitions, traffic, effective,
       unfused effective *)
    (Zoo.bert, 1, 512 * 1024, 6, [], 1, 3, 0, 2, 455344128, 379846656, 379846656);
    (Zoo.bert, 1, 8 * 1024 * 1024, 5, [ (4, 5) ], 1, 3, 0, 2, 158072832, 95158272,
     107741184);
    (Zoo.bert, 2, 512 * 1024, 12, [], 5, 3, 21, 32, 910688256, 759693312, 759693312);
    (Zoo.bert, 2, 8 * 1024 * 1024, 9, [ (4, 5); (5, 8); (10, 11) ], 5, 3, 21, 32,
     303562752, 177733632, 215482368);
    (Zoo.bert, 4, 8 * 1024 * 1024, 17,
     [ (4, 5); (5, 8); (10, 11); (11, 14); (16, 17); (17, 20); (22, 23) ], 13, 3, 63,
     8192, 594542592, 342884352, 430964736);
    (Zoo.llama2, 1, 2 * 1024 * 1024, 6, [], 1, 3, 0, 2, 26910654464, 25300041728,
     25300041728);
    (Zoo.llama2, 2, 2 * 1024 * 1024, 12, [], 5, 3, 21, 32, 53821308928, 50600083456,
     50600083456) ]

let test_model_fixtures_pinned () =
  List.iter
    (fun (model, layers, bytes, groups, fused, candidates, dp_states, bnb_nodes,
          partitions, traffic, effective, unfused_effective) ->
      let g = stacked model layers and buf = Buffer.make bytes in
      let tag = Printf.sprintf "%s/%d/%d" model.Model.name layers bytes in
      let p = plan_exn g buf in
      let s = p.Partition.stats in
      check_int (tag ^ " groups") groups (List.length p.Partition.groups);
      Alcotest.(check (list (pair int int))) (tag ^ " fused edges") fused (edge_pairs p);
      check_int (tag ^ " candidate edges") candidates s.Partition.candidate_edges;
      check_int (tag ^ " dp_states") dp_states s.Partition.dp_states;
      check_int (tag ^ " bnb_nodes") bnb_nodes s.Partition.bnb_nodes;
      check_int (tag ^ " traffic") traffic p.Partition.traffic;
      check_int (tag ^ " effective") effective p.Partition.effective;
      check_int (tag ^ " unfused effective") unfused_effective
        p.Partition.unfused_effective;
      match Partition.exhaustive g buf with
      | Ok ex -> check_int (tag ^ " exhaustive partitions") partitions ex.Partition.partitions
      | Error e -> Alcotest.fail e)
    model_pins

(* ------------------------------------------------------------------ *)
(* Search structure                                                    *)

let test_pure_chain_uses_dp () =
  (* a -> b -> c with no other consumers: a clean run, solved by the
     DP with no branch-and-bound at all *)
  let g =
    graph [ node 0 "a" []; node 1 "b" [ 0 ]; node 2 "c" [ 1 ] ]
  in
  let p = agree_with_exhaustive g (Buffer.make 64) in
  let s = p.Partition.stats in
  check_bool "dp ran" true (s.Partition.dp_states > 0);
  check_int "no b&b" 0 s.Partition.bnb_nodes

let test_branchy_uses_bnb () =
  (* ffn -> {wq', wk', wv'} style branch: not a clean run *)
  let g =
    graph
      [ node 0 "a" []; node 1 "b" [ 0 ]; node 2 "c" [ 0 ]; node 3 "d" [ 0 ] ]
  in
  let p = agree_with_exhaustive g (Buffer.make 64) in
  check_bool "b&b ran" true (p.Partition.stats.Partition.bnb_nodes > 0)

let test_contracted_cycle_rejected () =
  (* the only candidate edge is the shortcut a -> b, but c sits between
     them (a -> c -> b, with counts that block fusing through c):
     merging {a, b} would contract to a cycle through c, so even an
     evaluator that prices merged groups at zero must keep every node
     solo *)
  let g =
    graph
      [ node 0 "a" []; node ~count:2 1 "c" [ 0 ]; node 2 "b" [ 0; 1 ] ]
  in
  let evaluator chain =
    Ok (if List.length (Chain.ops chain) > 1 then 0 else 10)
  in
  let p = plan_exn ~overlap:Overlap.disabled ~evaluator g (Buffer.make 64) in
  check_int "one candidate edge" 1 p.Partition.stats.Partition.candidate_edges;
  Alcotest.(check (list (pair int int))) "shortcut rejected" [] (edge_pairs p);
  check_int "all solo" 3 (List.length p.Partition.groups);
  ignore
    (agree_with_exhaustive ~overlap:Overlap.disabled ~evaluator g
       (Buffer.make 64))

let test_tie_break_prefers_unfused () =
  (* evaluator priced so that fusing is exactly cost-neutral: the
     deterministic tie-break must keep the all-singleton partition *)
  let g = graph [ node 0 "a" []; node 1 "b" [ 0 ] ] in
  let evaluator chain = Ok (10 * List.length (Chain.ops chain)) in
  let p = plan_exn ~overlap:Overlap.disabled ~evaluator g (Buffer.make 64) in
  Alcotest.(check (list (pair int int))) "no fusion on a tie" [] (edge_pairs p);
  check_int "two groups" 2 (List.length p.Partition.groups);
  ignore
    (agree_with_exhaustive ~overlap:Overlap.disabled ~evaluator g
       (Buffer.make 64))

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

let test_infeasible_buffer () =
  let g = graph [ node 0 "a" [] ] in
  check_bool "plan refuses" true
    (Result.is_error (Partition.plan g (Buffer.make 2)));
  check_bool "exhaustive refuses" true
    (Result.is_error (Partition.exhaustive g (Buffer.make 2)))

let test_evaluator_error_propagates () =
  let g = graph [ node 0 "a" [] ] in
  let evaluator _ = Error "boom" in
  match Partition.plan ~evaluator g (Buffer.make 64) with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
    Alcotest.(check string) "diagnostic" "node a infeasible: boom" e

(* ------------------------------------------------------------------ *)
(* Baseline consistency                                                *)

let test_unfused_baseline () =
  let g = Graph.stack (Graph.of_model Zoo.bert) ~layers:1 in
  let p = plan_exn g (Buffer.make (8 * 1024 * 1024)) in
  (* the baseline is the empty selection priced by the same machinery *)
  let solo =
    List.fold_left
      (fun acc (n : Graph.node) ->
        match Group.merged [ n ] with
        | Ok chain -> (
          match
            Partition.default_evaluator (Buffer.make (8 * 1024 * 1024)) chain
          with
          | Ok per -> acc + (Group.count n * per)
          | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail e)
      0 (Graph.nodes g)
  in
  check_int "unfused raw = sum of solo evals" solo p.Partition.unfused_traffic;
  check_bool "effective <= unfused" true
    (p.Partition.effective <= p.Partition.unfused_effective)

let () =
  Alcotest.run "planner"
    [ ( "overlap",
        [ Alcotest.test_case "slack and hidden" `Quick test_overlap ] );
      ( "group",
        [ Alcotest.test_case "chainability and merging" `Quick test_group ] );
      ( "bert",
        [ Alcotest.test_case "fuses at 8MB" `Quick
            test_bert_fuses_at_large_buffer;
          Alcotest.test_case "overlap declines marginal fusion" `Quick
            test_bert_overlap_declines_marginal_fusion;
          Alcotest.test_case "matches exhaustive" `Quick
            test_bert_matches_exhaustive;
          Alcotest.test_case "model fixtures pinned" `Quick
            test_model_fixtures_pinned;
          Alcotest.test_case "unfused baseline" `Quick test_unfused_baseline ] );
      ( "search",
        [ Alcotest.test_case "chains use the DP" `Quick test_pure_chain_uses_dp;
          Alcotest.test_case "branches use b&b" `Quick test_branchy_uses_bnb;
          Alcotest.test_case "contracted cycles rejected" `Quick
            test_contracted_cycle_rejected;
          Alcotest.test_case "cost ties stay unfused" `Quick
            test_tie_break_prefers_unfused ] );
      ( "errors",
        [ Alcotest.test_case "infeasible buffer" `Quick test_infeasible_buffer;
          Alcotest.test_case "evaluator errors propagate" `Quick
            test_evaluator_error_propagates ] ) ]
