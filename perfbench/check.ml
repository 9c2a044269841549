(* Correctness of the server's answers, checked against sources that do
   not share its code path:

   - every response that reports traffic must be at or above its
     communication lower bound, and the ratio feeds [traffic_over_bound];
   - a seeded sample is recomputed by exhaustive search (intra, fuse,
     nest) and must match exactly. *)

open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
open Fusecu_util
open Fusecu_service
module Nest = Fusecu_nest.Nest
module Lower = Fusecu_nest.Lower
module Search = Fusecu_nest.Search

let int_field name j =
  match Option.map Json.to_int (Json.member name j) with Some (Ok n) -> Some n | _ -> None

(* The [result] object of a success line, or why there is none. *)
let result_of line =
  match Json.parse line with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok j -> (
    match (Json.member "ok" j, Json.member "result" j) with
    | Some (Json.Bool true), Some r -> Ok r
    | _ -> Error ("error reply: " ^ line))

let nest_of = function
  | Protocol.N_matmul { m; k; l } -> Lower.of_matmul (Matmul.make ~m ~k ~l ())
  | Protocol.N_conv2d cv -> Lower.of_conv cv
  | Protocol.N_batched_mm { b; m; k; l } -> Lower.batched_mm ~b ~m ~k ~l ()
  | Protocol.N_grouped_mm { groups; heads; m; k; l } -> Lower.grouped_mm ~groups ~heads ~m ~k ~l ()
  | Protocol.N_attention { seq_q; seq_k; d; dv } -> Lower.attention_pair ~seq_q ~seq_k ~d ~dv ()

let pair op l2 = Fused.make_pair_exn op (Matmul.make ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 ())

(* Reported traffic and its lower bound. *)
let traffic_and_bound call r =
  match call with
  | Protocol.Intra { op; _ } -> Option.map (fun t -> (t, Lower_bound.intra op)) (int_field "ma" r)
  | Protocol.Fuse { op; l2; _ } ->
    let p = pair op l2 in
    Option.map
      (fun t -> (t, Lower_bound.chain_fused (Chain.make_exn [ p.Fused.op1; p.Fused.op2 ])))
      (int_field "traffic" r)
  | Protocol.Chain { m; ks; _ } ->
    Option.map (fun t -> (t, Lower_bound.chain_fused (Chain.of_dims ~m ks))) (int_field "traffic" r)
  | Protocol.Nest _ -> (
    match (int_field "traffic" r, int_field "ideal" r) with
    | Some t, Some i -> Some (t, i)
    | _ -> None)
  | Protocol.Regime _ | Protocol.Eval _ | Protocol.Plan_model _ -> None

let lattice = function Mode.Pow2 -> Fusecu_dse.Space.Pow2 | Mode.Exact | Mode.Divisors -> Fusecu_dse.Space.Divisors

let nest_lattice = function
  | Mode.Exact -> Search.All
  | Mode.Divisors -> Search.Divisors
  | Mode.Pow2 -> Search.Pow2

let exhaustive_intra op buffer mode =
  Option.map
    (fun r -> r.Fusecu_dse.Exhaustive.cost.Cost.total)
    (Fusecu_dse.Exhaustive.search ~lattice:(lattice mode) ~pool:Pool.sequential op buffer)

let expect what ~got ~want =
  if got = want then Ok () else Error (Printf.sprintf "%s: server %d, reference %d" what got want)

(* The expensive reference check of one answer; [None] when no
   independent reference applies to this call. *)
let reference call r =
  let ( let* ) = Option.bind in
  match call with
  | Protocol.Intra { op; buffer; mode } when mode <> Mode.Exact ->
    let* got = int_field "ma" r in
    let* want = exhaustive_intra op buffer mode in
    Some (expect "intra vs exhaustive" ~got ~want)
  | Protocol.Fuse { op; l2; buffer; mode } when mode <> Mode.Exact -> (
    let* got = int_field "traffic" r in
    let p = pair op l2 in
    match Json.member "fuse" r with
    | Some (Json.Bool true) ->
      let* f = Fusecu_dse.Fused_search.exhaustive ~lattice:(lattice mode) ~pool:Pool.sequential p buffer in
      Some (expect "fused vs exhaustive" ~got ~want:f.Fusecu_dse.Fused_search.traffic)
    | _ ->
      let* a = exhaustive_intra p.Fused.op1 buffer mode in
      let* b = exhaustive_intra p.Fused.op2 buffer mode in
      Some (expect "unfused vs exhaustive" ~got ~want:(a + b)))
  | Protocol.Nest { kind; buffer; mode } ->
    let* got = int_field "traffic" r in
    let nest = nest_of kind in
    let* e = Search.exhaustive ~lattice:(nest_lattice mode) nest ~capacity:(Buffer.elements buffer) in
    let ideal = Fusecu_nest.Bound.ideal nest in
    Some
      (if got < ideal then Error (Printf.sprintf "nest traffic %d below Bound.ideal %d" got ideal)
       else expect "nest vs exhaustive" ~got ~want:e.Search.cost.Nest.total)
  | _ -> None

(* How many reference checks a run makes, by op: exhaustive search costs
   10 ms (intra) to 300 ms (fuse), so the sample is small and fixed per
   run. *)
let quota = function "intra" -> 24 | "fuse" -> 6 | "nest" -> 8 | _ -> 0

(* Largest nest the sample may pick, in schedules the server reported
   evaluating: keeps the exhaustive reference under ~50 ms per check. *)
let nest_sample_cap = 40_000

type outcome = {
  failures : (int * string) list;  (** request index, reason *)
  ratios : float list;  (** traffic / bound of every answer that has both *)
  references : int;  (** reference checks made *)
}

(* [calls.(i)] is request [i] parsed; [replies.(i)] its closed-loop
   answer. *)
let run ~seed calls replies =
  let failures = ref [] and ratios = ref [] and eligible = ref [] in
  Array.iteri
    (fun i call ->
      match (call, replies.(i)) with
      | Some call, Some line -> (
        match result_of line with
        | Error e -> failures := (i, e) :: !failures
        | Ok r ->
          (match traffic_and_bound call r with
          | Some (t, b) when t < b ->
            failures := (i, Printf.sprintf "traffic %d below lower bound %d" t b) :: !failures
          | Some (t, b) when b > 0 -> ratios := (float_of_int t /. float_of_int b) :: !ratios
          | _ -> ());
          let small =
            match (call, int_field "evaluated" r) with
            | Protocol.Nest _, Some e -> e <= nest_sample_cap
            | _ -> true
          in
          if quota (Protocol.op_name call) > 0 && small then eligible := (i, call) :: !eligible)
      | _ -> ())
    calls;
  (* the seeded sample: up to [quota op] distinct canonical problems *)
  let pool = Array.of_list (List.rev !eligible) in
  Gen.shuffle (Fusecu_oracle.Rng.make (seed lxor 0x5eed)) pool;
  let taken = Hashtbl.create 8 and seen = Hashtbl.create 64 and references = ref 0 in
  Array.iter
    (fun (i, call) ->
      let op = Protocol.op_name call in
      let key = Protocol.cache_key (fst (Protocol.canonicalize call)) in
      let n = Option.value ~default:0 (Hashtbl.find_opt taken op) in
      if n < quota op && not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        (* eligible replies parsed as results in the first scan *)
        let r = Result.get_ok (result_of (Option.get replies.(i))) in
        match reference call r with
        | None -> ()
        | Some verdict -> (
          Hashtbl.replace taken op (n + 1);
          incr references;
          match verdict with Ok () -> () | Error e -> failures := (i, e) :: !failures)
      end)
    pool;
  { failures = List.rev !failures; ratios = !ratios; references = !references }
