open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
module Json = Fusecu_util.Json
module Units = Fusecu_util.Units
module Arith = Fusecu_util.Arith

(* [Buffer] is the on-chip buffer ([Fusecu_loopnest.Buffer]); replies
   and keys are written into a [Text]. *)
module Text = Stdlib.Buffer

let version = 1

type nest_kind = Fusecu_nest.Lower.kind =
  | N_matmul of { m : int; k : int; l : int }
  | N_conv2d of Conv.t
  | N_batched_mm of { b : int; m : int; k : int; l : int }
  | N_grouped_mm of { groups : int; heads : int; m : int; k : int; l : int }
  | N_attention of { seq_q : int; seq_k : int; d : int; dv : int }

type call =
  | Intra of { op : Matmul.t; buffer : Buffer.t; mode : Mode.t }
  | Fuse of { op : Matmul.t; l2 : int; buffer : Buffer.t; mode : Mode.t }
  | Regime of { op : Matmul.t; buffer : Buffer.t }
  | Eval of { model : string; buffer : Buffer.t; elt_bytes : int; mode : Mode.t }
  | Chain of { m : int; ks : int list; buffer : Buffer.t; mode : Mode.t }
  | Plan_model of {
      model : string;
      layers : int;
      buffer : Buffer.t;
      elt_bytes : int;
      mode : Mode.t;
    }
  | Nest of { kind : nest_kind; buffer : Buffer.t; mode : Mode.t }

type request =
  | Call of call
  | Stats
  | Metrics_req of { quiet : bool }
  | Shutdown

type error_code =
  | Parse_error
  | Bad_request
  | Unsupported_version
  | Unknown_op
  | Unknown_model
  | Infeasible

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Unknown_op -> "unknown_op"
  | Unknown_model -> "unknown_model"
  | Infeasible -> "infeasible"

type reject = { id : Json.t; code : error_code; message : string }

let op_name = function
  | Intra _ -> "intra"
  | Fuse _ -> "fuse"
  | Regime _ -> "regime"
  | Eval _ -> "eval"
  | Chain _ -> "chain"
  | Plan_model _ -> "plan_model"
  | Nest _ -> "nest"

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

let mode_of_string = function
  | "exact" -> Ok Mode.Exact
  | "divisors" -> Ok Mode.Divisors
  | "pow2" -> Ok Mode.Pow2
  | s -> Error (Printf.sprintf "unknown mode %S (exact, divisors or pow2)" s)

let mode_to_string = function
  | Mode.Exact -> "exact"
  | Mode.Divisors -> "divisors"
  | Mode.Pow2 -> "pow2"

(* Bad_request-producing field readers over the decoded object. *)
exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* The one integer-field reader: at least [lo], at most [hi] when given;
   [default] makes the field optional. *)
let int_field ?default ?(lo = 1) ?hi obj name =
  match Json.member name obj with
  | None -> (
    match default with
    | Some d -> d
    | None -> fail "missing required field %S" name)
  | Some (Json.Int n) -> (
    match hi with
    | Some hi when n < lo || n > hi ->
      fail "field %S must be in [%d, %d], got %d" name lo hi n
    | None when n < lo -> fail "field %S must be >= %d, got %d" name lo n
    | _ -> n)
  | Some v -> (
    match Json.to_int v with
    | Error e -> fail "field %S: %s" name e
    | Ok n -> n)

(* Names (models, nest kinds) match case-insensitively. *)
let lowercase_field obj name =
  match Json.member name obj with
  | None -> fail "missing required field %S" name
  | Some v -> (
    match Json.to_string_v v with
    | Ok s -> String.lowercase_ascii s
    | Error e -> fail "field %S: %s" name e)

let default_buffer_bytes = 512 * 1024

let buffer_field obj =
  let elt_bytes = int_field ~default:1 obj "elt_bytes" in
  let bytes =
    match Json.member "buffer" obj with
    | None -> default_buffer_bytes
    | Some (Json.Int n) when n >= 1 -> n
    | Some (Json.Int n) -> fail "field \"buffer\" must be >= 1 byte, got %d" n
    | Some (Json.String s) -> (
      match Units.parse_bytes s with
      | Ok n when n >= 1 -> n
      | Ok _ -> fail "field \"buffer\" must be at least one byte"
      | Error e -> fail "field \"buffer\": %s" e)
    | Some _ ->
      fail "field \"buffer\" must be an integer byte count or a size string"
  in
  (Buffer.make ~elt_bytes bytes, elt_bytes)

let mode_field obj =
  match Json.member "mode" obj with
  | None -> Mode.Divisors
  | Some v -> (
    match Json.to_string_v v with
    | Error e -> fail "field \"mode\": %s" e
    | Ok s -> (
      match mode_of_string s with Ok m -> m | Error e -> fail "%s" e))

let matmul_field obj =
  let m = int_field obj "m" in
  let k = int_field obj "k" in
  let l = int_field obj "l" in
  Matmul.make ~m ~k ~l ()

let ks_field obj =
  match Json.member "ks" obj with
  | None -> fail "missing required field %S" "ks"
  | Some v -> (
    match Json.to_list v with
    | Error e -> fail "field \"ks\": %s" e
    | Ok vs ->
      let ks =
        List.map
          (fun v ->
            match Json.to_int v with
            | Ok n when n >= 1 -> n
            | Ok n -> fail "field \"ks\": entries must be >= 1, got %d" n
            | Error e -> fail "field \"ks\": %s" e)
          vs
      in
      if List.length ks < 2 then
        fail "field \"ks\" needs at least two entries (a chain of >= 2 ops)"
      else ks)

let names table = String.concat ", " (List.map fst table)

(* [List.assoc_opt] would compare names polymorphically *)
let find_named name =
  List.find_map (fun (k, v) -> if String.equal k name then Some v else None)

(* Each kind reads its fields in a fixed order, which decides the field a
   reject names when several are missing or out of range. *)
let nest_kinds =
  [ ( "matmul",
      fun obj ->
        let l = int_field obj "l" in
        let k = int_field obj "k" in
        let m = int_field obj "m" in
        N_matmul { m; k; l } );
    ( "conv2d",
      fun obj ->
        let padding = int_field ~default:0 ~lo:0 obj "padding" in
        let s = int_field obj "s" in
        let r = int_field obj "r" in
        let k = int_field obj "k" in
        let w = int_field obj "w" in
        let h = int_field obj "h" in
        let c = int_field obj "c" in
        let n = int_field obj "n" in
        let dilation = int_field ~default:1 obj "dilation" in
        let stride = int_field ~default:1 obj "stride" in
        match Conv.validate ~stride ~dilation ~padding ~n ~c ~h ~w ~k ~r ~s () with
        | Ok cv -> N_conv2d cv
        | Error e -> fail "invalid conv2d: %s" e );
    ( "batched_mm",
      fun obj ->
        let l = int_field obj "l" in
        let k = int_field obj "k" in
        let m = int_field obj "m" in
        let b = int_field obj "b" in
        N_batched_mm { b; m; k; l } );
    ( "grouped_mm",
      fun obj ->
        let groups = int_field obj "groups" in
        let heads = int_field obj "heads" in
        let l = int_field obj "l" in
        let k = int_field obj "k" in
        let m = int_field obj "m" in
        N_grouped_mm { groups; heads; m; k; l } );
    ( "attention",
      fun obj ->
        let d = int_field obj "d" in
        let dv = int_field ~default:d obj "dv" in
        let seq_k = int_field obj "seq_k" in
        let seq_q = int_field obj "seq_q" in
        N_attention { seq_q; seq_k; d; dv } ) ]

let nest_kind_field obj =
  let kind = lowercase_field obj "kind" in
  match find_named kind nest_kinds with
  | Some parse -> parse obj
  | None -> fail "unknown nest kind %S (%s)" kind (names nest_kinds)

let nest_of_kind = Fusecu_nest.Lower.of_kind

(* The largest traffic total any schedule of the call's operators can
   reach (saturated at [max_int]); fuse and chain plans sum per-operator
   totals. [regime] needs no bound: its classifier saturates. *)
let max_traffic = function
  | Intra { op; _ } -> Cost.max_total op
  | Fuse { op; l2; _ } ->
    Arith.add_sat (Cost.max_total op)
      (Cost.max_total (Matmul.make ~m:op.Matmul.m ~k:op.Matmul.l ~l:l2 ()))
  | Chain { m; ks; _ } ->
    let rec sum acc = function
      | k :: (l :: _ as rest) ->
        sum (Arith.add_sat acc (Cost.max_total (Matmul.make ~m ~k ~l ()))) rest
      | _ -> acc
    in
    sum 0 ks
  | Nest { kind; _ } -> Fusecu_nest.Nest.max_total (nest_of_kind kind)
  | Regime _ | Eval _ | Plan_model _ -> 0

let call c =
  if max_traffic c = max_int then
    fail "problem too large: its traffic can exceed the 63-bit integer range"
  else Call c

let ops =
  [ ( "intra",
      fun obj ->
        let buffer, _ = buffer_field obj in
        let mode = mode_field obj in
        call (Intra { op = matmul_field obj; buffer; mode }) );
    ( "fuse",
      fun obj ->
        let buffer, _ = buffer_field obj in
        let l2 = int_field obj "l2" in
        let mode = mode_field obj in
        call (Fuse { op = matmul_field obj; l2; buffer; mode }) );
    ( "regime",
      fun obj ->
        let buffer, _ = buffer_field obj in
        call (Regime { op = matmul_field obj; buffer }) );
    ( "eval",
      fun obj ->
        let model = lowercase_field obj "model" in
        let buffer, elt_bytes = buffer_field obj in
        call (Eval { model; buffer; elt_bytes; mode = mode_field obj }) );
    ( "chain",
      fun obj ->
        let m = int_field obj "m" in
        let ks = ks_field obj in
        let buffer, _ = buffer_field obj in
        call (Chain { m; ks; buffer; mode = mode_field obj }) );
    ( "plan_model",
      fun obj ->
        let model = lowercase_field obj "model" in
        let layers = int_field ~default:1 ~hi:64 obj "layers" in
        let buffer, elt_bytes = buffer_field obj in
        call (Plan_model { model; layers; buffer; elt_bytes; mode = mode_field obj })
    );
    ( "nest",
      fun obj ->
        let kind = nest_kind_field obj in
        let buffer, _ = buffer_field obj in
        call (Nest { kind; buffer; mode = mode_field obj }) );
    ("stats", fun _ -> Stats);
    ( "metrics",
      fun obj ->
        match Json.member "quiet" obj with
        | None -> Metrics_req { quiet = false }
        | Some (Json.Bool quiet) -> Metrics_req { quiet }
        | Some v -> fail "field \"quiet\" must be a boolean, got %s" (Json.print v) );
    ("shutdown", fun _ -> Shutdown) ]

let parse_call obj op =
  match find_named op ops with
  | Some parse -> Ok (parse obj)
  | None ->
    Error
      { id = Json.Null;
        code = Unknown_op;
        message = Printf.sprintf "unknown op %S (%s)" op (names ops) }

let dispatch obj ~id ~tc =
  match Json.member "op" obj with
  | None ->
    Error { id; code = Bad_request; message = "missing required field \"op\"" }
  | Some opv -> (
    match Json.to_string_v opv with
    | Error e ->
      Error
        { id; code = Bad_request; message = Printf.sprintf "field \"op\": %s" e }
    | Ok op -> (
      match parse_call obj op with
      | Ok req -> Ok (id, tc, req)
      | Error r -> Error { r with id }
      | exception Bad message -> Error { id; code = Bad_request; message }))

let parse_line line =
  match Json.parse line with
  | Error e -> Error { id = Json.Null; code = Parse_error; message = e }
  | Ok obj -> (
    let id = match Json.member "id" obj with Some id -> id | None -> Json.Null in
    (* Trace context stamped by the router ("tc"); unknown members are
       ignored by design, so old clients and servers interoperate. *)
    let tc =
      match Json.member "tc" obj with Some (Json.String t) -> Some t | _ -> None
    in
    match obj with
    | Json.Obj _ -> (
      match Json.member "v" obj with
      | None -> dispatch obj ~id ~tc (* no "v": treated as the current version *)
      | Some (Json.Int v) when v = version -> dispatch obj ~id ~tc
      | Some v ->
        Error
          { id;
            code = Unsupported_version;
            message =
              Printf.sprintf "unsupported schema version %s (this server speaks v%d)"
                (Json.print v) version })
    | _ ->
      Error { id; code = Bad_request; message = "request must be a JSON object" })

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

type transform = Identity | Transpose_ml

let canonicalize call =
  match call with
  | Intra { op; buffer; mode } when op.Matmul.m > op.Matmul.l ->
    (Intra { op = Matmul.transpose op; buffer; mode }, Transpose_ml)
  | Regime { op; buffer } when op.Matmul.m > op.Matmul.l ->
    (Regime { op = Matmul.transpose op; buffer }, Transpose_ml)
  | _ -> (call, Identity)

let nest_kind_name = function
  | N_matmul _ -> "matmul"
  | N_conv2d _ -> "conv2d"
  | N_batched_mm _ -> "batched_mm"
  | N_grouped_mm _ -> "grouped_mm"
  | N_attention _ -> "attention"

(* Field order is fixed: it is both the cache-key digit order and the
   response echo order. *)
let nest_kind_dims = function
  | N_matmul { m; k; l } -> [ ("m", m); ("k", k); ("l", l) ]
  | N_conv2d cv ->
    [ ("n", cv.Conv.n); ("c", cv.Conv.c); ("h", cv.Conv.h); ("w", cv.Conv.w);
      ("k", cv.Conv.k); ("r", cv.Conv.r); ("s", cv.Conv.s);
      ("stride", cv.Conv.stride); ("padding", cv.Conv.padding);
      ("dilation", cv.Conv.dilation) ]
  | N_batched_mm { b; m; k; l } -> [ ("b", b); ("m", m); ("k", k); ("l", l) ]
  | N_grouped_mm { groups; heads; m; k; l } ->
    [ ("groups", groups); ("heads", heads); ("m", m); ("k", k); ("l", l) ]
  | N_attention { seq_q; seq_k; d; dv } ->
    [ ("seq_q", seq_q); ("seq_k", seq_k); ("d", d); ("dv", dv) ]

(* A key is its tag and its fields, each field after a '|'. *)
let key_string b s =
  Text.add_char b '|';
  Text.add_string b s

let key_int b n =
  Text.add_char b '|';
  Json.write_int b n

let key_ints b ns =
  Text.add_char b '|';
  List.iteri
    (fun i n ->
      if i > 0 then Text.add_char b ',';
      Json.write_int b n)
    ns

let key_matmul b (op : Matmul.t) =
  key_int b op.m;
  key_int b op.k;
  key_int b op.l

let cache_key call =
  let b = Text.create 48 in
  (match call with
  | Intra { op; buffer; mode } ->
    Text.add_char b 'i';
    key_string b (mode_to_string mode);
    key_matmul b op;
    key_int b (Buffer.elements buffer)
  | Fuse { op; l2; buffer; mode } ->
    Text.add_char b 'f';
    key_string b (mode_to_string mode);
    key_matmul b op;
    key_int b l2;
    key_int b (Buffer.elements buffer)
  | Regime { op; buffer } ->
    Text.add_char b 'r';
    key_matmul b op;
    key_int b (Buffer.elements buffer)
  | Eval { model; buffer; elt_bytes; mode } ->
    Text.add_char b 'e';
    key_string b (mode_to_string mode);
    key_string b model;
    key_int b buffer.Buffer.bytes;
    key_int b elt_bytes
  | Chain { m; ks; buffer; mode } ->
    Text.add_char b 'c';
    key_string b (mode_to_string mode);
    key_int b m;
    key_ints b ks;
    key_int b (Buffer.elements buffer)
  | Plan_model { model; layers; buffer; elt_bytes; mode } ->
    Text.add_string b "pm";
    key_string b (mode_to_string mode);
    key_string b model;
    key_int b layers;
    key_int b buffer.Buffer.bytes;
    key_int b elt_bytes
  | Nest { kind; buffer; mode } ->
    Text.add_char b 'n';
    key_string b (mode_to_string mode);
    key_string b (nest_kind_name kind);
    key_ints b (List.map snd (nest_kind_dims kind));
    key_int b (Buffer.elements buffer));
  Text.contents b

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

type intra_result = {
  ma : int;
  redundancy : float;
  footprint : int;
  tile_m : int;
  tile_k : int;
  tile_l : int;
  order : Dim.t list;
  nra : Nra.t;
  dataflow : Nra.dataflow;
  regime : Regime.t;
}

let intra_result_of_plan (plan : Intra.plan) =
  let s = plan.schedule in
  { ma = Intra.ma plan;
    redundancy = Intra.redundancy plan;
    footprint = Schedule.footprint s;
    tile_m = Tiling.get s.tiling Dim.M;
    tile_k = Tiling.get s.tiling Dim.K;
    tile_l = Tiling.get s.tiling Dim.L;
    order = Order.dims s.order;
    nra = Nra.class_of plan.dataflow;
    dataflow = plan.dataflow;
    regime = plan.regime }

type fuse_result =
  | Fused of { pattern : Fusion.pattern; nra : Nra.t; traffic : int }
  | Not_fused of {
      why : string;
      traffic : int;
      producer : Nra.t;
      consumer : Nra.t;
    }

type regime_result = {
  regime : Regime.t;
  thresholds : Regime.thresholds;
  classes : Nra.t list;
}

type eval_cells = {
  traffic : int;
  traffic_bytes : int;
  macs : int;
  cycles : int;
  utilization : float;
}

type eval_row = { platform : string; cells : (eval_cells, string) result }

type chain_segment = Solo_seg of int | Fused_seg of string * int

type chain_result =
  | Full_fusion of { traffic : int; fused_bound : int }
  | Pairwise of { traffic : int; segments : chain_segment list }

type plan_group = {
  members : string list;
  count : int;
  ops : int;
  group_traffic : int;
  group_hidden : int;
}

type plan_model_result = {
  nodes : int;
  plan_groups : plan_group list;
  fused_edges : string list;
  traffic : int;
  hidden : int;
  effective : int;
  unfused_traffic : int;
  unfused_effective : int;
  candidate_edges : int;
  components : int;
  dp_states : int;
  bnb_nodes : int;
  bnb_pruned : int;
}

type nest_result = {
  n_axes : string list;  (** axis names, rank order *)
  n_extents : int list;
  n_tiles : int list;  (** winning tile per axis, rank order *)
  n_order : string list;  (** axis names, outermost first *)
  n_traffic : int;
  n_ideal : int;  (** unbounded-buffer communication lower bound *)
  n_footprint : int;
  n_points : int;
  n_evaluated : int;  (** schedules cost-evaluated by the mapper *)
}

type outcome =
  | R_intra of intra_result
  | R_fuse of fuse_result
  | R_regime of regime_result
  | R_eval of eval_row list
  | R_chain of chain_result
  | R_plan_model of plan_model_result
  | R_nest of nest_result

(* Relabel canonical-frame results for the original (transposed)
   request: the canonical computation ran on [transpose op], whose A is
   the original B^T, B the original A^T, M the original L.  Counts
   (traffic, footprint, regime, class) are invariant — see DESIGN.md §5. *)
let swap_dim = function Dim.M -> Dim.L | Dim.L -> Dim.M | Dim.K -> Dim.K

let swap_operand = function
  | Operand.A -> Operand.B
  | Operand.B -> Operand.A
  | Operand.C -> Operand.C

let transpose_dataflow = function
  | Nra.Single_nra { stationary } ->
    Nra.Single_nra { stationary = swap_operand stationary }
  | Nra.Two_nra { untiled; redundant } ->
    Nra.Two_nra { untiled = swap_dim untiled; redundant = swap_operand redundant }
  | Nra.Three_nra { resident } ->
    Nra.Three_nra { resident = swap_operand resident }

let apply_transform tf outcome =
  match (tf, outcome) with
  | Identity, o -> o
  | Transpose_ml, R_intra r ->
    R_intra
      { r with
        tile_m = r.tile_l;
        tile_l = r.tile_m;
        order = List.map swap_dim r.order;
        dataflow = transpose_dataflow r.dataflow }
  | Transpose_ml, o -> o

(* ------------------------------------------------------------------ *)
(* Outcome codec                                                       *)

(* The wire [result] fields of each outcome variant, each followed by
   its inverse. Inside one op the variants are told apart by ["fuse"],
   ["decision"] or an ["error"] member, so with the op known the wire
   shape decodes exactly; the plan store keeps [{"op":..., fields}]. *)

let ( let* ) = Result.bind

let get name decode j =
  match Json.member name j with
  | Some v -> decode v
  | None -> Error (Printf.sprintf "missing field %S" name)

let list decode v =
  let* vs = Json.to_list v in
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = decode x in
      Ok (y :: acc))
    vs (Ok [])

let ints l = Json.List (List.map (fun n -> Json.Int n) l)
let strings l = Json.List (List.map (fun s -> Json.String s) l)

(* Each table maps every label of a closed variant list back to its
   value; built once, so decoding never re-prints the labels. *)
let label ~what to_string all =
  let table = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace table (to_string v) v) all;
  fun v ->
    let* s = Json.to_string_v v in
    match Hashtbl.find_opt table s with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "unknown %s %S" what s)

let dim_label = label ~what:"dim" Dim.to_string Dim.all
let class_label = label ~what:"class" Nra.to_string Nra.all
let dataflow_label = label ~what:"dataflow" Nra.dataflow_to_string Nra.all_dataflows

let regime_label =
  label ~what:"regime" Regime.to_string Regime.[ Tiny; Small; Medium; Large ]

let pattern_label = label ~what:"pattern" Fusion.pattern_name Fusion.all_patterns

let intra_fields r =
  [ ("ma", Json.Int r.ma);
    ("redundancy", Json.Float r.redundancy);
    ("footprint", Json.Int r.footprint);
    ("tiles",
     Json.Obj
       [ ("m", Json.Int r.tile_m); ("k", Json.Int r.tile_k);
         ("l", Json.Int r.tile_l) ]);
    ("order", strings (List.map Dim.to_string r.order));
    ("class", Json.String (Nra.to_string r.nra));
    ("dataflow", Json.String (Nra.dataflow_to_string r.dataflow));
    ("regime", Json.String (Regime.to_string r.regime)) ]

let intra_of_json j =
  let* ma = get "ma" Json.to_int j in
  let* redundancy = get "redundancy" Json.to_float j in
  let* footprint = get "footprint" Json.to_int j in
  let* tiles = get "tiles" Result.ok j in
  let* tile_m = get "m" Json.to_int tiles in
  let* tile_k = get "k" Json.to_int tiles in
  let* tile_l = get "l" Json.to_int tiles in
  let* order = get "order" (list dim_label) j in
  let* nra = get "class" class_label j in
  let* dataflow = get "dataflow" dataflow_label j in
  let* regime = get "regime" regime_label j in
  Ok
    { ma; redundancy; footprint; tile_m; tile_k; tile_l; order; nra; dataflow;
      regime }

let fuse_fields = function
  | Fused { pattern; nra; traffic } ->
    [ ("fuse", Json.Bool true);
      ("pattern", Json.String (Fusion.pattern_name pattern));
      ("class", Json.String (Nra.to_string nra));
      ("traffic", Json.Int traffic) ]
  | Not_fused { why; traffic; producer; consumer } ->
    [ ("fuse", Json.Bool false);
      ("why", Json.String why);
      ("producer_class", Json.String (Nra.to_string producer));
      ("consumer_class", Json.String (Nra.to_string consumer));
      ("traffic", Json.Int traffic) ]

let fuse_of_json j =
  let* fused = get "fuse" Json.to_bool j in
  let* traffic = get "traffic" Json.to_int j in
  if fused then
    let* pattern = get "pattern" pattern_label j in
    let* nra = get "class" class_label j in
    Ok (Fused { pattern; nra; traffic })
  else
    let* why = get "why" Json.to_string_v j in
    let* producer = get "producer_class" class_label j in
    let* consumer = get "consumer_class" class_label j in
    Ok (Not_fused { why; traffic; producer; consumer })

let regime_fields r =
  [ ("regime", Json.String (Regime.to_string r.regime));
    ("thresholds",
     Json.Obj
       [ ("tiny_max", Json.Int r.thresholds.Regime.tiny_max);
         ("small_max", Json.Int r.thresholds.Regime.small_max);
         ("medium_max", Json.Int r.thresholds.Regime.medium_max) ]);
    ("classes", strings (List.map Nra.to_string r.classes)) ]

let regime_of_json j =
  let* regime = get "regime" regime_label j in
  let* th = get "thresholds" Result.ok j in
  let* tiny_max = get "tiny_max" Json.to_int th in
  let* small_max = get "small_max" Json.to_int th in
  let* medium_max = get "medium_max" Json.to_int th in
  let* classes = get "classes" (list class_label) j in
  Ok { regime; thresholds = { Regime.tiny_max; small_max; medium_max }; classes }

let eval_fields rows =
  [ ("platforms",
     Json.List
       (List.map
          (fun row ->
            Json.Obj
              (("name", Json.String row.platform)
              ::
              (match row.cells with
              | Ok c ->
                [ ("traffic", Json.Int c.traffic);
                  ("traffic_bytes", Json.Int c.traffic_bytes);
                  ("macs", Json.Int c.macs);
                  ("cycles", Json.Int c.cycles);
                  ("utilization", Json.Float c.utilization) ]
              | Error e -> [ ("error", Json.String e) ])))
          rows)) ]

let eval_row_of_json row =
  let* platform = get "name" Json.to_string_v row in
  match Json.member "error" row with
  | Some e ->
    let* e = Json.to_string_v e in
    Ok { platform; cells = Error e }
  | None ->
    let* traffic = get "traffic" Json.to_int row in
    let* traffic_bytes = get "traffic_bytes" Json.to_int row in
    let* macs = get "macs" Json.to_int row in
    let* cycles = get "cycles" Json.to_int row in
    let* utilization = get "utilization" Json.to_float row in
    Ok { platform; cells = Ok { traffic; traffic_bytes; macs; cycles; utilization } }

let chain_fields = function
  | Full_fusion { traffic; fused_bound } ->
    [ ("decision", Json.String "full_fusion");
      ("traffic", Json.Int traffic);
      ("fused_bound", Json.Int fused_bound) ]
  | Pairwise { traffic; segments } ->
    [ ("decision", Json.String "pairwise");
      ("traffic", Json.Int traffic);
      ("segments",
       Json.List
         (List.map
            (function
              | Solo_seg t ->
                Json.Obj [ ("kind", Json.String "solo"); ("traffic", Json.Int t) ]
              | Fused_seg (pattern, t) ->
                Json.Obj
                  [ ("kind", Json.String "fused");
                    ("pattern", Json.String pattern);
                    ("traffic", Json.Int t) ])
            segments)) ]

let segment_of_json seg =
  let* traffic = get "traffic" Json.to_int seg in
  let* kind = get "kind" Json.to_string_v seg in
  match kind with
  | "solo" -> Ok (Solo_seg traffic)
  | "fused" ->
    let* pattern = get "pattern" Json.to_string_v seg in
    Ok (Fused_seg (pattern, traffic))
  | k -> Error (Printf.sprintf "unknown segment kind %S" k)

let chain_of_json j =
  let* traffic = get "traffic" Json.to_int j in
  let* decision = get "decision" Json.to_string_v j in
  match decision with
  | "full_fusion" ->
    let* fused_bound = get "fused_bound" Json.to_int j in
    Ok (Full_fusion { traffic; fused_bound })
  | "pairwise" ->
    let* segments = get "segments" (list segment_of_json) j in
    Ok (Pairwise { traffic; segments })
  | d -> Error (Printf.sprintf "unknown chain decision %S" d)

(* ["group_count"] is derived from ["groups"], so decoding skips it. *)
let plan_model_fields r =
  [ ("nodes", Json.Int r.nodes);
    ("group_count", Json.Int (List.length r.plan_groups));
    ("groups",
     Json.List
       (List.map
          (fun g ->
            Json.Obj
              [ ("members", strings g.members);
                ("count", Json.Int g.count);
                ("ops", Json.Int g.ops);
                ("traffic", Json.Int g.group_traffic);
                ("hidden", Json.Int g.group_hidden) ])
          r.plan_groups));
    ("fused_edges", strings r.fused_edges);
    ("traffic", Json.Int r.traffic);
    ("hidden", Json.Int r.hidden);
    ("effective", Json.Int r.effective);
    ("unfused_traffic", Json.Int r.unfused_traffic);
    ("unfused_effective", Json.Int r.unfused_effective);
    ("search",
     Json.Obj
       [ ("candidate_edges", Json.Int r.candidate_edges);
         ("components", Json.Int r.components);
         ("dp_states", Json.Int r.dp_states);
         ("bnb_nodes", Json.Int r.bnb_nodes);
         ("bnb_pruned", Json.Int r.bnb_pruned) ]) ]

let plan_group_of_json g =
  let* members = get "members" (list Json.to_string_v) g in
  let* count = get "count" Json.to_int g in
  let* ops = get "ops" Json.to_int g in
  let* group_traffic = get "traffic" Json.to_int g in
  let* group_hidden = get "hidden" Json.to_int g in
  Ok { members; count; ops; group_traffic; group_hidden }

let plan_model_of_json j =
  let* nodes = get "nodes" Json.to_int j in
  let* plan_groups = get "groups" (list plan_group_of_json) j in
  let* fused_edges = get "fused_edges" (list Json.to_string_v) j in
  let* traffic = get "traffic" Json.to_int j in
  let* hidden = get "hidden" Json.to_int j in
  let* effective = get "effective" Json.to_int j in
  let* unfused_traffic = get "unfused_traffic" Json.to_int j in
  let* unfused_effective = get "unfused_effective" Json.to_int j in
  let* search = get "search" Result.ok j in
  let* candidate_edges = get "candidate_edges" Json.to_int search in
  let* components = get "components" Json.to_int search in
  let* dp_states = get "dp_states" Json.to_int search in
  let* bnb_nodes = get "bnb_nodes" Json.to_int search in
  let* bnb_pruned = get "bnb_pruned" Json.to_int search in
  Ok
    { nodes; plan_groups; fused_edges; traffic; hidden; effective;
      unfused_traffic; unfused_effective; candidate_edges; components;
      dp_states; bnb_nodes; bnb_pruned }

let nest_fields r =
  [ ("axes", strings r.n_axes);
    ("extents", ints r.n_extents);
    ("tiles", ints r.n_tiles);
    ("order", strings r.n_order);
    ("traffic", Json.Int r.n_traffic);
    ("ideal", Json.Int r.n_ideal);
    ("footprint", Json.Int r.n_footprint);
    ("points", Json.Int r.n_points);
    ("evaluated", Json.Int r.n_evaluated) ]

let nest_of_json j =
  let* n_axes = get "axes" (list Json.to_string_v) j in
  let* n_extents = get "extents" (list Json.to_int) j in
  let* n_tiles = get "tiles" (list Json.to_int) j in
  let* n_order = get "order" (list Json.to_string_v) j in
  let* n_traffic = get "traffic" Json.to_int j in
  let* n_ideal = get "ideal" Json.to_int j in
  let* n_footprint = get "footprint" Json.to_int j in
  let* n_points = get "points" Json.to_int j in
  let* n_evaluated = get "evaluated" Json.to_int j in
  Ok
    { n_axes; n_extents; n_tiles; n_order; n_traffic; n_ideal; n_footprint;
      n_points; n_evaluated }

let outcome_op = function
  | R_intra _ -> "intra"
  | R_fuse _ -> "fuse"
  | R_regime _ -> "regime"
  | R_eval _ -> "eval"
  | R_chain _ -> "chain"
  | R_plan_model _ -> "plan_model"
  | R_nest _ -> "nest"

let outcome_fields = function
  | R_intra r -> intra_fields r
  | R_fuse r -> fuse_fields r
  | R_regime r -> regime_fields r
  | R_eval rows -> eval_fields rows
  | R_chain r -> chain_fields r
  | R_plan_model r -> plan_model_fields r
  | R_nest r -> nest_fields r

let outcome_to_json o =
  Json.Obj (("op", Json.String (outcome_op o)) :: outcome_fields o)

let outcome_of_json j =
  let wrap f decode = Result.map f (decode j) in
  let* op = get "op" Json.to_string_v j in
  match op with
  | "intra" -> wrap (fun r -> R_intra r) intra_of_json
  | "fuse" -> wrap (fun r -> R_fuse r) fuse_of_json
  | "regime" -> wrap (fun r -> R_regime r) regime_of_json
  | "eval" -> wrap (fun rows -> R_eval rows) (get "platforms" (list eval_row_of_json))
  | "chain" -> wrap (fun r -> R_chain r) chain_of_json
  | "plan_model" -> wrap (fun r -> R_plan_model r) plan_model_of_json
  | "nest" -> wrap (fun r -> R_nest r) nest_of_json
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* A reply is written straight into one [Text]: [{"id":<id>,"ok":true,
   "op":<op>,"result":{<echo>,<members>}}], where the echo is the
   problem in the request's orientation and the members are
   [result_members] of the outcome, the part a cache entry can keep.
   Each echo field is written with the comma that follows it. *)

let echo_name b name =
  Text.add_char b '"';
  Text.add_string b name;
  Text.add_string b "\":"

let echo_int b name n =
  echo_name b name;
  Json.write_int b n;
  Text.add_char b ','

let echo_string b name s =
  echo_name b name;
  Json.write_string b s;
  Text.add_char b ','

let echo_matmul b (op : Matmul.t) =
  echo_int b "m" op.m;
  echo_int b "k" op.k;
  echo_int b "l" op.l

let echo_buffer b (buffer : Buffer.t) =
  echo_int b "buffer_bytes" buffer.bytes;
  echo_int b "elt_bytes" buffer.elt_bytes

let echo_mode b mode = echo_string b "mode" (mode_to_string mode)

let rec echo_dims b = function
  | [] -> ()
  | (name, n) :: rest ->
    echo_int b name n;
    echo_dims b rest

let write_echo b = function
  | Intra { op; buffer; mode } ->
    echo_matmul b op;
    echo_buffer b buffer;
    echo_mode b mode
  | Fuse { op; l2; buffer; mode } ->
    echo_matmul b op;
    echo_int b "l2" l2;
    echo_buffer b buffer;
    echo_mode b mode
  | Regime { op; buffer } ->
    echo_matmul b op;
    echo_buffer b buffer
  | Eval { model; buffer; elt_bytes = _; mode } ->
    echo_string b "model" model;
    echo_buffer b buffer;
    echo_mode b mode
  | Chain { m; ks; buffer; mode } ->
    echo_int b "m" m;
    echo_name b "ks";
    Json.write b (ints ks);
    Text.add_char b ',';
    echo_buffer b buffer;
    echo_mode b mode
  | Plan_model { model; layers; buffer; elt_bytes = _; mode } ->
    echo_string b "model" model;
    echo_int b "layers" layers;
    echo_buffer b buffer;
    echo_mode b mode
  | Nest { kind; buffer; mode } ->
    echo_string b "kind" (nest_kind_name kind);
    echo_dims b (nest_kind_dims kind);
    echo_buffer b buffer;
    echo_mode b mode

let result_members outcome =
  let b = Text.create 256 in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Text.add_char b ',';
      Json.write_string b k;
      Text.add_char b ':';
      Json.write b v)
    (outcome_fields outcome);
  Text.contents b

let reply ~id ~call members =
  let b = Text.create (String.length members + 160) in
  Text.add_string b "{\"id\":";
  Json.write b id;
  Text.add_string b ",\"ok\":true,\"op\":";
  Json.write_string b (op_name call);
  Text.add_string b ",\"result\":{";
  write_echo b call;
  Text.add_string b members;
  Text.add_string b "}}";
  Text.contents b

let response_ok ~id ~call outcome = reply ~id ~call (result_members outcome)

let response_ok_json ~id ~op ~result =
  Json.print
    (Json.Obj
       [ ("id", id); ("ok", Json.Bool true); ("op", Json.String op);
         ("result", result) ])

let response_error ~id ~code ~message =
  Json.print
    (Json.Obj
       [ ("id", id); ("ok", Json.Bool false);
         ("error",
          Json.Obj
            [ ("code", Json.String (error_code_to_string code));
              ("message", Json.String message) ]) ])

let reject_response r = response_error ~id:r.id ~code:r.code ~message:r.message

(* ------------------------------------------------------------------ *)
(* Trace-context envelope                                              *)

(* The router stamps requests and the engine echoes responses by splicing
   a trailing "tc" member textually rather than reparsing and reprinting
   the line: reprinting would have to round-trip floats and member order
   exactly, and any drift there would break the byte-identical golden
   transcripts. The splice leaves non-object lines untouched. *)

let tc_suffix tc = ",\"tc\":" ^ Json.print (Json.String tc) ^ "}"

let with_tc tc line =
  match tc with
  | None -> line
  | Some t ->
    let n = String.length line in
    if n < 2 || line.[n - 1] <> '}' then line
    else if line = "{}" then "{\"tc\":" ^ Json.print (Json.String t) ^ "}"
    else String.sub line 0 (n - 1) ^ tc_suffix t

let strip_tc ~tc line =
  let suffix = tc_suffix tc in
  let sn = String.length suffix and n = String.length line in
  if n >= sn && String.sub line (n - sn) sn = suffix then
    String.sub line 0 (n - sn) ^ "}"
  else line
