open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
module Json = Fusecu_util.Json
module Units = Fusecu_util.Units

let version = 1

type nest_kind =
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

let dim_field obj name =
  match Json.member name obj with
  | None -> fail "missing required field %S" name
  | Some v -> (
    match Json.to_int v with
    | Ok n when n >= 1 -> n
    | Ok n -> fail "field %S must be >= 1, got %d" name n
    | Error e -> fail "field %S: %s" name e)

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
  let elt_bytes =
    match Json.member "elt_bytes" obj with
    | None -> 1
    | Some v -> (
      match Json.to_int v with
      | Ok n when n >= 1 -> n
      | Ok n -> fail "field \"elt_bytes\" must be >= 1, got %d" n
      | Error e -> fail "field \"elt_bytes\": %s" e)
  in
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
    | Some v ->
      ignore v;
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
  let m = dim_field obj "m" and k = dim_field obj "k" and l = dim_field obj "l" in
  Matmul.make ~m ~k ~l ()

let parse_call obj op =
  match op with
  | "intra" ->
    let buffer, _ = buffer_field obj in
    Ok (Call (Intra { op = matmul_field obj; buffer; mode = mode_field obj }))
  | "fuse" ->
    let buffer, _ = buffer_field obj in
    let l2 = dim_field obj "l2" in
    Ok (Call (Fuse { op = matmul_field obj; l2; buffer; mode = mode_field obj }))
  | "regime" ->
    let buffer, _ = buffer_field obj in
    Ok (Call (Regime { op = matmul_field obj; buffer }))
  | "eval" ->
    let model = lowercase_field obj "model" in
    let buffer, elt_bytes = buffer_field obj in
    Ok (Call (Eval { model; buffer; elt_bytes; mode = mode_field obj }))
  | "chain" ->
    let m = dim_field obj "m" in
    let ks =
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
    in
    let buffer, _ = buffer_field obj in
    Ok (Call (Chain { m; ks; buffer; mode = mode_field obj }))
  | "plan_model" ->
    let model = lowercase_field obj "model" in
    let layers =
      match Json.member "layers" obj with
      | None -> 1
      | Some v -> (
        match Json.to_int v with
        | Ok n when n >= 1 && n <= 64 -> n
        | Ok n -> fail "field \"layers\" must be in [1, 64], got %d" n
        | Error e -> fail "field \"layers\": %s" e)
    in
    let buffer, elt_bytes = buffer_field obj in
    Ok (Call (Plan_model { model; layers; buffer; elt_bytes; mode = mode_field obj }))
  | "nest" ->
    let kind_s = lowercase_field obj "kind" in
    let opt_dim name default =
      match Json.member name obj with
      | None -> default
      | Some _ -> dim_field obj name
    in
    let kind =
      match kind_s with
      | "matmul" ->
        N_matmul
          { m = dim_field obj "m"; k = dim_field obj "k"; l = dim_field obj "l" }
      | "conv2d" -> (
        let padding =
          match Json.member "padding" obj with
          | None -> 0
          | Some v -> (
            match Json.to_int v with
            | Ok n when n >= 0 -> n
            | Ok n -> fail "field \"padding\" must be >= 0, got %d" n
            | Error e -> fail "field \"padding\": %s" e)
        in
        match
          Conv.validate
            ~stride:(opt_dim "stride" 1)
            ~dilation:(opt_dim "dilation" 1)
            ~padding ~n:(dim_field obj "n") ~c:(dim_field obj "c")
            ~h:(dim_field obj "h") ~w:(dim_field obj "w") ~k:(dim_field obj "k")
            ~r:(dim_field obj "r") ~s:(dim_field obj "s") ()
        with
        | Ok cv -> N_conv2d cv
        | Error e -> fail "invalid conv2d: %s" e)
      | "batched_mm" ->
        N_batched_mm
          { b = dim_field obj "b"; m = dim_field obj "m"; k = dim_field obj "k";
            l = dim_field obj "l" }
      | "grouped_mm" ->
        let groups = dim_field obj "groups" and heads = dim_field obj "heads" in
        N_grouped_mm
          { groups; heads; m = dim_field obj "m"; k = dim_field obj "k";
            l = dim_field obj "l" }
      | "attention" ->
        let d = dim_field obj "d" in
        N_attention
          { seq_q = dim_field obj "seq_q"; seq_k = dim_field obj "seq_k"; d;
            dv = opt_dim "dv" d }
      | other ->
        fail
          "unknown nest kind %S (matmul, conv2d, batched_mm, grouped_mm, \
           attention)"
          other
    in
    let buffer, _ = buffer_field obj in
    Ok (Call (Nest { kind; buffer; mode = mode_field obj }))
  | "stats" -> Ok Stats
  | "metrics" ->
    let quiet =
      match Json.member "quiet" obj with
      | None -> false
      | Some (Json.Bool b) -> b
      | Some v -> fail "field \"quiet\" must be a boolean, got %s" (Json.print v)
    in
    Ok (Metrics_req { quiet })
  | "shutdown" -> Ok Shutdown
  | other ->
    Error
      { id = Json.Null;
        code = Unknown_op;
        message =
          Printf.sprintf
            "unknown op %S (intra, fuse, regime, eval, chain, plan_model, \
             nest, stats, metrics, shutdown)"
            other }

let parse_line line =
  match Json.parse line with
  | Error e -> Error { id = Json.Null; code = Parse_error; message = e }
  | Ok obj ->
    let id = Option.value ~default:Json.Null (Json.member "id" obj) in
    (* Trace context stamped by the router ("tc"); unknown members are
       ignored by design, so old clients and servers interoperate. *)
    let tc =
      match Json.member "tc" obj with Some (Json.String t) -> Some t | _ -> None
    in
    let reject code message = Error { id; code; message } in
    let dispatch () =
      match Json.member "op" obj with
      | None -> reject Bad_request "missing required field \"op\""
      | Some opv -> (
        match Json.to_string_v opv with
        | Error e -> reject Bad_request (Printf.sprintf "field \"op\": %s" e)
        | Ok op -> (
          match parse_call obj op with
          | Ok req -> Ok (id, tc, req)
          | Error r -> Error { r with id }
          | exception Bad m -> reject Bad_request m))
    in
    (match obj with
    | Json.Obj _ -> (
      match Json.member "v" obj with
      | None -> dispatch () (* no "v": treated as the current version *)
      | Some (Json.Int v) when v = version -> dispatch ()
      | Some v ->
        reject Unsupported_version
          (Printf.sprintf "unsupported schema version %s (this server speaks v%d)"
             (Json.print v) version))
    | _ -> reject Bad_request "request must be a JSON object")

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

let cache_key call =
  match call with
  | Intra { op; buffer; mode } ->
    Printf.sprintf "i|%s|%d|%d|%d|%d" (mode_to_string mode) op.Matmul.m
      op.Matmul.k op.Matmul.l (Buffer.elements buffer)
  | Fuse { op; l2; buffer; mode } ->
    Printf.sprintf "f|%s|%d|%d|%d|%d|%d" (mode_to_string mode) op.Matmul.m
      op.Matmul.k op.Matmul.l l2 (Buffer.elements buffer)
  | Regime { op; buffer } ->
    Printf.sprintf "r|%d|%d|%d|%d" op.Matmul.m op.Matmul.k op.Matmul.l
      (Buffer.elements buffer)
  | Eval { model; buffer; elt_bytes; mode } ->
    Printf.sprintf "e|%s|%s|%d|%d" (mode_to_string mode) model
      buffer.Buffer.bytes elt_bytes
  | Chain { m; ks; buffer; mode } ->
    Printf.sprintf "c|%s|%d|%s|%d" (mode_to_string mode) m
      (String.concat "," (List.map string_of_int ks))
      (Buffer.elements buffer)
  | Plan_model { model; layers; buffer; elt_bytes; mode } ->
    Printf.sprintf "pm|%s|%s|%d|%d|%d" (mode_to_string mode) model layers
      buffer.Buffer.bytes elt_bytes
  | Nest { kind; buffer; mode } ->
    Printf.sprintf "n|%s|%s|%s|%d" (mode_to_string mode) (nest_kind_name kind)
      (String.concat ","
         (List.map (fun (_, v) -> string_of_int v) (nest_kind_dims kind)))
      (Buffer.elements buffer)

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
(* Responses                                                           *)

let problem_fields call =
  let buffer_fields (b : Buffer.t) =
    [ ("buffer_bytes", Json.Int b.bytes); ("elt_bytes", Json.Int b.elt_bytes) ]
  in
  match call with
  | Intra { op; buffer; mode } ->
    [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
      ("l", Json.Int op.Matmul.l) ]
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]
  | Fuse { op; l2; buffer; mode } ->
    [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
      ("l", Json.Int op.Matmul.l); ("l2", Json.Int l2) ]
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]
  | Regime { op; buffer } ->
    [ ("m", Json.Int op.Matmul.m); ("k", Json.Int op.Matmul.k);
      ("l", Json.Int op.Matmul.l) ]
    @ buffer_fields buffer
  | Eval { model; buffer; elt_bytes = _; mode } ->
    [ ("model", Json.String model) ]
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]
  | Chain { m; ks; buffer; mode } ->
    [ ("m", Json.Int m);
      ("ks", Json.List (List.map (fun k -> Json.Int k) ks)) ]
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]
  | Plan_model { model; layers; buffer; elt_bytes = _; mode } ->
    [ ("model", Json.String model); ("layers", Json.Int layers) ]
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]
  | Nest { kind; buffer; mode } ->
    (("kind", Json.String (nest_kind_name kind))
    :: List.map (fun (n, v) -> (n, Json.Int v)) (nest_kind_dims kind))
    @ buffer_fields buffer
    @ [ ("mode", Json.String (mode_to_string mode)) ]

let nest_outcome_fields r =
  [ ("axes", Json.List (List.map (fun a -> Json.String a) r.n_axes));
    ("extents", Json.List (List.map (fun e -> Json.Int e) r.n_extents));
    ("tiles", Json.List (List.map (fun t -> Json.Int t) r.n_tiles));
    ("order", Json.List (List.map (fun a -> Json.String a) r.n_order));
    ("traffic", Json.Int r.n_traffic);
    ("ideal", Json.Int r.n_ideal);
    ("footprint", Json.Int r.n_footprint);
    ("points", Json.Int r.n_points);
    ("evaluated", Json.Int r.n_evaluated) ]

let outcome_fields = function
  | R_intra r ->
    [ ("ma", Json.Int r.ma);
      ("redundancy", Json.Float r.redundancy);
      ("footprint", Json.Int r.footprint);
      ("tiles",
       Json.Obj
         [ ("m", Json.Int r.tile_m); ("k", Json.Int r.tile_k);
           ("l", Json.Int r.tile_l) ]);
      ("order",
       Json.List (List.map (fun d -> Json.String (Dim.to_string d)) r.order));
      ("class", Json.String (Nra.to_string r.nra));
      ("dataflow", Json.String (Nra.dataflow_to_string r.dataflow));
      ("regime", Json.String (Regime.to_string r.regime)) ]
  | R_fuse (Fused { pattern; nra; traffic }) ->
    [ ("fuse", Json.Bool true);
      ("pattern", Json.String (Fusion.pattern_name pattern));
      ("class", Json.String (Nra.to_string nra));
      ("traffic", Json.Int traffic) ]
  | R_fuse (Not_fused { why; traffic; producer; consumer }) ->
    [ ("fuse", Json.Bool false);
      ("why", Json.String why);
      ("producer_class", Json.String (Nra.to_string producer));
      ("consumer_class", Json.String (Nra.to_string consumer));
      ("traffic", Json.Int traffic) ]
  | R_regime r ->
    [ ("regime", Json.String (Regime.to_string r.regime));
      ("thresholds",
       Json.Obj
         [ ("tiny_max", Json.Int r.thresholds.Regime.tiny_max);
           ("small_max", Json.Int r.thresholds.Regime.small_max);
           ("medium_max", Json.Int r.thresholds.Regime.medium_max) ]);
      ("classes",
       Json.List
         (List.map (fun c -> Json.String (Nra.to_string c)) r.classes)) ]
  | R_eval rows ->
    [ ("platforms",
       Json.List
         (List.map
            (fun row ->
              match row.cells with
              | Ok c ->
                Json.Obj
                  [ ("name", Json.String row.platform);
                    ("traffic", Json.Int c.traffic);
                    ("traffic_bytes", Json.Int c.traffic_bytes);
                    ("macs", Json.Int c.macs);
                    ("cycles", Json.Int c.cycles);
                    ("utilization", Json.Float c.utilization) ]
              | Error e ->
                Json.Obj
                  [ ("name", Json.String row.platform);
                    ("error", Json.String e) ])
            rows)) ]
  | R_chain (Full_fusion { traffic; fused_bound }) ->
    [ ("decision", Json.String "full_fusion");
      ("traffic", Json.Int traffic);
      ("fused_bound", Json.Int fused_bound) ]
  | R_chain (Pairwise { traffic; segments }) ->
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

  | R_plan_model r ->
    [ ("nodes", Json.Int r.nodes);
      ("group_count", Json.Int (List.length r.plan_groups));
      ("groups",
       Json.List
         (List.map
            (fun g ->
              Json.Obj
                [ ("members",
                   Json.List (List.map (fun n -> Json.String n) g.members));
                  ("count", Json.Int g.count);
                  ("ops", Json.Int g.ops);
                  ("traffic", Json.Int g.group_traffic);
                  ("hidden", Json.Int g.group_hidden) ])
            r.plan_groups));
      ("fused_edges",
       Json.List (List.map (fun e -> Json.String e) r.fused_edges));
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
  | R_nest r -> nest_outcome_fields r

let response_ok ~id ~call outcome =
  Json.print
    (Json.Obj
       [ ("id", id); ("ok", Json.Bool true);
         ("op", Json.String (op_name call));
         ("result", Json.Obj (problem_fields call @ outcome_fields outcome)) ])

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

(* ------------------------------------------------------------------ *)
(* Store serialization                                                 *)

(* A structural outcome codec for the persistent plan store. Distinct
   from [outcome_fields]: that output is the human/wire shape and has no
   inverse (several variants collapse onto the same field names), while
   this one tags every variant and round-trips exactly. Enum decoding is
   inverse-by-construction — each decoder searches the closed list of
   variants for the one whose [to_string] matches — so it can never
   drift from the encoders. *)

let ( let* ) = Result.bind

let enum_of_string ~what ~to_string all s =
  match List.find_opt (fun v -> String.equal (to_string v) s) all with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "store: unknown %s %S" what s)

let dim_of_string = enum_of_string ~what:"dim" ~to_string:Dim.to_string Dim.[ M; K; L ]

let operand_of_string =
  enum_of_string ~what:"operand" ~to_string:Operand.to_string Operand.[ A; B; C ]

let nra_of_string = enum_of_string ~what:"class" ~to_string:Nra.to_string Nra.all

let regime_of_string =
  enum_of_string ~what:"regime" ~to_string:Regime.to_string
    Regime.[ Tiny; Small; Medium; Large ]

let pattern_of_string =
  enum_of_string ~what:"pattern" ~to_string:Fusion.pattern_name
    Fusion.all_patterns

let dataflow_to_json = function
  | Nra.Single_nra { stationary } ->
    Json.Obj
      [ ("t", Json.String "single");
        ("stationary", Json.String (Operand.to_string stationary)) ]
  | Nra.Two_nra { untiled; redundant } ->
    Json.Obj
      [ ("t", Json.String "two");
        ("untiled", Json.String (Dim.to_string untiled));
        ("redundant", Json.String (Operand.to_string redundant)) ]
  | Nra.Three_nra { resident } ->
    Json.Obj
      [ ("t", Json.String "three");
        ("resident", Json.String (Operand.to_string resident)) ]

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "store: missing field %S" name)

let int_field name j = Result.bind (field name j) Json.to_int
let float_field name j = Result.bind (field name j) Json.to_float
let string_field name j = Result.bind (field name j) Json.to_string_v
let bool_field name j = Result.bind (field name j) Json.to_bool
let list_field name j = Result.bind (field name j) Json.to_list

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let dataflow_of_json j =
  let* tag = string_field "t" j in
  match tag with
  | "single" ->
    let* s = Result.bind (string_field "stationary" j) operand_of_string in
    Ok (Nra.Single_nra { stationary = s })
  | "two" ->
    let* u = Result.bind (string_field "untiled" j) dim_of_string in
    let* r = Result.bind (string_field "redundant" j) operand_of_string in
    Ok (Nra.Two_nra { untiled = u; redundant = r })
  | "three" ->
    let* r = Result.bind (string_field "resident" j) operand_of_string in
    Ok (Nra.Three_nra { resident = r })
  | t -> Error (Printf.sprintf "store: unknown dataflow tag %S" t)

let outcome_to_json = function
  | R_intra r ->
    Json.Obj
      [ ("t", Json.String "intra");
        ("ma", Json.Int r.ma);
        ("redundancy", Json.Float r.redundancy);
        ("footprint", Json.Int r.footprint);
        ("tile_m", Json.Int r.tile_m);
        ("tile_k", Json.Int r.tile_k);
        ("tile_l", Json.Int r.tile_l);
        ("order",
         Json.List (List.map (fun d -> Json.String (Dim.to_string d)) r.order));
        ("class", Json.String (Nra.to_string r.nra));
        ("dataflow", dataflow_to_json r.dataflow);
        ("regime", Json.String (Regime.to_string r.regime)) ]
  | R_fuse (Fused { pattern; nra; traffic }) ->
    Json.Obj
      [ ("t", Json.String "fused");
        ("pattern", Json.String (Fusion.pattern_name pattern));
        ("class", Json.String (Nra.to_string nra));
        ("traffic", Json.Int traffic) ]
  | R_fuse (Not_fused { why; traffic; producer; consumer }) ->
    Json.Obj
      [ ("t", Json.String "not_fused");
        ("why", Json.String why);
        ("traffic", Json.Int traffic);
        ("producer", Json.String (Nra.to_string producer));
        ("consumer", Json.String (Nra.to_string consumer)) ]
  | R_regime r ->
    Json.Obj
      [ ("t", Json.String "regime");
        ("regime", Json.String (Regime.to_string r.regime));
        ("tiny_max", Json.Int r.thresholds.Regime.tiny_max);
        ("small_max", Json.Int r.thresholds.Regime.small_max);
        ("medium_max", Json.Int r.thresholds.Regime.medium_max);
        ("classes",
         Json.List
           (List.map (fun c -> Json.String (Nra.to_string c)) r.classes)) ]
  | R_eval rows ->
    Json.Obj
      [ ("t", Json.String "eval");
        ("rows",
         Json.List
           (List.map
              (fun row ->
                match row.cells with
                | Ok c ->
                  Json.Obj
                    [ ("platform", Json.String row.platform);
                      ("ok", Json.Bool true);
                      ("traffic", Json.Int c.traffic);
                      ("traffic_bytes", Json.Int c.traffic_bytes);
                      ("macs", Json.Int c.macs);
                      ("cycles", Json.Int c.cycles);
                      ("utilization", Json.Float c.utilization) ]
                | Error e ->
                  Json.Obj
                    [ ("platform", Json.String row.platform);
                      ("ok", Json.Bool false);
                      ("error", Json.String e) ])
              rows)) ]
  | R_chain (Full_fusion { traffic; fused_bound }) ->
    Json.Obj
      [ ("t", Json.String "chain_full");
        ("traffic", Json.Int traffic);
        ("fused_bound", Json.Int fused_bound) ]
  | R_chain (Pairwise { traffic; segments }) ->
    Json.Obj
      [ ("t", Json.String "chain_pairwise");
        ("traffic", Json.Int traffic);
        ("segments",
         Json.List
           (List.map
              (function
                | Solo_seg t ->
                  Json.Obj
                    [ ("kind", Json.String "solo"); ("traffic", Json.Int t) ]
                | Fused_seg (pattern, t) ->
                  Json.Obj
                    [ ("kind", Json.String "fused");
                      ("pattern", Json.String pattern);
                      ("traffic", Json.Int t) ])
              segments)) ]
  | R_plan_model r ->
    Json.Obj
      [ ("t", Json.String "plan_model");
        ("nodes", Json.Int r.nodes);
        ("groups",
         Json.List
           (List.map
              (fun g ->
                Json.Obj
                  [ ("members",
                     Json.List (List.map (fun n -> Json.String n) g.members));
                    ("count", Json.Int g.count);
                    ("ops", Json.Int g.ops);
                    ("traffic", Json.Int g.group_traffic);
                    ("hidden", Json.Int g.group_hidden) ])
              r.plan_groups));
        ("fused_edges",
         Json.List (List.map (fun e -> Json.String e) r.fused_edges));
        ("traffic", Json.Int r.traffic);
        ("hidden", Json.Int r.hidden);
        ("effective", Json.Int r.effective);
        ("unfused_traffic", Json.Int r.unfused_traffic);
        ("unfused_effective", Json.Int r.unfused_effective);
        ("candidate_edges", Json.Int r.candidate_edges);
        ("components", Json.Int r.components);
        ("dp_states", Json.Int r.dp_states);
        ("bnb_nodes", Json.Int r.bnb_nodes);
        ("bnb_pruned", Json.Int r.bnb_pruned) ]
  | R_nest r ->
    Json.Obj
      [ ("t", Json.String "nest");
        ("axes", Json.List (List.map (fun a -> Json.String a) r.n_axes));
        ("extents", Json.List (List.map (fun e -> Json.Int e) r.n_extents));
        ("tiles", Json.List (List.map (fun x -> Json.Int x) r.n_tiles));
        ("order", Json.List (List.map (fun a -> Json.String a) r.n_order));
        ("traffic", Json.Int r.n_traffic);
        ("ideal", Json.Int r.n_ideal);
        ("footprint", Json.Int r.n_footprint);
        ("points", Json.Int r.n_points);
        ("evaluated", Json.Int r.n_evaluated) ]

let outcome_of_json j =
  let* tag = string_field "t" j in
  match tag with
  | "intra" ->
    let* ma = int_field "ma" j in
    let* redundancy = float_field "redundancy" j in
    let* footprint = int_field "footprint" j in
    let* tile_m = int_field "tile_m" j in
    let* tile_k = int_field "tile_k" j in
    let* tile_l = int_field "tile_l" j in
    let* order =
      Result.bind (list_field "order" j)
        (map_result (fun d -> Result.bind (Json.to_string_v d) dim_of_string))
    in
    let* nra = Result.bind (string_field "class" j) nra_of_string in
    let* dataflow = Result.bind (field "dataflow" j) dataflow_of_json in
    let* regime = Result.bind (string_field "regime" j) regime_of_string in
    Ok
      (R_intra
         { ma; redundancy; footprint; tile_m; tile_k; tile_l; order; nra;
           dataflow; regime })
  | "fused" ->
    let* pattern = Result.bind (string_field "pattern" j) pattern_of_string in
    let* nra = Result.bind (string_field "class" j) nra_of_string in
    let* traffic = int_field "traffic" j in
    Ok (R_fuse (Fused { pattern; nra; traffic }))
  | "not_fused" ->
    let* why = string_field "why" j in
    let* traffic = int_field "traffic" j in
    let* producer = Result.bind (string_field "producer" j) nra_of_string in
    let* consumer = Result.bind (string_field "consumer" j) nra_of_string in
    Ok (R_fuse (Not_fused { why; traffic; producer; consumer }))
  | "regime" ->
    let* regime = Result.bind (string_field "regime" j) regime_of_string in
    let* tiny_max = int_field "tiny_max" j in
    let* small_max = int_field "small_max" j in
    let* medium_max = int_field "medium_max" j in
    let* classes =
      Result.bind (list_field "classes" j)
        (map_result (fun c -> Result.bind (Json.to_string_v c) nra_of_string))
    in
    Ok
      (R_regime
         { regime;
           thresholds = { Regime.tiny_max; small_max; medium_max };
           classes })
  | "eval" ->
    let* rows =
      Result.bind (list_field "rows" j)
        (map_result (fun row ->
             let* platform = string_field "platform" row in
             let* ok = bool_field "ok" row in
             if ok then
               let* traffic = int_field "traffic" row in
               let* traffic_bytes = int_field "traffic_bytes" row in
               let* macs = int_field "macs" row in
               let* cycles = int_field "cycles" row in
               let* utilization = float_field "utilization" row in
               Ok
                 { platform;
                   cells =
                     Ok { traffic; traffic_bytes; macs; cycles; utilization } }
             else
               let* e = string_field "error" row in
               Ok { platform; cells = Error e }))
    in
    Ok (R_eval rows)
  | "chain_full" ->
    let* traffic = int_field "traffic" j in
    let* fused_bound = int_field "fused_bound" j in
    Ok (R_chain (Full_fusion { traffic; fused_bound }))
  | "chain_pairwise" ->
    let* traffic = int_field "traffic" j in
    let* segments =
      Result.bind (list_field "segments" j)
        (map_result (fun seg ->
             let* kind = string_field "kind" seg in
             match kind with
             | "solo" ->
               let* t = int_field "traffic" seg in
               Ok (Solo_seg t)
             | "fused" ->
               let* pattern = string_field "pattern" seg in
               let* t = int_field "traffic" seg in
               Ok (Fused_seg (pattern, t))
             | k -> Error (Printf.sprintf "store: unknown segment kind %S" k)))
    in
    Ok (R_chain (Pairwise { traffic; segments }))
  | "plan_model" ->
    let* nodes = int_field "nodes" j in
    let* plan_groups =
      Result.bind (list_field "groups" j)
        (map_result (fun g ->
             let* members =
               Result.bind (list_field "members" g) (map_result Json.to_string_v)
             in
             let* count = int_field "count" g in
             let* ops = int_field "ops" g in
             let* group_traffic = int_field "traffic" g in
             let* group_hidden = int_field "hidden" g in
             Ok { members; count; ops; group_traffic; group_hidden }))
    in
    let* fused_edges =
      Result.bind (list_field "fused_edges" j) (map_result Json.to_string_v)
    in
    let* traffic = int_field "traffic" j in
    let* hidden = int_field "hidden" j in
    let* effective = int_field "effective" j in
    let* unfused_traffic = int_field "unfused_traffic" j in
    let* unfused_effective = int_field "unfused_effective" j in
    let* candidate_edges = int_field "candidate_edges" j in
    let* components = int_field "components" j in
    let* dp_states = int_field "dp_states" j in
    let* bnb_nodes = int_field "bnb_nodes" j in
    let* bnb_pruned = int_field "bnb_pruned" j in
    Ok
      (R_plan_model
         { nodes; plan_groups; fused_edges; traffic; hidden; effective;
           unfused_traffic; unfused_effective; candidate_edges; components;
           dp_states; bnb_nodes; bnb_pruned })
  | "nest" ->
    let* n_axes =
      Result.bind (list_field "axes" j) (map_result Json.to_string_v)
    in
    let* n_extents =
      Result.bind (list_field "extents" j) (map_result Json.to_int)
    in
    let* n_tiles = Result.bind (list_field "tiles" j) (map_result Json.to_int) in
    let* n_order =
      Result.bind (list_field "order" j) (map_result Json.to_string_v)
    in
    let* n_traffic = int_field "traffic" j in
    let* n_ideal = int_field "ideal" j in
    let* n_footprint = int_field "footprint" j in
    let* n_points = int_field "points" j in
    let* n_evaluated = int_field "evaluated" j in
    Ok
      (R_nest
         { n_axes; n_extents; n_tiles; n_order; n_traffic; n_ideal;
           n_footprint; n_points; n_evaluated })
  | t -> Error (Printf.sprintf "store: unknown outcome tag %S" t)
