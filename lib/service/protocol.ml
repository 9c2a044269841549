open Fusecu_tensor
open Fusecu_loopnest
open Fusecu_core
module Json = Fusecu_util.Json
module Units = Fusecu_util.Units
module Arith = Fusecu_util.Arith
module Partition = Fusecu_planner.Partition

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
(* Answers                                                             *)

(* An answer is printed once, here, from its planner result: the
   members of its wire [result], in their fixed order. Replies, store
   records and cache entries splice the text. *)

type outcome = { op : string; members : string }

let outcome op fields =
  let b = Text.create 256 in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Text.add_char b ',';
      Json.write_string b k;
      Text.add_char b ':';
      Json.write b v)
    fields;
  { op; members = Text.contents b }

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let ints l = Json.List (List.map (fun n -> Json.Int n) l)

let class_name dataflow = Json.String (Nra.to_string (Nra.class_of dataflow))

let intra_outcome (plan : Intra.plan) =
  let s = plan.schedule in
  let tile d = Json.Int (Tiling.get s.tiling d) in
  outcome "intra"
    [ ("ma", Json.Int (Intra.ma plan));
      ("redundancy", Json.Float (Intra.redundancy plan));
      ("footprint", Json.Int (Schedule.footprint s));
      ("tiles", Json.Obj [ ("m", tile Dim.M); ("k", tile Dim.K); ("l", tile Dim.L) ]);
      ("order", strings (List.map Dim.to_string (Order.dims s.order)));
      ("class", class_name plan.dataflow);
      ("dataflow", Json.String (Nra.dataflow_to_string plan.dataflow));
      ("regime", Json.String (Regime.to_string plan.regime)) ]

let fuse_outcome pair = function
  | Fusion.Fuse { pattern; fused; traffic } ->
    outcome "fuse"
      [ ("fuse", Json.Bool true);
        ("pattern", Json.String (Fusion.pattern_name pattern));
        ("class", Json.String (Nra.to_string (Fusion.fused_nra pair fused)));
        ("traffic", Json.Int traffic) ]
  | Fusion.No_fuse { plan1; plan2; traffic; why } ->
    outcome "fuse"
      [ ("fuse", Json.Bool false);
        ("why", Json.String why);
        ("producer_class", class_name plan1.dataflow);
        ("consumer_class", class_name plan2.dataflow);
        ("traffic", Json.Int traffic) ]

let regime_outcome regime (th : Regime.thresholds) =
  outcome "regime"
    [ ("regime", Json.String (Regime.to_string regime));
      ("thresholds",
       Json.Obj
         [ ("tiny_max", Json.Int th.tiny_max);
           ("small_max", Json.Int th.small_max);
           ("medium_max", Json.Int th.medium_max) ]);
      ("classes", strings (List.map Nra.to_string (Regime.expected_classes regime))) ]

let eval_outcome rows =
  let row ((p : Fusecu_arch.Platform.t), cells) =
    Json.Obj
      (("name", Json.String p.name)
      ::
      (match cells with
      | Ok (e : Fusecu_arch.Perf.eval) ->
        [ ("traffic", Json.Int e.traffic);
          ("traffic_bytes", Json.Int e.traffic_bytes);
          ("macs", Json.Int e.macs);
          ("cycles", Json.Int e.cycles);
          ("utilization", Json.Float e.utilization) ]
      | Error e -> [ ("error", Json.String e) ]))
  in
  outcome "eval" [ ("platforms", Json.List (List.map row rows)) ]

let chain_outcome chain = function
  | Multi_fusion.Full_fusion { traffic; _ } ->
    outcome "chain"
      [ ("decision", Json.String "full_fusion");
        ("traffic", Json.Int traffic);
        ("fused_bound", Json.Int (Chain.ideal_ma_fused chain)) ]
  | Multi_fusion.Fallback plan ->
    let segment = function
      | Planner.Solo p ->
        Json.Obj [ ("kind", Json.String "solo"); ("traffic", Json.Int (Intra.ma p)) ]
      | Planner.Fused_pair { pattern; traffic; _ } ->
        Json.Obj
          [ ("kind", Json.String "fused");
            ("pattern", Json.String (Fusion.pattern_name pattern));
            ("traffic", Json.Int traffic) ]
    in
    outcome "chain"
      [ ("decision", Json.String "pairwise");
        ("traffic", Json.Int plan.traffic);
        ("segments", Json.List (List.map segment plan.segments)) ]

let nest_outcome (nest : Fusecu_nest.Nest.t) (r : Fusecu_nest.Search.result) =
  let s = r.schedule in
  outcome "nest"
    [ ("axes", strings (Array.to_list nest.axes));
      ("extents", ints (Array.to_list nest.extents));
      ("tiles", ints (Array.to_list s.tiles));
      ("order", strings (List.map (fun i -> nest.axes.(i)) (Array.to_list s.order)));
      ("traffic", Json.Int r.cost.total);
      ("ideal", Json.Int (Fusecu_nest.Bound.ideal nest));
      ("footprint", Json.Int (Fusecu_nest.Nest.footprint nest s));
      ("points", Json.Int (Fusecu_nest.Nest.points nest));
      ("evaluated", Json.Int r.evaluated) ]

let plan_model_outcome graph (p : Partition.t) =
  let module Graph = Fusecu_workloads.Graph in
  let name_of id = (Graph.find graph id).name in
  let ops members =
    List.fold_left (fun a n -> a + List.length (Fusecu_planner.Group.ops n)) 0 members
  in
  let group (g : Partition.group) =
    Json.Obj
      [ ("members", strings (List.map (fun (n : Graph.node) -> n.name) g.members));
        ("count", Json.Int g.count);
        ("ops", Json.Int (ops g.members));
        ("traffic", Json.Int g.traffic);
        ("hidden", Json.Int g.hidden) ]
  in
  let edge (e : Partition.edge) = Printf.sprintf "%s->%s" (name_of e.src) (name_of e.dst) in
  let s = p.stats in
  outcome "plan_model"
    [ ("nodes", Json.Int (List.length (Graph.nodes graph)));
      ("group_count", Json.Int (List.length p.groups));
      ("groups", Json.List (List.map group p.groups));
      ("fused_edges", strings (List.map edge p.selected));
      ("traffic", Json.Int p.traffic);
      ("hidden", Json.Int p.hidden);
      ("effective", Json.Int p.effective);
      ("unfused_traffic", Json.Int p.unfused_traffic);
      ("unfused_effective", Json.Int p.unfused_effective);
      ("search",
       Json.Obj
         [ ("candidate_edges", Json.Int s.candidate_edges);
           ("components", Json.Int s.components);
           ("dp_states", Json.Int s.dp_states);
           ("bnb_nodes", Json.Int s.bnb_nodes);
           ("bnb_pruned", Json.Int s.bnb_pruned) ]) ]

let traffic o =
  let name = if String.equal o.op "intra" then "ma" else "traffic" in
  match Json.parse ("{" ^ o.members ^ "}") with
  | Ok j -> (
    match Json.member name j with
    | Some (Json.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "a %s answer without %S" o.op name))
  | Error e -> Error e

let planning_op name =
  List.find_opt (String.equal name)
    [ "intra"; "fuse"; "regime"; "eval"; "chain"; "plan_model"; "nest" ]

(* Relabel a canonical-frame answer for the original (transposed)
   request: the canonical computation ran on [transpose op], whose A is
   the original B^T, B the original A^T, M the original L. Counts
   (traffic, footprint, regime, class) are invariant — see DESIGN.md §5.
   Only an intra answer names dims or operands: its tiles swap m and l,
   its loop order M and L, and its dataflow label goes through
   [transposed_label]. *)
let transposed_label =
  let swap_dim = function Dim.M -> Dim.L | Dim.L -> Dim.M | Dim.K -> Dim.K in
  let swap = function
    | Operand.A -> Operand.B
    | Operand.B -> Operand.A
    | Operand.C -> Operand.C
  in
  let transpose = function
    | Nra.Single_nra { stationary } -> Nra.Single_nra { stationary = swap stationary }
    | Nra.Two_nra { untiled; redundant } ->
      Nra.Two_nra { untiled = swap_dim untiled; redundant = swap redundant }
    | Nra.Three_nra { resident } -> Nra.Three_nra { resident = swap resident }
  in
  let table =
    List.map
      (fun d -> (Nra.dataflow_to_string d, Nra.dataflow_to_string (transpose d)))
      Nra.all_dataflows
  in
  fun label -> Option.value (find_named label table) ~default:label

(* The index of the first [pat] in [s] at or after [i]. *)
let rec index_of s pat i =
  let n = String.length pat in
  if i + n > String.length s then raise Not_found
  else
    let rec same j = j = n || (Char.equal s.[i + j] pat.[j] && same (j + 1)) in
    if same 0 then i else index_of s pat (i + 1)

(* The intra members in [intra_outcome]'s fixed layout,
   rewritten in one pass; text in any other layout, which only a
   hand-edited store can hold, is returned as it is. *)
let transpose_intra s =
  let b = Text.create (String.length s) and pos = ref 0 in
  let past pat = index_of s pat !pos + String.length pat in
  (* the text from [pos] up to the next [pat], which is left at [pos] *)
  let upto pat =
    let i = index_of s pat !pos in
    let v = String.sub s !pos (i - !pos) in
    pos := i;
    v
  in
  (* copies the text up to and including the next [pat] *)
  let through pat =
    let i = past pat in
    Text.add_substring b s !pos (i - !pos);
    pos := i
  in
  match
    through "\"tiles\":{\"m\":";
    let m = upto ",\"k\":" in
    let k = upto ",\"l\":" in
    pos := past ",\"l\":";
    Text.add_string b (upto "}");
    Text.add_string b k;
    Text.add_string b ",\"l\":";
    Text.add_string b m;
    through "\"order\":[";
    Text.add_string b (String.map (function 'M' -> 'L' | 'L' -> 'M' | c -> c) (upto "]"));
    through "\"dataflow\":\"";
    Text.add_string b (transposed_label (upto "\""));
    Text.add_substring b s !pos (String.length s - !pos)
  with
  | () -> Text.contents b
  | exception Not_found -> s

let apply_transform tf o =
  match tf with
  | Transpose_ml when String.equal o.op "intra" ->
    { o with members = transpose_intra o.members }
  | Identity | Transpose_ml -> o

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* A reply is written straight into one [Text]: [{"id":<id>,"ok":true,
   "op":<op>,"result":{<echo>,<members>}}], where the echo is the
   problem in the request's orientation and the members are the
   outcome's. Each echo field is written with the comma that follows
   it. *)

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

let response_ok ~id ~call o =
  let b = Text.create (String.length o.members + 160) in
  Text.add_string b "{\"id\":";
  Json.write b id;
  Text.add_string b ",\"ok\":true,\"op\":";
  Json.write_string b (op_name call);
  Text.add_string b ",\"result\":{";
  write_echo b call;
  Text.add_string b o.members;
  Text.add_string b "}}";
  Text.contents b

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
