(* The seeded request corpus (corpus.mli). Each drawn line is a problem
   (an op and its members, without "op" and "id") printed with a fresh
   id, a repeat of an earlier problem, a reject or a [stats] line. The
   axes the corpus must cover — a call's lattice, the nest kind, the
   reject — advance round-robin, so every value occurs once the op has
   come up a few times; the rest is drawn from the stream. *)

module Json = Fusecu_util.Json

type problem = { op : string; members : (string * Json.t) list }

let int n = Json.Int n
let str s = Json.String s

let print ~id p =
  Json.print (Json.Obj (("op", str p.op) :: ("id", id) :: p.members))

(* ------------------------------------------------------------------ *)
(* Dimensions and buffers                                              *)

let primes = [ 2; 3; 5; 7; 11; 13; 17; 31; 61; 97; 127; 251; 509; 1021; 2039; 4093 ]

let highly_composite = [ 12; 24; 36; 48; 60; 120; 180; 240; 360; 720; 840; 1260; 1680; 2520 ]

let dim rng =
  match Rng.int rng 4 with
  | 0 -> Rng.range rng ~lo:1 ~hi:24
  | 1 -> Rng.range rng ~lo:25 ~hi:5000
  | 2 -> Rng.choose rng primes
  | _ -> Rng.choose rng highly_composite

let kib = 1024
let mib = 1024 * 1024
let max_buffer = 8 * mib

(* Byte counts from [lo] to 8 MB: whole KiB powers, quarter-MiB
   multiples, and ragged counts spread evenly over the powers of two. *)
let buffer_bytes rng ~lo =
  let b =
    match Rng.int rng 3 with
    | 0 -> kib lsl Rng.range rng ~lo:0 ~hi:13
    | 1 -> mib / 4 * Rng.range rng ~lo:1 ~hi:32
    | _ ->
      let e = Rng.range rng ~lo:1 ~hi:22 in
      Rng.range rng ~lo:(1 lsl e) ~hi:(2 lsl e)
  in
  max lo (min max_buffer b)

(* One of the spellings [Units.parse_bytes] reads as [bytes]. *)
let spell rng bytes =
  let whole unit names =
    if bytes mod unit = 0 then
      List.map (fun n -> str (Printf.sprintf "%d%s" (bytes / unit) n)) names
    else []
  in
  let fractional =
    if bytes mod (mib / 4) = 0 && bytes mod mib <> 0 then
      [ str (Printf.sprintf "%gMB" (float_of_int bytes /. float_of_int mib)) ]
    else []
  in
  Rng.choose rng
    ([ int bytes; str (string_of_int bytes); str (Printf.sprintf "%dB" bytes) ]
    @ whole kib [ "KB"; "KiB"; "k"; " kb" ]
    @ whole mib [ "MB"; "MiB"; "m" ]
    @ fractional)

(* A buffer of at least 3 elements, and its element width when it is
   not the default 1. *)
let buffer rng =
  let elt = Rng.choose rng [ 1; 1; 1; 2; 4 ] in
  let bytes = buffer_bytes rng ~lo:(3 * elt) in
  ("buffer", spell rng bytes)
  :: (if elt = 1 && Rng.bool rng then [] else [ ("elt_bytes", int elt) ])

(* Nest searches grow fast with the buffer too: 3 to 512 elements. *)
let nest_buffer rng = [ ("buffer", spell rng (Rng.range rng ~lo:3 ~hi:512)) ]

let lattices = [| None; Some "exact"; Some "divisors"; Some "pow2" |]

(* ------------------------------------------------------------------ *)
(* Problems                                                            *)

let models = List.map (fun (m : Fusecu_workloads.Model.t) -> m.name) Fusecu_workloads.Zoo.all

let model_spelling rng name =
  match Rng.int rng 3 with
  | 0 -> name
  | 1 -> String.lowercase_ascii name
  | _ -> String.uppercase_ascii name

let nest_kinds = [| "matmul"; "conv2d"; "batched_mm"; "grouped_mm"; "attention" |]

let small rng hi = int (Rng.range rng ~lo:1 ~hi)

let nest_members rng = function
  | "matmul" -> [ ("m", small rng 16); ("k", small rng 16); ("l", small rng 16) ]
  | "conv2d" ->
    (* the window must fit the padded input: h, w >= dilation(r-1)+1-2 padding *)
    let r = Rng.range rng ~lo:1 ~hi:3 and s = Rng.range rng ~lo:1 ~hi:3 in
    let stride = Rng.range rng ~lo:1 ~hi:3 in
    let dilation = Rng.range rng ~lo:1 ~hi:2 in
    let padding = Rng.range rng ~lo:0 ~hi:1 in
    let side e = Rng.range rng ~lo:(max 1 ((dilation * (e - 1)) + 1 - (2 * padding))) ~hi:9 in
    let h = side r and w = side s in
    [ ("n", small rng 2); ("c", small rng 4); ("h", int h); ("w", int w);
      ("k", small rng 4); ("r", int r); ("s", int s) ]
    @ (if stride > 1 then [ ("stride", int stride) ] else [])
    @ (if padding > 0 then [ ("padding", int padding) ] else [])
    @ if dilation > 1 then [ ("dilation", int dilation) ] else []
  | "batched_mm" ->
    [ ("b", small rng 4); ("m", small rng 12); ("k", small rng 12); ("l", small rng 12) ]
  | "grouped_mm" ->
    [ ("groups", small rng 3); ("heads", small rng 3); ("m", small rng 8);
      ("k", small rng 8); ("l", small rng 8) ]
  | _ ->
    let d = Rng.range rng ~lo:1 ~hi:8 in
    [ ("seq_q", small rng 16); ("seq_k", small rng 16); ("d", int d) ]
    @ if Rng.bool rng then [ ("dv", int (1 + ((d + Rng.range rng ~lo:0 ~hi:6) mod 8))) ] else []

type state = {
  rng : Rng.t;
  mutable turns : (string * int) list;  (* round-robin counters by axis *)
  mutable seen : (problem * string) list;  (* drawn problems and lines, newest first *)
  mutable seen_count : int;
  mutable next_id : int;
}

(* The next value of a round-robin axis. *)
let turn st axis values =
  let n = Option.value ~default:0 (List.assoc_opt axis st.turns) in
  st.turns <- (axis, n + 1) :: List.remove_assoc axis st.turns;
  values.(n mod Array.length values)

let with_mode st op members =
  match turn st op lattices with
  | None -> members
  | Some mode -> members @ [ ("mode", str mode) ]

let fresh st =
  let rng = st.rng in
  let mm () = [ ("m", int (dim rng)); ("k", int (dim rng)); ("l", int (dim rng)) ] in
  let op =
    Rng.choose rng
      [ "intra"; "intra"; "intra"; "intra"; "fuse"; "fuse"; "regime"; "chain"; "chain";
        "eval"; "plan_model"; "nest"; "nest"; "nest" ]
  in
  let members =
    match op with
    | "intra" -> with_mode st op (mm () @ buffer rng)
    | "fuse" -> with_mode st op (mm () @ [ ("l2", int (dim rng)) ] @ buffer rng)
    | "regime" -> mm () @ buffer rng
    | "chain" ->
      let ks = List.init (Rng.range rng ~lo:2 ~hi:5) (fun _ -> int (dim rng)) in
      with_mode st op ([ ("m", int (dim rng)); ("ks", Json.List ks) ] @ buffer rng)
    | "eval" ->
      with_mode st op
        ((("model", str (model_spelling rng (Rng.choose rng models))) :: buffer rng))
    | "plan_model" ->
      let layers = Rng.range rng ~lo:1 ~hi:3 in
      with_mode st op
        ((("model", str (model_spelling rng (Rng.choose rng models)))
         :: (if layers > 1 then [ ("layers", int layers) ] else []))
        @ buffer rng)
    | _ ->
      let kind = turn st "kind" nest_kinds in
      with_mode st op ((("kind", str kind) :: nest_members rng kind) @ nest_buffer rng)
  in
  { op; members }

(* The one-shot extremes: one dimension of 2^20 to 2^40 (a fused or
   chained [m] of 2^16 to 2^20: their plans take longer to find) beside
   small ones, or a buffer of [max_int] bytes. *)
let extreme st =
  let rng = st.rng in
  let huge lo hi = int (1 lsl Rng.range rng ~lo ~hi) in
  let few () = small rng 8 in
  let buffer () = if Rng.bool rng then [ ("buffer", int max_int) ] else buffer rng in
  let op = Rng.choose rng [ "intra"; "regime"; "fuse"; "chain"; "eval"; "plan_model" ] in
  let members =
    match op with
    | "intra" | "regime" ->
      let at = Rng.int rng 3 in
      List.mapi (fun i d -> (d, if i = at then huge 20 40 else few ())) [ "m"; "k"; "l" ]
      @ buffer ()
    | "fuse" -> [ ("m", huge 16 20); ("k", few ()); ("l", few ()); ("l2", few ()) ] @ buffer ()
    | "chain" ->
      [ ("m", huge 16 20); ("ks", Json.List (List.init (Rng.range rng ~lo:2 ~hi:4) (fun _ -> few ()))) ]
      @ buffer ()
    | _ -> [ ("model", str (Rng.choose rng models)); ("buffer", int max_int) ]
  in
  { op; members = (if op = "regime" then members else with_mode st op members) }

(* ------------------------------------------------------------------ *)
(* Repeats                                                             *)

let swap_ml = List.map (function "m", v -> ("l", v) | "l", v -> ("m", v) | kv -> kv)

(* The same canonical problem written another way. *)
let respell rng p =
  let members =
    List.map
      (function
        | "buffer", v -> (
          let bytes =
            match v with
            | Json.Int n -> Some n
            | Json.String s -> Result.to_option (Fusecu_util.Units.parse_bytes s)
            | _ -> None
          in
          match bytes with Some b -> ("buffer", spell rng b) | None -> ("buffer", v))
        | "model", Json.String m -> ("model", str (model_spelling rng m))
        | kv -> kv)
      p.members
  in
  let members =
    if p.op = "regime" || List.mem_assoc "mode" members then members
    else members @ [ ("mode", str "divisors") ]
  in
  { p with members = (if Rng.bool rng then List.rev members else members) }

let repeat st =
  let rng = st.rng in
  let p, line = List.nth st.seen (Rng.int rng st.seen_count) in
  match Rng.int rng 3 with
  | 0 -> `Line line
  | 1 when p.op = "intra" || p.op = "regime" -> `Problem { p with members = swap_ml p.members }
  | _ -> `Problem (respell rng p)

(* ------------------------------------------------------------------ *)
(* Rejects, one error code after another                               *)

let rejects =
  [| (* parse_error *)
     (fun _ _ -> `Line "this is not json");
     (* bad_request: a missing member, a zero dim, an unknown mode, a
        one-entry chain, too many layers, traffic past 63 bits *)
     (fun rng id ->
       `Line
         (Rng.choose rng
            [ Printf.sprintf {|{"op":"intra","id":%d,"m":%d,"k":%d}|} id (dim rng) (dim rng);
              Printf.sprintf {|{"op":"intra","id":%d,"m":0,"k":4,"l":4}|} id;
              Printf.sprintf {|{"op":"fuse","id":%d,"m":8,"k":8,"l":8,"l2":8,"mode":"fast"}|} id;
              Printf.sprintf {|{"op":"chain","id":%d,"m":8,"ks":[%d]}|} id (dim rng);
              Printf.sprintf {|{"op":"plan_model","id":%d,"model":"bert","layers":65}|} id;
              Printf.sprintf {|{"op":"intra","id":%d,"m":%d,"k":%d,"l":%d}|} id max_int
                max_int max_int ]));
     (* unsupported_version *)
     (fun rng id ->
       `Line
         (Printf.sprintf {|{"op":"intra","v":%d,"id":%d,"m":8,"k":8,"l":8}|}
            (Rng.range rng ~lo:2 ~hi:9) id));
     (* unknown_op *)
     (fun rng id ->
       `Line (Printf.sprintf {|{"op":"%s","id":%d}|} (Rng.choose rng [ "warp"; "optimize"; "Intra" ]) id));
     (* unknown_model *)
     (fun rng id ->
       `Line
         (Printf.sprintf {|{"op":"%s","id":%d,"model":"not-a-model"}|}
            (Rng.choose rng [ "eval"; "plan_model" ]) id));
     (* parse_error again: a line cut short *)
     (fun rng id ->
       let line = Printf.sprintf {|{"op":"intra","id":%d,"m":12,"k":8,"l":10}|} id in
       `Line (String.sub line 0 (Rng.range rng ~lo:1 ~hi:(String.length line - 1))));
     (* infeasible: fewer than 3 elements for an intra, fuse or chain,
        or a nest buffer that cannot hold one tile per tensor *)
     (fun rng _ ->
       let b = ("buffer", int (Rng.range rng ~lo:1 ~hi:2)) in
       `Problem
         (Rng.choose rng
            [ { op = "intra"; members = [ ("m", int 8); ("k", int 8); ("l", int 8); b ] };
              { op = "fuse"; members = [ ("m", int 8); ("k", int 8); ("l", int 8); ("l2", int 8); b ] };
              { op = "chain"; members = [ ("m", int 8); ("ks", Json.List [ int 8; int 8; int 8 ]); b ] };
              { op = "nest"; members = [ ("kind", str "matmul"); ("m", int 4); ("k", int 4); ("l", int 4); b ] } ])) |]

(* ------------------------------------------------------------------ *)

let draw st =
  let rng = st.rng in
  let id = st.next_id in
  st.next_id <- id + 1;
  let emit_problem p =
    let line = print ~id:(int id) p in
    st.seen <- (p, line) :: st.seen;
    st.seen_count <- st.seen_count + 1;
    line
  in
  match Rng.int rng 50 with
  | 0 -> Printf.sprintf {|{"op":"stats","id":%d}|} id
  | 1 | 2 -> (
    match (turn st "reject" rejects) rng id with
    | `Line l -> l
    | `Problem p -> print ~id:(int id) p)
  | 3 -> emit_problem (extreme st)
  | n when n < 12 && st.seen_count > 0 -> (
    match repeat st with `Line l -> l | `Problem p -> print ~id:(int id) p)
  | _ -> emit_problem (fresh st)

let make ~prefix ~seed ~size =
  let st = { rng = Rng.make seed; turns = []; seen = []; seen_count = 0; next_id = 1000 } in
  prefix @ List.init size (fun _ -> draw st)
