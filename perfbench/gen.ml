(* Seeded request generators for the three benchmark workloads.

   Every workload is a pure function of (seed, size): the same seed
   gives byte-identical request lines. The server never sees the seed,
   only the lines. Request ids are the line index, so every response
   line is unique and a transcript digest pins the whole run.

   Each workload is a fixed population of problems, drawn from a
   constant stream, in fixed class counts; the seed chooses the order,
   the spelling of each request (buffer units, transposes) and the
   oracle's sample. Two seeds therefore time the same work and report
   the same plans, so their latency quantiles can be compared with a
   tight bound and [traffic_over_bound] is one number per workload and
   size. The class weights are synthetic, chosen so that each median
   and 99th percentile falls inside one class rather than on a
   boundary between two; no recorded traffic stands behind them. *)

open Fusecu_util
open Fusecu_service
module Rng = Fusecu_oracle.Rng

type workload = Miss_mix | Hit_repeat | Nest_miss

let all = [ Miss_mix; Hit_repeat; Nest_miss ]

let name = function Miss_mix -> "miss_mix" | Hit_repeat -> "hit_repeat" | Nest_miss -> "nest_miss"

let of_name s = List.find_opt (fun w -> name w = s) all

(* How a workload's server starts. *)
type store =
  | No_store
  | Fresh_store  (** each server lifetime gets a new, empty [--store] *)
  | Prepared of { hot : string list; cold : int }
      (** every lifetime warm-starts from one store holding the answers
          to [hot] plus [cold] unrelated intra records, built before any
          timing *)

type t = {
  workload : workload;
  requests : string array;
  passes : int;  (** end-to-end passes over [requests]; set by --seconds alone *)
  stream_rounds : int;  (** times a pass's stream sends [requests] *)
  fill : string array;  (** sent untimed to every server after its warm-up *)
  cache_entries : int option;  (** [--cache-entries]; [None] = default *)
  store : store;
}

(* Sent once per server lifetime before timing starts. Its 3x5x7 shape
   is below every generated dimension, so its key is outside every
   workload. *)
let warmup_line = {|{"op":"intra","id":"warmup","m":3,"k":5,"l":7,"buffer":"1KB"}|}

(* The stream every workload's problems are drawn from, whatever the
   seed. *)
let problem_stream () = Rng.make 0x5eed

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [counts] classes laid out by multiplicity, then shuffled. *)
let stratified rng counts =
  let a = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) counts) in
  shuffle rng a;
  a

(* Request counts are sized for a 10-second run; shorter runs (the
   smoke test) scale them down, longer ones repeat more passes. *)
let scaled ~seconds base = max 1 (base * min seconds 10 / 10)

(* Passes of a run: --seconds over the seconds one pass takes on a
   2-vCPU Xeon host at full speed. The count depends on nothing
   measured, so a faster build of the code makes the same number of
   passes as a slower one. *)
let passes ~seconds ~pass_s = max 1 (int_of_float (Float.round (float_of_int seconds /. pass_s)))

let mult rng ~step ~lo ~hi = step * Rng.range rng ~lo:(lo / step) ~hi:(hi / step)

let line fields = Json.print (Json.Obj fields)

let ints fields = List.map (fun (k, v) -> (k, Json.Int v)) fields

(* A whole number of KiB spelled one of the ways clients write it:
   every spelling parses to the same buffer, so the response and the
   cache key are unchanged. *)
let spell_buffer rng bytes =
  let kib = bytes / 1024 in
  match Rng.int rng 4 with
  | 0 -> Json.Int bytes
  | 1 -> Json.String (Units.pp_bytes bytes)
  | 2 -> Json.String (Printf.sprintf "%dK" kib)
  | _ -> Json.String (Printf.sprintf "%dKiB" kib)

let key_of line =
  match Protocol.parse_line line with
  | Ok (_, _, Protocol.Call call) -> Protocol.cache_key (fst (Protocol.canonicalize call))
  | _ -> invalid_arg ("Gen.key_of: not a call: " ^ line)

(* Draws until the request [line] makes of the draw has a canonical
   key not in [seen]. *)
let rec distinct seen ~line draw =
  let x = draw () in
  let k = key_of (line x) in
  if Hashtbl.mem seen k then distinct seen ~line draw
  else begin
    Hashtbl.replace seen k ();
    x
  end

(* ------------------------------------------------------------------ *)
(* miss_mix                                                            *)

let miss_buffers = [ 64; 128; 256; 512; 1024 ]

(* 50% intra, 20% fuse, 20% chain, 10% regime (the mix is a synthetic
   choice); every canonical key distinct, so every request is a miss.
   The server runs with the default cache, and before timing each
   lifetime answers [cache_fill], so the cache is full when the timed
   requests start: every miss evicts an LRU entry and is appended to the
   store, as on a server that has been up for a while. Fuse and chain
   misses (2-5 ms each) carry the 99th percentile, intra misses the
   median. *)

(* One miss_mix problem: its op, its fields but the buffer, and the
   buffer in bytes. *)
let miss_problem rng kind =
  let dim ?(step = 32) hi = Json.Int (mult rng ~step ~lo:step ~hi) in
  let bytes = 1024 * Rng.choose rng miss_buffers in
  match kind with
  | `Intra -> ("intra", [ ("m", dim 1024); ("k", dim 1024); ("l", dim 1024) ], bytes)
  | `Regime -> ("regime", [ ("m", dim ~step:16 2048); ("k", dim ~step:16 2048); ("l", dim ~step:16 2048) ], bytes)
  | `Fuse -> ("fuse", [ ("m", dim 320); ("k", dim 320); ("l", dim 320); ("l2", dim 320) ], bytes)
  | `Chain ->
    let ks = List.init (Rng.range rng ~lo:3 ~hi:4) (fun _ -> dim 320) in
    ("chain", [ ("m", dim 320); ("ks", Json.List ks) ], bytes)

let miss_line ~id ~buffer (op, fields, _) =
  line ((("op", Json.String op) :: ("id", Json.Int id) :: fields) @ [ ("buffer", buffer) ])

(* Untimed requests that fill every shard of a default-sized server
   cache: distinct regime problems (the cheapest op) with dimensions
   above any workload's, added to a cache built like the server's until
   no shard has room left. *)
let cache_fill () =
  let config = Engine.default_config () in
  let capacity = config.Engine.cache_entries in
  if capacity = 0 then [||]
  else begin
    let shards = max 1 (min config.Engine.cache_shards capacity) in
    let per_shard = Arith.ceil_div capacity shards in
    let cache = Cache.create ~shards ~capacity () in
    let full () = List.for_all (fun n -> n >= per_shard) (Cache.shard_occupancy cache) in
    let seen = Hashtbl.create capacity in
    let rec go i acc =
      if full () then Array.of_list (List.rev acc)
      else
        let d j = 2064 + (16 * (j mod 64)) in
        let l =
          line
            ([ ("op", Json.String "regime"); ("id", Json.String "fill") ]
            @ ints [ ("m", d i); ("k", d (i / 4096)); ("l", d (i / 64)) ]
            @ [ ("buffer", Json.Int (256 * 1024)) ])
        in
        let key = key_of l in
        if Hashtbl.mem seen key then go (i + 1) acc
        else begin
          Hashtbl.replace seen key ();
          Cache.add cache key ();
          go (i + 1) (l :: acc)
        end
    in
    go 0 []
  end

let miss_mix ~seed ~seconds =
  let n = scaled ~seconds 1000 in
  let seen = Hashtbl.create n in
  Hashtbl.replace seen (key_of warmup_line) ();
  let fixed = problem_stream () in
  let draw (kind, count) =
    List.init count (fun _ ->
        distinct seen
          ~line:(fun ((_, _, bytes) as p) -> miss_line ~id:0 ~buffer:(Json.Int bytes) p)
          (fun () -> miss_problem fixed kind))
  in
  let problems =
    Array.of_list
      (List.concat_map draw
         [ (`Intra, n / 2); (`Fuse, n / 5); (`Chain, n / 5); (`Regime, n - (n / 2) - (2 * (n / 5))) ])
  in
  let rng = Rng.make seed in
  shuffle rng problems;
  let requests =
    Array.mapi (fun id ((_, _, bytes) as p) -> miss_line ~id ~buffer:(spell_buffer rng bytes) p) problems
  in
  { workload = Miss_mix; requests; passes = passes ~seconds ~pass_s:2.7; stream_rounds = 1;
    fill = cache_fill (); cache_entries = None; store = Fresh_store }

(* ------------------------------------------------------------------ *)
(* hit_repeat                                                          *)

(* A hot problem in the shape it is first computed; [resend] respells
   it without changing its canonical key. *)
type hot = {
  op : string;
  dims : (string * int) list;
  extra : (string * Json.t) list;  (** chain ks *)
  bytes : int;
}

let hot_line ~id ?(elt_bytes = 1) ~buffer h =
  line
    ((("op", Json.String h.op) :: ("id", Json.Int id) :: ints h.dims)
    @ h.extra
    @ [ ("buffer", buffer) ]
    @ if elt_bytes = 1 then [] else [ ("elt_bytes", Json.Int elt_bytes) ])

(* M<->L transpose (intra and regime canonicalize it away), a
   respelled buffer, and sometimes the same element capacity expressed
   as twice the bytes of two-byte elements: all hit the same entry. *)
let resend rng ~id h =
  let dims =
    match h.op with
    | "intra" | "regime" when Rng.bool rng ->
      List.map
        (function "m", _ -> ("m", List.assoc "l" h.dims) | "l", _ -> ("l", List.assoc "m" h.dims) | kv -> kv)
        h.dims
    | _ -> h.dims
  in
  let h = { h with dims } in
  if Rng.int rng 4 = 0 then hot_line ~id ~elt_bytes:2 ~buffer:(spell_buffer rng (2 * h.bytes)) h
  else hot_line ~id ~buffer:(spell_buffer rng h.bytes) h

(* 70% intra, 10% each regime, fuse and chain hot problems (a synthetic
   mix), each re-sent the same number of times. Every request hits, so
   the stream sends the list three times over to last long enough to
   time. *)
let hit_repeat ~seed ~seconds =
  let hot_n = min 2048 (scaled ~seconds 2048) in
  let sends = 10 in
  let seen = Hashtbl.create hot_n in
  Hashtbl.replace seen (key_of warmup_line) ();
  let fixed = problem_stream () in
  let draw (kind, count) =
    List.init count (fun _ ->
        distinct seen
          ~line:(fun h -> hot_line ~id:0 ~buffer:(Json.Int h.bytes) h)
          (fun () ->
            let d () = mult fixed ~step:32 ~lo:32 ~hi:768 in
            let small () = mult fixed ~step:32 ~lo:32 ~hi:384 in
            let bytes = 1024 * Rng.choose fixed miss_buffers in
            match kind with
            | `Intra -> { op = "intra"; dims = [ ("m", d ()); ("k", d ()); ("l", d ()) ]; extra = []; bytes }
            | `Regime -> { op = "regime"; dims = [ ("m", d ()); ("k", d ()); ("l", d ()) ]; extra = []; bytes }
            | `Fuse ->
              { op = "fuse"; dims = [ ("m", small ()); ("k", small ()); ("l", small ()); ("l2", small ()) ];
                extra = []; bytes }
            | `Chain ->
              { op = "chain"; dims = [ ("m", small ()) ];
                extra = [ ("ks", Json.List (List.init 3 (fun _ -> Json.Int (small ())))) ]; bytes }))
  in
  let hot =
    List.concat_map draw
      [ (`Intra, hot_n * 7 / 10); (`Regime, hot_n / 10); (`Fuse, hot_n / 10);
        (`Chain, hot_n - (hot_n * 7 / 10) - (2 * (hot_n / 10))) ]
  in
  let rng = Rng.make seed in
  let requests = Array.mapi (fun id h -> resend rng ~id h) (stratified rng (List.map (fun h -> (h, sends)) hot)) in
  let cold = max 256 (scaled ~seconds 20_480) in
  { workload = Hit_repeat;
    requests;
    passes = passes ~seconds ~pass_s:2.4;
    stream_rounds = 3;
    fill = [||];
    cache_entries = Some 65536;
    store =
      Prepared
        { hot = List.mapi (fun id h -> hot_line ~id ~buffer:(Json.Int h.bytes) h) hot;
          cold } }

(* The cold records: intra plans under the [pow2] lattice, a mode no
   workload request uses, so no request ever hits them. A fixed grid,
   independent of the seed. *)
let cold_calls count =
  List.init count (fun i ->
      let d j = 8 * (1 + j mod 32) in
      let op = Fusecu_tensor.Matmul.make ~m:(d i) ~k:(d (i / 32)) ~l:(d (i / 1024)) () in
      Protocol.Intra
        { op; buffer = Fusecu_loopnest.Buffer.make (256 * 1024); mode = Fusecu_core.Mode.Pow2 })

(* ------------------------------------------------------------------ *)
(* nest_miss                                                           *)

(* Nest requests of all five kinds, shapes spread around
   [Zoo.nest_cases]. Search cost grows with the number of loop orders
   over the active axes, so the workload has two bands:

   - cheap (~0.5 ms): matmul, batched MM and 1x1 conv with random
     shapes, 95% of requests, which carries the median;
   - costly (5-50 ms): grouped MM, attention pairs and 3x3 convs, one
     request per template shape, which carries the 99th percentile.

   The zoo's 14x14x16 conv3x3 is left out: its 0.7 s search, a third of
   a stream, stalls one batch-64 barrier and made throughput swing by
   a quarter between passes. Runs shorter than the default keep a
   quarter of the templates.

   The bands' sizes are synthetic. The costly band is a grid of
   templates rather than random shapes because its search cost varies
   by 10x between random shapes. *)
let nest_templates =
  let gmm =
    List.concat_map
      (fun (groups, heads) ->
        List.map
          (fun (m, k, l) ->
            ("grouped_mm", [ ("groups", groups); ("heads", heads); ("m", m); ("k", k); ("l", l) ], 1024))
          [ (16, 32, 48); (32, 32, 32); (48, 16, 32); (32, 48, 16) ])
      [ (2, 2); (2, 4); (4, 2); (4, 4) ]
  in
  let attn =
    List.concat_map
      (fun seq_q ->
        List.concat_map
          (fun seq_k ->
            List.map
              (fun d -> ("attention", [ ("seq_q", seq_q); ("seq_k", seq_k); ("d", d) ], 2048))
              [ 32; 64 ])
          [ 32; 64 ])
      [ 32; 48; 64 ]
  in
  let conv =
    List.concat_map
      (fun (c, k) ->
        List.concat_map
          (fun hw ->
            List.map
              (fun strided ->
                ( "conv2d",
                  [ ("n", 1); ("c", c); ("h", hw); ("w", hw); ("k", k); ("r", 3); ("s", 3) ]
                  @ (if strided then [ ("stride", 2); ("padding", 1) ] else []),
                  768 ))
              [ false; true ])
          [ 5; 6; 7 ])
      [ (4, 4); (4, 8); (8, 4); (8, 8) ]
  in
  gmm @ attn @ conv

let nest_miss ~seed ~seconds =
  let n = scaled ~seconds 1000 in
  let seen = Hashtbl.create n in
  Hashtbl.replace seen (key_of warmup_line) ();
  let costly = List.filteri (fun i _ -> n >= 1000 || i mod 4 = 0) nest_templates in
  let cheap = n - List.length costly in
  let nest ~id (kind, dims, buffer) =
    line
      ((("op", Json.String "nest") :: ("id", Json.Int id) :: ("kind", Json.String kind) :: ints dims)
      @ [ ("buffer", Json.Int buffer) ])
  in
  let fixed = problem_stream () in
  let draw (k, count) =
    List.init count (fun _ ->
        distinct seen ~line:(nest ~id:0) (fun () ->
            match k with
            | `Matmul ->
              let d () = mult fixed ~step:16 ~lo:16 ~hi:256 in
              let dims = [ ("m", d ()); ("k", d ()); ("l", d ()) ] in
              ("matmul", dims, mult fixed ~step:64 ~lo:256 ~hi:4096)
            | `Bmm ->
              let d () = mult fixed ~step:16 ~lo:16 ~hi:96 in
              let dims = [ ("b", Rng.range fixed ~lo:2 ~hi:16); ("m", d ()); ("k", d ()); ("l", d ()) ] in
              ("batched_mm", dims, mult fixed ~step:64 ~lo:512 ~hi:2048)
            | `Conv1 ->
              let hw = Rng.range fixed ~lo:4 ~hi:14 and c = Rng.choose fixed [ 4; 8; 16 ] in
              let dims =
                [ ("n", 1); ("c", c); ("h", hw); ("w", hw); ("k", Rng.choose fixed [ 4; 8; 16 ]); ("r", 1); ("s", 1) ]
              in
              ("conv2d", dims, mult fixed ~step:64 ~lo:512 ~hi:1024)))
  in
  let problems =
    Array.of_list
      (costly
      @ List.concat_map draw
          [ (`Matmul, cheap * 41 / 100); (`Bmm, cheap * 32 / 100);
            (`Conv1, cheap - (cheap * 41 / 100) - (cheap * 32 / 100)) ])
  in
  shuffle (Rng.make seed) problems;
  { workload = Nest_miss; requests = Array.mapi (fun id p -> nest ~id p) problems;
    passes = passes ~seconds ~pass_s:2.4; stream_rounds = 1; fill = [||]; cache_entries = None;
    store = No_store }

let make workload ~seed ~seconds =
  match workload with
  | Miss_mix -> miss_mix ~seed ~seconds
  | Hit_repeat -> hit_repeat ~seed ~seconds
  | Nest_miss -> nest_miss ~seed ~seconds
