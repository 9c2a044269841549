module Json = Fusecu_util.Json

(* Fleet-level aggregation of per-shard snapshots. Everything here works
   on the *wire* JSON shapes ({!Engine.stats_result} payloads and
   {!Metrics.to_json} dumps) rather than on [Metrics.t] values, because
   the shards are separate processes: the router only ever sees their
   serialized snapshots. Merging is deterministic — counters sum,
   histograms add bucket-wise (every process shares the same log2 bin
   layout, [Metrics.buckets]), and key order in merged objects is
   sorted, like the per-process encoders. *)

let ( let* ) = Result.bind

(* [f] over every element, or the first error. *)
let all f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] l

let empty_hist () =
  { Metrics.count = 0; total_s = 0.; bins = Array.make Metrics.buckets 0 }

(* Inverse of the sparse bucket encoding in [Metrics.histogram_json]:
   bin i is encoded as {"le_us": 2^(i+1), "n": _}, the final open bin as
   {"le_us": null, "n": _}. Anything that is not exactly a power-of-two
   bound from that layout is a mismatched histogram — snapshots from a
   different schema — and is refused rather than guessed at. *)
let bin_of_bound = function
  | Json.Null -> Ok (Metrics.buckets - 1)
  | Json.Int le when le >= 2 ->
    let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
    let i = log2 le 0 - 1 in
    if i >= 0 && i < Metrics.buckets - 1 && 1 lsl (i + 1) = le then Ok i
    else Error (Printf.sprintf "bucket bound %d is not a log2 bin bound" le)
  | v -> Error ("bad bucket bound " ^ Json.print v)

let parse_histogram j =
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram: missing %S" name)
  in
  let* count = Result.bind (field "count") Json.to_int in
  let* total_s = Result.bind (field "total_s") Json.to_float in
  let* entries = Result.bind (field "buckets") Json.to_list in
  let h = { (empty_hist ()) with Metrics.count; total_s } in
  let rec fill = function
    | [] ->
      if Array.fold_left ( + ) 0 h.bins <> count then
        Error "histogram: bucket sum does not match count"
      else Ok h
    | e :: rest ->
      let* n =
        match Json.member "n" e with
        | Some v -> Json.to_int v
        | None -> Error "histogram: bucket missing \"n\""
      in
      let* i =
        match Json.member "le_us" e with
        | Some v -> bin_of_bound v
        | None -> Error "histogram: bucket missing \"le_us\""
      in
      if n < 0 then Error "histogram: negative bucket count"
      else begin
        h.bins.(i) <- h.bins.(i) + n;
        fill rest
      end
  in
  fill entries

let merge_histograms (a : Metrics.histogram) (b : Metrics.histogram) =
  { Metrics.count = a.count + b.count;
    total_s = a.total_s +. b.total_s;
    bins = Array.init Metrics.buckets (fun i -> a.bins.(i) + b.bins.(i)) }

(* ------------------------------------------------------------------ *)
(* Keyed unions                                                        *)

(* An object's members, each through [conv]. *)
let entries what conv = function
  | Json.Obj kvs -> all (fun (k, v) -> Result.map (fun x -> (k, x)) (conv v)) kvs
  | _ -> Error (what ^ " is not an object")

module Tbl = Hashtbl.Make (String)

(* Union of per-shard maps: the values of one key combine with [add] in
   shard order, and keys come out sorted (the per-process encoders sort
   too, so merged output stays deterministic). *)
let union add maps =
  let tbl = Tbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         Tbl.replace tbl k
           (match Tbl.find_opt tbl k with Some acc -> add acc v | None -> v)))
    maps;
  Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A {!Metrics.to_json} dump; a family it lacks is empty. *)
let parse_dump = function
  | Json.Obj _ as d ->
    let family name conv =
      match Json.member name d with
      | Some j -> entries ("metrics " ^ name) conv j
      | None -> Ok []
    in
    let* counters = family "counters" Json.to_int in
    let* histograms = family "latency" parse_histogram in
    let* gauges = family "gauges" Json.to_float in
    Ok { Metrics.counters; histograms; gauges }
  | _ -> Error "metrics dump is not an object"

let shards_breakdown results =
  ( "shards",
    Json.List
      (List.mapi
         (fun i r -> Json.Obj [ ("shard", Json.Int i); ("result", r) ])
         results) )

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let merge_stats ~uptime_ticks results =
  let cache_field name conv r =
    match Json.member "cache" r with
    | None -> Error "stats: missing \"cache\""
    | Some cache -> (
      match Json.member name cache with
      | Some v -> conv v
      | None -> Error (Printf.sprintf "stats: missing cache field %S" name))
  in
  let sum_cache name =
    Result.map (List.fold_left ( + ) 0) (all (cache_field name Json.to_int) results)
  in
  let* enabled = all (cache_field "enabled" Json.to_bool) results in
  let* capacity = sum_cache "capacity" in
  let* entries_n = sum_cache "entries" in
  let* hits = sum_cache "hits" in
  let* misses = sum_cache "misses" in
  let* evictions = sum_cache "evictions" in
  let* coalesced = sum_cache "coalesced" in
  let* shard_entries = all (cache_field "shard_entries" Json.to_list) results in
  let* counters =
    all
      (fun r ->
        match Json.member "counters" r with
        | Some c -> entries "stats counters" Json.to_int c
        | None -> Error "stats: missing \"counters\"")
      results
  in
  (* same field order as a single server's stats payload, so fleet and
     per-process responses read identically; the hit rate is recomputed
     through the same [Cache.hit_rate] formula for float-exactness *)
  Ok
    (Json.Obj
       [ ( "cache",
           Json.Obj
             [ ("enabled", Json.Bool (List.exists Fun.id enabled));
               ("capacity", Json.Int capacity);
               ("entries", Json.Int entries_n);
               ("shard_entries", Json.List (List.concat shard_entries));
               ("hits", Json.Int hits);
               ("misses", Json.Int misses);
               ("evictions", Json.Int evictions);
               ("coalesced", Json.Int coalesced);
               ("hit_rate",
                Json.Float
                  (Cache.hit_rate
                     { Cache.hits; misses; evictions; entries = entries_n })) ] );
         ( "counters",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (union ( + ) counters)) );
         ("uptime_ticks", Json.Int uptime_ticks);
         shards_breakdown results ])

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

let merge_metrics ~uptime_ticks dumps =
  let* snaps = all parse_dump dumps in
  let family pick add = union add (List.map pick snaps) in
  (* fleet uptime is the router's own request-line count — summing the
     backends' would double-count every fanned-out control line *)
  let gauges =
    family (fun s -> s.Metrics.gauges) ( +. )
    |> List.filter (fun (k, _) -> k <> "uptime_ticks")
    |> List.cons ("uptime_ticks", float_of_int uptime_ticks)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let merged =
    { Metrics.counters = family (fun s -> s.Metrics.counters) ( + );
      histograms = family (fun s -> s.Metrics.histograms) merge_histograms;
      gauges }
  in
  Ok (Json.Obj (Metrics.snapshot_members merged @ [ shards_breakdown dumps ]))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let fleet_prometheus ?prefix ~router shards =
  let* router = parse_dump router in
  let* shards = all parse_dump shards in
  Ok (Metrics.prometheus ?prefix router shards)
