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

type hist = { count : int; total_s : float; bins : int array }

let empty_hist () =
  { count = 0; total_s = 0.; bins = Array.make Metrics.buckets 0 }

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
  let h = { count; total_s; bins = Array.make Metrics.buckets 0 } in
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

let merge_histograms a b =
  { count = a.count + b.count;
    total_s = a.total_s +. b.total_s;
    bins = Array.init Metrics.buckets (fun i -> a.bins.(i) + b.bins.(i)) }

(* ------------------------------------------------------------------ *)
(* Keyed unions                                                        *)

let obj_entries what j =
  match j with
  | Json.Obj kvs -> Ok kvs
  | _ -> Error (what ^ " is not an object")

(* Union-sum of per-shard integer maps, keys sorted (the per-process
   encoders sort too, so merged output stays deterministic). *)
let sum_counters maps =
  let tbl = Hashtbl.create 32 in
  let rec add_all = function
    | [] -> Ok ()
    | kvs :: rest ->
      let rec add = function
        | [] -> add_all rest
        | (k, v) :: kvs ->
          let* n = Json.to_int v in
          Hashtbl.replace tbl k
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl k));
          add kvs
      in
      add kvs
  in
  let* () = add_all maps in
  Ok
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let sum_gauges maps =
  let tbl = Hashtbl.create 16 in
  let rec add_all = function
    | [] -> Ok ()
    | kvs :: rest ->
      let rec add = function
        | [] -> add_all rest
        | (k, v) :: kvs ->
          let* f = Json.to_float v in
          Hashtbl.replace tbl k
            (f +. Option.value ~default:0. (Hashtbl.find_opt tbl k));
          add kvs
      in
      add kvs
  in
  let* () = add_all maps in
  Ok
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let merge_hist_maps maps =
  let tbl = Hashtbl.create 16 in
  let rec add_all = function
    | [] -> Ok ()
    | kvs :: rest ->
      let rec add = function
        | [] -> add_all rest
        | (k, v) :: kvs ->
          let* h = parse_histogram v in
          let merged =
            match Hashtbl.find_opt tbl k with
            | Some prev -> merge_histograms prev h
            | None -> h
          in
          Hashtbl.replace tbl k merged;
          add kvs
      in
      add kvs
  in
  let* () = add_all maps in
  Ok
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let shards_breakdown results =
  ( "shards",
    Json.List
      (List.mapi
         (fun i r -> Json.Obj [ ("shard", Json.Int i); ("result", r) ])
         results) )

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let merge_stats ~uptime_ticks results =
  let cache_field name r =
    let* cache =
      match Json.member "cache" r with
      | Some c -> Ok c
      | None -> Error "stats: missing \"cache\""
    in
    match Json.member name cache with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "stats: missing cache field %S" name)
  in
  let sum_cache name =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* v = Result.bind (cache_field name r) Json.to_int in
        Ok (acc + v))
      (Ok 0) results
  in
  let* enabled =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* b = Result.bind (cache_field "enabled" r) Json.to_bool in
        Ok (acc || b))
      (Ok false) results
  in
  let* capacity = sum_cache "capacity" in
  let* entries = sum_cache "entries" in
  let* hits = sum_cache "hits" in
  let* misses = sum_cache "misses" in
  let* evictions = sum_cache "evictions" in
  let* coalesced = sum_cache "coalesced" in
  let* shard_entries =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* l = Result.bind (cache_field "shard_entries" r) Json.to_list in
        Ok (acc @ l))
      (Ok []) results
  in
  let* counter_maps =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* c =
          match Json.member "counters" r with
          | Some c -> obj_entries "stats counters" c
          | None -> Error "stats: missing \"counters\""
        in
        Ok (c :: acc))
      (Ok []) results
  in
  let* counters = sum_counters (List.rev counter_maps) in
  (* same field order as a single server's stats payload, so fleet and
     per-process responses read identically; the hit rate is recomputed
     through the same [Cache.hit_rate] formula for float-exactness *)
  Ok
    (Json.Obj
       [ ( "cache",
           Json.Obj
             [ ("enabled", Json.Bool enabled);
               ("capacity", Json.Int capacity);
               ("entries", Json.Int entries);
               ("shard_entries", Json.List shard_entries);
               ("hits", Json.Int hits);
               ("misses", Json.Int misses);
               ("evictions", Json.Int evictions);
               ("coalesced", Json.Int coalesced);
               ("hit_rate",
                Json.Float (Cache.hit_rate { Cache.hits; misses; evictions; entries }))
             ] );
         ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
         ("uptime_ticks", Json.Int uptime_ticks);
         shards_breakdown results ])

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

let merge_metrics ~uptime_ticks dumps =
  let member_entries name j =
    match Json.member name j with
    | Some v -> obj_entries ("metrics " ^ name) v
    | None -> Error (Printf.sprintf "metrics: missing %S" name)
  in
  let* counter_maps =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* c = member_entries "counters" d in
        Ok (c :: acc))
      (Ok []) dumps
  in
  let* counters = sum_counters (List.rev counter_maps) in
  let* hist_maps =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* h = member_entries "latency" d in
        Ok (h :: acc))
      (Ok []) dumps
  in
  let* hists = merge_hist_maps (List.rev hist_maps) in
  let* gauge_maps =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        match Json.member "gauges" d with
        | Some g ->
          let* g = obj_entries "metrics gauges" g in
          Ok (g :: acc)
        | None -> Ok acc)
      (Ok []) dumps
  in
  let* gauges = sum_gauges (List.rev gauge_maps) in
  (* fleet uptime is the router's own request-line count — summing the
     backends' would double-count every fanned-out control line *)
  let gauges =
    List.filter (fun (k, _) -> k <> "uptime_ticks") gauges
    @ [ ("uptime_ticks", float_of_int uptime_ticks) ]
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Ok
    (Json.Obj
       [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
         ("latency",
          Json.Obj
            (List.map
               (fun (k, h) ->
                 (k, Metrics.histogram_json ~count:h.count ~total_s:h.total_s h.bins))
               hists));
         ("gauges",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gauges));
         shards_breakdown dumps ])

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

type parsed_dump = {
  counters : (string * int) list;
  hists : (string * hist) list;
  gauges : (string * float) list;
}

let parse_dump d =
  let* counters =
    match Json.member "counters" d with
    | Some c ->
      let* kvs = obj_entries "counters" c in
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* n = Json.to_int v in
          Ok ((k, n) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | None -> Ok []
  in
  let* hists =
    match Json.member "latency" d with
    | Some l ->
      let* kvs = obj_entries "latency" l in
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* h = parse_histogram v in
          Ok ((k, h) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | None -> Ok []
  in
  let* gauges =
    match Json.member "gauges" d with
    | Some g ->
      let* kvs = obj_entries "gauges" g in
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* f = Json.to_float v in
          Ok ((k, f) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | None -> Ok []
  in
  Ok { counters; hists; gauges }

(* [List.assoc_opt] would compare names polymorphically *)
let find_named name =
  List.find_map (fun (k, v) -> if String.equal k name then Some v else None)

(* Family names across the whole fleet, sorted. [pick] projects the
   per-dump association list for one metric family kind. *)
let family_names pick router shards =
  List.sort_uniq String.compare
    (List.map fst (pick router)
    @ List.concat_map (fun d -> List.map fst (pick d)) shards)

let fleet_prometheus ?(prefix = "fusecu_") ~router shards =
  let* router = parse_dump router in
  let* shards =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* p = parse_dump d in
        Ok (p :: acc))
      (Ok []) shards
    |> Result.map List.rev
  in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (* Counters and gauges: one TYPE line per family, the router's own
     series unlabeled, each shard's series labeled {shard="i"}. Router
     metric names ("router_" prefixed) and backend names are disjoint in
     practice, but mixing labeled and unlabeled series in a family is
     valid exposition regardless. *)
  let scalar_families ~kind ~pp pick =
    List.iter
      (fun name ->
        let n = Metrics.sanitize (prefix ^ name) in
        line "# TYPE %s %s" n kind;
        (match find_named name (pick router) with
        | Some v -> line "%s %s" n (pp v)
        | None -> ());
        List.iteri
          (fun i d ->
            match find_named name (pick d) with
            | Some v -> line "%s{shard=\"%d\"} %s" n i (pp v)
            | None -> ())
          shards)
      (family_names pick router shards)
  in
  scalar_families ~kind:"counter" ~pp:string_of_int (fun d -> d.counters);
  scalar_families ~kind:"gauge" ~pp:Metrics.pp_float (fun d -> d.gauges);
  let hist_series n ~labels h =
    let sep = if labels = "" then "" else "," in
    let cum = ref 0 in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        if c > 0 && i < Metrics.buckets - 1 then
          line "%s_bucket{%s%sle=\"%s\"} %d" n labels sep
            (Metrics.pp_float (float_of_int (1 lsl (i + 1)) *. 1e-6))
            !cum)
      h.bins;
    line "%s_bucket{%s%sle=\"+Inf\"} %d" n labels sep h.count;
    let suffix = if labels = "" then "" else "{" ^ labels ^ "}" in
    line "%s_sum%s %s" n suffix (Metrics.pp_float h.total_s);
    line "%s_count%s %d" n suffix h.count
  in
  List.iter
    (fun name ->
      let n = Metrics.sanitize (prefix ^ name ^ "_seconds") in
      line "# TYPE %s histogram" n;
      (match find_named name router.hists with
      | Some h -> hist_series n ~labels:"" h
      | None -> ());
      List.iteri
        (fun i d ->
          match find_named name d.hists with
          | Some h -> hist_series n ~labels:(Printf.sprintf "shard=\"%d\"" i) h
          | None -> ())
        shards)
    (family_names (fun d -> d.hists) router shards);
  Ok (Buffer.contents b)
