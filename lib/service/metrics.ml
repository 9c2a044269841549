open Fusecu_util

(* 1 µs .. 2^29 µs (~9 min) in doubling buckets, plus one open bucket. *)
let buckets = 30

type histogram = {
  mutable count : int;
  mutable total_s : float;
  bins : int array;  (** [bins.(i)]: observations in [[2^i, 2^(i+1)) µs] *)
}

(* Names hash and compare as strings, never through the polymorphic
   compare. *)
module Tbl = Hashtbl.Make (String)

type t = {
  mutex : Mutex.t;
  counters : int ref Tbl.t;
  histograms : histogram Tbl.t;
  gauges : float ref Tbl.t;
}

let create () =
  { mutex = Mutex.create ();
    counters = Tbl.create 32;
    histograms = Tbl.create 8;
    gauges = Tbl.create 8 }

(* [incr] and [set_gauge] take the lock without handing [Mutex.protect]
   a closure, which would allocate on every call: nothing between the
   lock and the unlock raises. *)
let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic";
  Mutex.lock t.mutex;
  (match Tbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Tbl.replace t.counters name (ref by));
  Mutex.unlock t.mutex

let get t name =
  Mutex.protect t.mutex (fun () ->
      match Tbl.find_opt t.counters name with Some r -> !r | None -> 0)

let bucket_of_seconds s =
  let us = s *. 1e6 in
  if us < 1. then 0
  else
    let b = int_of_float (Float.log2 us) in
    min b (buckets - 1)

let observe t name seconds =
  let seconds = Float.max 0. seconds in
  Mutex.protect t.mutex (fun () ->
      let h =
        match Tbl.find_opt t.histograms name with
        | Some h -> h
        | None ->
          let h = { count = 0; total_s = 0.; bins = Array.make buckets 0 } in
          Tbl.replace t.histograms name h;
          h
      in
      h.count <- h.count + 1;
      h.total_s <- h.total_s +. seconds;
      let b = bucket_of_seconds seconds in
      h.bins.(b) <- h.bins.(b) + 1)

let set_gauge t name v =
  Mutex.lock t.mutex;
  (match Tbl.find t.gauges name with
  | r -> r := v
  | exception Not_found -> Tbl.replace t.gauges name (ref v));
  Mutex.unlock t.mutex

(* Callers must hold [t.mutex]. *)
let gauges_locked t =
  Tbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t = Mutex.protect t.mutex (fun () -> gauges_locked t)

(* Callers must hold [t.mutex]. *)
let counters_locked t =
  Tbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = Mutex.protect t.mutex (fun () -> counters_locked t)

let counters_json t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t))

let histogram_json ~count ~total_s bins =
  let bins =
    Array.to_list bins
    |> List.mapi (fun i n ->
           if n = 0 then None
           else
             (* upper bound of bucket i in µs; the last bucket is open *)
             let le =
               if i = buckets - 1 then Json.Null else Json.Int (1 lsl (i + 1))
             in
             Some (Json.Obj [ ("le_us", le); ("n", Json.Int n) ]))
    |> List.filter_map Fun.id
  in
  Json.Obj
    [ ("count", Json.Int count);
      ("total_s", Json.Float total_s);
      ("buckets", Json.List bins) ]

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram) list;
  gauges : (string * float) list;
}

(* One-lock snapshot of every metric family: taking the lock once per
   family would let an update land between the reads and produce a torn
   dump (e.g. a request counted whose latency is missing). *)
let snapshot t =
  Mutex.protect t.mutex (fun () ->
      { counters = counters_locked t;
        histograms =
          Tbl.fold
            (fun k h acc -> (k, { h with bins = Array.copy h.bins }) :: acc)
            t.histograms []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        gauges = gauges_locked t })

let snapshot_members s =
  [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
    ("latency",
     Json.Obj
       (List.map
          (fun (k, h) -> (k, histogram_json ~count:h.count ~total_s:h.total_s h.bins))
          s.histograms)) ]
  @
  if s.gauges = [] then []
  else [ ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges)) ]

let to_json t = Json.Obj (snapshot_members (snapshot t))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4)                           *)

(* Metric names may only contain [a-zA-Z0-9_:]; ours are snake_case
   already, but sanitize defensively so a weird counter name cannot
   corrupt the exposition. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let pp_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest representation that round-trips, so [_sum] keeps full
       precision (%.15g drops sub-µs tails on multi-hour totals) *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let prometheus ?(prefix = "fusecu_") own shards =
  let b = Stdlib.Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Stdlib.Buffer.add_string b (s ^ "\n")) fmt in
  (* One [# TYPE] line per family, over every snapshot's names, sorted;
     then [own]'s series unlabeled and each shard's labeled. *)
  let families ~kind ~suffix pick series =
    List.concat_map (fun s -> List.map fst (pick s)) (own :: shards)
    |> List.sort_uniq String.compare
    |> List.iter (fun name ->
           let n = sanitize (prefix ^ name ^ suffix) in
           line "# TYPE %s %s" n kind;
           let find s =
             (* [List.assoc_opt] would compare names polymorphically *)
             List.find_map
               (fun (k, v) -> if String.equal k name then Some v else None)
               (pick s)
           in
           Option.iter (series n "") (find own);
           List.iteri
             (fun i s -> Option.iter (series n (Printf.sprintf "shard=\"%d\"" i)) (find s))
             shards)
  in
  let braced labels = if labels = "" then "" else "{" ^ labels ^ "}" in
  let scalar pp n labels v = line "%s%s %s" n (braced labels) (pp v) in
  families ~kind:"counter" ~suffix:"" (fun s -> s.counters) (scalar string_of_int);
  families ~kind:"gauge" ~suffix:"" (fun s -> s.gauges) (scalar pp_float);
  families ~kind:"histogram" ~suffix:"_seconds" (fun s -> s.histograms)
    (fun n labels h ->
      let le = if labels = "" then "" else labels ^ "," in
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          (* bucket i spans [2^i, 2^(i+1)) µs; emit the cumulative count
             at each non-empty bin (sparse buckets are valid) *)
          if c > 0 && i < buckets - 1 then
            line "%s_bucket{%sle=\"%s\"} %d" n le
              (pp_float (float_of_int (1 lsl (i + 1)) *. 1e-6))
              !cum)
        h.bins;
      line "%s_bucket{%sle=\"+Inf\"} %d" n le h.count;
      line "%s_sum%s %s" n (braced labels) (pp_float h.total_s);
      line "%s_count%s %d" n (braced labels) h.count);
  Stdlib.Buffer.contents b

let to_prometheus ?prefix t = prometheus ?prefix (snapshot t) []
