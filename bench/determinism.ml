(* The determinism matrix behind `dune build @determinism-smoke`.

   A served answer is a pure function of its canonical problem
   (DESIGN.md §5, §6b, §9), so the seeded corpus ({!Fusecu_oracle.Corpus}:
   the service fixture, then 600 generated lines) must get the same
   bytes whatever serves it. The drill serves the corpus in-process once
   per cell of [table], whose six axes are the engine's domain count,
   its batch size, the plan cache, a persistent store, routing over
   1–3 shards, and tracing with debug logging. Every value of every
   axis, and every pair of values from two axes, occurs in the table
   (12 cells, checked before anything runs).

   Every answer that is not a [stats] line must equal the reference
   cell's — one domain, batch 1, no cache, no store, unrouted, no
   tracing — and the reference cell's answers to the fixture must equal
   the golden. A divergence prints the cell, the line number, the
   request and both answers. Routed cells put [Router.run] in front of
   one in-process [Server.serve_socket] per shard, each with its own
   engine, so nothing forks and the cells run in any order. A warm cell
   first serves the corpus cold into a fresh store, then serves it
   again from engines warm-started from that store; with the 4,096-entry
   cache the warm pass must hit strictly more often than the cold one. *)

open Fusecu_util
open Fusecu_service

type store = No_store | Cold | Warm

type cell = {
  domains : int;
  batch : int;
  cache : int;  (** cache entries; 0 is no cache *)
  store : store;
  shards : int;  (** 0 is unrouted *)
  tracing : bool;  (** tracing and debug logging *)
}

(* Each axis: its name, its values as the table prints them, and a
   cell's value. *)
let axes : (string * string list * (cell -> string)) list =
  [ ("domains", [ "1"; "2" ], fun c -> string_of_int c.domains);
    ("batch", [ "1"; "7"; "64" ], fun c -> string_of_int c.batch);
    ("cache", [ "off"; "16"; "4096" ], fun c -> if c.cache = 0 then "off" else string_of_int c.cache);
    ( "store",
      [ "none"; "cold"; "warm" ],
      fun c -> match c.store with No_store -> "none" | Cold -> "cold" | Warm -> "warm" );
    ( "shards",
      [ "unrouted"; "1"; "2"; "3" ],
      fun c -> if c.shards = 0 then "unrouted" else string_of_int c.shards );
    ("tracing", [ "off"; "on" ], fun c -> if c.tracing then "on" else "off") ]

let name c =
  String.concat " " (List.map (fun (axis, _, value) -> axis ^ "=" ^ value c) axes)

let cell domains batch cache store shards tracing =
  { domains; batch; cache; store; shards; tracing }

(* The reference cell first. *)
let table =
  [ cell 1 1 0 No_store 0 false;
    cell 1 1 16 Cold 1 false;
    cell 1 1 4096 Cold 2 false;
    cell 2 7 0 Warm 1 false;
    cell 1 64 0 Cold 3 false;
    cell 1 7 0 Warm 2 true;
    cell 2 64 4096 No_store 1 true;
    cell 2 7 16 Cold 0 true;
    cell 2 7 4096 No_store 3 false;
    cell 2 1 16 Warm 3 true;
    cell 2 64 16 No_store 2 false;
    cell 2 64 4096 Warm 0 true ]

(* The axis values and pairs of values from two axes that no cell of
   [table] holds. *)
let uncovered table =
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.concat_map
    (fun ((a, va, fa), (b, vb, fb)) ->
      List.concat_map
        (fun x ->
          List.filter_map
            (fun y ->
              if List.exists (fun c -> fa c = x && fb c = y) table then None
              else Some (Printf.sprintf "%s=%s with %s=%s" a x b y))
            vb)
        va)
    (pairs axes)

(* ------------------------------------------------------------------ *)
(* Serving one pass                                                    *)

(* The corpus through fresh engines configured as [c] (one per shard),
   with stores [dir]/shard-i.store when [c] has a store; the answers
   and the cache hits of all engines. *)
let serve ~pool c ~dir corpus =
  let config =
    { (Engine.default_config ()) with
      cache_enabled = c.cache > 0;
      cache_entries = c.cache;
      pool = Some (if c.domains = 1 then Pool.sequential else pool) }
  in
  let engines =
    List.init (max 1 c.shards) (fun i ->
        let store =
          match c.store with
          | No_store -> None
          | Cold | Warm -> (
            match Store.open_ ~path:(Filename.concat dir (Printf.sprintf "shard-%d.store" i)) with
            | Ok s -> Some s
            | Error e -> failwith e)
        in
        Engine.create ?store config)
  in
  let answers =
    if c.shards = 0 then Engine.handle_lines (List.hd engines) ~batch:c.batch corpus
    else
      let paths = List.mapi (fun i _ -> Filename.concat dir (Printf.sprintf "shard-%d.sock" i)) engines in
      let servers = List.map2 (Drill.start_server ~batch:c.batch) engines paths in
      Fun.protect
        ~finally:(fun () -> List.iter2 Drill.stop_server paths servers)
        (fun () -> Drill.route_replay ~requests:corpus paths)
  in
  List.iter (fun e -> Option.iter Store.close (Engine.store e)) engines;
  (answers, List.fold_left (fun n e -> n + (Engine.cache_stats e).Cache.hits) 0 engines)

(* A cell's answers: a warm cell serves the corpus cold into its stores
   first and is held to a higher hit count warm when its cache holds
   every answer. *)
let run_cell ~pool c corpus =
  Drill.with_temp_dir "fusecu_matrix" @@ fun dir ->
  let pass () = serve ~pool c ~dir corpus in
  match c.store with
  | No_store | Cold -> pass ()
  | Warm ->
    let _, cold_hits = pass () in
    let answers, hits = pass () in
    if c.cache = 4096 && hits <= cold_hits then
      failwith
        (Printf.sprintf "determinism drill: %s: warm run hit %d times, cold run %d" (name c) hits
           cold_hits);
    (answers, hits)

(* [f] with tracing and debug logging on when [c] asks for them; they
   must have recorded something. *)
let instrumented c ~logged f =
  if not c.tracing then f ()
  else begin
    let before = !logged in
    Trace.start ();
    Log.set_level (Some Log.Debug);
    let result =
      Fun.protect
        ~finally:(fun () ->
          Log.set_level None;
          Trace.stop ())
        f
    in
    if Trace.events () = [] || !logged = before then
      failwith (Printf.sprintf "determinism drill: %s recorded no spans or no log lines" (name c));
    Trace.clear ();
    result
  end

(* The first line where [answers] differ from the reference's, [stats]
   lines aside. *)
let first_divergence ~requests ~reference answers =
  let rec go i = function
    | r :: requests, a :: reference, b :: answers ->
      if a <> b && not (Drill.is_control r) then Some (i, r, a, b)
      else go (i + 1) (requests, reference, answers)
    | [], [], [] -> None
    | _ -> Some (i, "(end of one transcript)", "", "")
  in
  go 1 (requests, reference, answers)

let run () =
  (match uncovered table with
  | [] -> ()
  | missing ->
    failwith ("determinism drill: the table never has " ^ String.concat ", " missing));
  let fixture = Drill.fixture () in
  let corpus = Fusecu_oracle.Corpus.make ~prefix:fixture ~seed:1 ~size:600 in
  let logged = ref 0 in
  Log.set_sink (fun _ -> incr logged);
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let timed c =
    let t0 = Unix.gettimeofday () in
    let answers, hits = instrumented c ~logged (fun () -> run_cell ~pool c corpus) in
    (answers, hits, Unix.gettimeofday () -. t0)
  in
  let reference, _, seconds = timed (List.hd table) in
  Drill.check ~drill:"determinism" "reference cell vs golden (non-control)"
    (Drill.non_control (Drill.golden ()))
    (Drill.non_control (List.filteri (fun i _ -> i < List.length fixture) reference));
  Printf.printf "determinism drill: %d lines; reference cell (%s) = golden on the fixture, %.2f s\n%!"
    (List.length corpus) (name (List.hd table)) seconds;
  let diverged =
    List.filter
      (fun c ->
        let answers, hits, seconds = timed c in
        match first_divergence ~requests:corpus ~reference answers with
        | None ->
          Printf.printf "determinism drill: %s: same bytes, %d hits, %.2f s\n%!" (name c) hits
            seconds;
          false
        | Some (line, request, expected, got) ->
          Printf.eprintf
            "determinism drill: %s diverges from the reference cell at line %d\n\
            \  request   %s\n\
            \  reference %s\n\
            \  cell      %s\n%!"
            (name c) line request expected got;
          true)
      (List.tl table)
  in
  if diverged <> [] then
    failwith
      (Printf.sprintf "determinism drill: %d of %d cells diverged" (List.length diverged)
         (List.length table - 1));
  print_endline "determinism drill: ok"
