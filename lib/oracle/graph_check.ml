open Fusecu_loopnest
open Fusecu_workloads
module Partition = Fusecu_planner.Partition

type node_spec = { count : int; k0 : int; ls : int list }

type t = {
  m : int;
  bytes : int;
  nodes : node_spec list;
  edges : (int * int) list;
}

(* ------------------------------------------------------------------ *)
(* Spec round-trip                                                     *)

let node_to_spec n =
  Printf.sprintf "%d*%d:%s" n.count n.k0
    (String.concat ":" (List.map string_of_int n.ls))

let to_spec t =
  let nodes = String.concat "|" (List.map node_to_spec t.nodes) in
  let base = Printf.sprintf "m=%d,b=%d,nodes=%s" t.m t.bytes nodes in
  match t.edges with
  | [] -> base
  | es ->
    base ^ ",edges="
    ^ String.concat "|"
        (List.map (fun (s, d) -> Printf.sprintf "%d-%d" s d) es)

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: not an integer (%S)" what s)

let ( let* ) = Result.bind

let parse_node s =
  match String.split_on_char '*' s with
  | [ c; dims ] -> (
    let* count = parse_int "node count" c in
    match String.split_on_char ':' dims with
    | k0s :: (_ :: _ as lss) ->
      let* k0 = parse_int "node k" k0s in
      let* ls =
        List.fold_left
          (fun acc l ->
            let* acc = acc in
            let* l = parse_int "node l" l in
            Ok (l :: acc))
          (Ok []) lss
      in
      let ls = List.rev ls in
      if count < 1 || k0 < 1 || List.exists (fun l -> l < 1) ls then
        Error (Printf.sprintf "node %S: dimensions must be >= 1" s)
      else Ok { count; k0; ls }
    | _ -> Error (Printf.sprintf "node %S: want k:l1[:l2...]" s))
  | _ -> Error (Printf.sprintf "node %S: want count*k:l1[:l2...]" s)

let parse_edge s =
  match String.split_on_char '-' s with
  | [ a; b ] ->
    let* src = parse_int "edge src" a in
    let* dst = parse_int "edge dst" b in
    Ok (src, dst)
  | _ -> Error (Printf.sprintf "edge %S: want src-dst" s)

let of_spec spec =
  let fields =
    List.filter_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i ->
          Some
            ( String.trim (String.sub f 0 i),
              String.sub f (i + 1) (String.length f - i - 1) )
        | None -> None)
      (String.split_on_char ',' (String.trim spec))
  in
  let field k = List.assoc_opt k fields in
  let* m =
    match field "m" with
    | Some v -> parse_int "m" v
    | None -> Error "missing field m"
  in
  let* bytes =
    match field "b" with
    | Some v -> parse_int "b" v
    | None -> Error "missing field b"
  in
  let* nodes =
    match field "nodes" with
    | None | Some "" -> Error "missing field nodes"
    | Some v ->
      let* ns =
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* n = parse_node s in
            Ok (n :: acc))
          (Ok [])
          (String.split_on_char '|' v)
      in
      Ok (List.rev ns)
  in
  let* edges =
    match field "edges" with
    | None | Some "" -> Ok []
    | Some v ->
      let* es =
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* e = parse_edge s in
            Ok (e :: acc))
          (Ok [])
          (String.split_on_char '|' v)
      in
      Ok (List.rev es)
  in
  let n = List.length nodes in
  if m < 1 then Error "m must be >= 1"
  else if bytes < 1 then Error "b must be >= 1"
  else if n > 8 then Error "at most 8 nodes"
  else if
    List.exists (fun (s, d) -> s < 0 || d < 0 || s >= n || d >= n || s >= d)
      edges
  then Error "edges must satisfy 0 <= src < dst < nodes"
  else Ok { m; bytes; nodes; edges }

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)

let node_ops t (n : node_spec) =
  let _, rev =
    List.fold_left
      (fun (k, acc) l ->
        (l, Fusecu_tensor.Matmul.make ~m:t.m ~k ~l () :: acc))
      (n.k0, []) n.ls
  in
  List.rev rev

let graph t =
  let mk i n =
    let ops = node_ops t n in
    let* work =
      match ops with
      | [ op ] -> Ok (Graph.Op { op; count = n.count })
      | ops ->
        let* chain = Fusecu_tensor.Chain.make ops in
        Ok (Graph.Chain { chain; count = n.count })
    in
    let deps = List.filter_map (fun (s, d) -> if d = i then Some s else None) t.edges in
    Ok { Graph.id = i; name = Printf.sprintf "n%d" i; work; deps }
  in
  let* nodes =
    List.fold_left
      (fun acc (i, n) ->
        let* acc = acc in
        let* node = mk i n in
        Ok (node :: acc))
      (Ok [])
      (List.mapi (fun i n -> (i, n)) t.nodes)
  in
  Graph.make (List.rev nodes)

(* ------------------------------------------------------------------ *)
(* Conformance checks                                                  *)

let edge_ids (sel : Partition.edge list) =
  String.concat ","
    (List.map
       (fun (e : Partition.edge) ->
         Printf.sprintf "%d-%d" e.Partition.src e.Partition.dst)
       sel)

(* The report's statistics come from the plan these checks make. *)
let checks ctx t =
  let check name ok detail = Oracle.check ctx name ok (fun () -> detail) in
  match graph t with
  | Error e -> check "graph" false e
  | Ok g -> (
    let buf = Buffer.make t.bytes in
    let planned = Partition.plan g buf in
    (match planned with
    | Ok p ->
      Oracle.add ctx "candidate edges" p.Partition.stats.Partition.candidate_edges;
      Oracle.add ctx "cases with fusion" (if p.Partition.selected = [] then 0 else 1)
    | Error _ -> ());
    match (planned, Partition.exhaustive g buf) with
    | Error _, Error _ -> check "feasibility" true ""
    | Error e, Ok _ ->
      check "feasibility" false ("plan infeasible but exhaustive succeeded: " ^ e)
    | Ok _, Error e ->
      check "feasibility" false ("exhaustive infeasible but plan succeeded: " ^ e)
    | Ok p, Ok ex ->
      let b = ex.Partition.best in
      check "effective"
        (p.Partition.effective = b.Partition.effective)
        (Printf.sprintf "plan %d vs exhaustive %d" p.Partition.effective
           b.Partition.effective);
      check "traffic"
        (p.Partition.traffic = b.Partition.traffic)
        (Printf.sprintf "plan %d vs exhaustive %d" p.Partition.traffic
           b.Partition.traffic);
      check "selection"
        (edge_ids p.Partition.selected = edge_ids b.Partition.selected)
        (Printf.sprintf "plan [%s] vs exhaustive [%s]"
           (edge_ids p.Partition.selected)
           (edge_ids b.Partition.selected));
      let covered =
        List.sort compare
          (List.concat_map
             (fun (gr : Partition.group) ->
               List.map (fun (n : Graph.node) -> n.Graph.id) gr.Partition.members)
             p.Partition.groups)
      in
      check "cover"
        (covered = List.init (List.length t.nodes) Fun.id)
        (Printf.sprintf "groups cover [%s]"
           (String.concat "," (List.map string_of_int covered)));
      check "baseline"
        (p.Partition.effective <= p.Partition.unfused_effective)
        (Printf.sprintf "effective %d above unfused %d" p.Partition.effective
           p.Partition.unfused_effective))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let gen rng ~max_dim =
  let dim () = Rng.range rng ~lo:1 ~hi:max_dim in
  let n_nodes = Rng.range rng ~lo:2 ~hi:8 in
  let m = dim () in
  (* bias the stream toward chainable structure: most nodes continue an
     earlier node (same count, k matching the parent's output), so the
     planner sees real candidate edges, not just isolated singletons *)
  let nodes = Array.make n_nodes { count = 1; k0 = 1; ls = [ 1 ] } in
  let edges = ref [] in
  for i = 0 to n_nodes - 1 do
    let n_ops = Rng.range rng ~lo:1 ~hi:2 in
    let ls = List.init n_ops (fun _ -> dim ()) in
    if i > 0 && Rng.int rng 10 < 6 then begin
      let p = Rng.int rng i in
      let parent = nodes.(p) in
      nodes.(i) <- { count = parent.count; k0 = List.hd (List.rev parent.ls); ls };
      edges := (p, i) :: !edges
    end
    else nodes.(i) <- { count = dim (); k0 = dim (); ls };
    (* occasionally a second, usually non-chainable, dependency *)
    if i > 0 && Rng.int rng 10 < 3 then begin
      let q = Rng.int rng i in
      if not (List.mem (q, i) !edges) then edges := (q, i) :: !edges
    end
  done;
  let bytes = Rng.range rng ~lo:3 ~hi:(4 * max_dim * max_dim) in
  { m;
    bytes;
    nodes = Array.to_list nodes;
    edges = List.sort compare !edges }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

let drop_node t j =
  let remap i = if i > j then i - 1 else i in
  { t with
    nodes = drop_nth t.nodes j;
    edges =
      List.filter_map
        (fun (s, d) ->
          if s = j || d = j then None else Some (remap s, remap d))
        t.edges }

let halve d = if d > 1 then Some ((d + 1) / 2) else None

let proposals t =
  let with_node j n' = { t with nodes = List.mapi (fun i n -> if i = j then n' else n) t.nodes } in
  let node_props =
    List.concat
      (List.mapi
         (fun j (n : node_spec) ->
           List.concat
             [ (if List.length t.nodes > 1 then [ drop_node t j ] else []);
               (if List.length n.ls > 1 then
                  [ with_node j { n with ls = [ List.hd n.ls ] } ]
                else []);
               (match halve n.count with
               | Some c -> [ with_node j { n with count = c } ]
               | None -> []);
               (match halve n.k0 with
               | Some k -> [ with_node j { n with k0 = k } ]
               | None -> []);
               List.filter_map
                 (fun i ->
                   Option.map
                     (fun l ->
                       with_node j
                         { n with
                           ls = List.mapi (fun x v -> if x = i then l else v) n.ls })
                     (halve (List.nth n.ls i)))
                 (List.init (List.length n.ls) Fun.id) ])
         t.nodes)
  in
  let edge_props = List.mapi (fun i _ -> { t with edges = drop_nth t.edges i }) t.edges in
  let dim_props =
    (match halve t.m with Some m -> [ { t with m } ] | None -> [])
    @
    match if t.bytes > 3 then Some (max 3 (t.bytes / 2)) else None with
    | Some bytes -> [ { t with bytes } ]
    | None -> []
  in
  node_props @ edge_props @ dim_props

let oracle =
  { Oracle.name = "graph oracle";
    flag = "--graphs";
    max_dim = 8;
    gen;
    checks;
    proposals;
    to_spec;
    of_spec;
    tallies = [];
    sums = [ "candidate edges"; "cases with fusion" ] }
