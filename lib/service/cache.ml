(* Recency is an intrusive doubly-linked list per shard, most recent at
   [head], least recent at [tail]; each table entry is its own list
   node, so a hit relinks in O(1) and allocates nothing, and an insert
   into a full shard unlinks the tail. *)
type 'a node =
  | Nil
  | Node of {
      key : string;
      mutable value : 'a;
      mutable prev : 'a node;  (** more recent *)
      mutable next : 'a node;  (** less recent *)
    }

(* Keys hash and compare as strings, never through the polymorphic
   compare. *)
module Tbl = Hashtbl.Make (String)

type 'a shard = {
  mutex : Mutex.t;
  table : 'a node Tbl.t;
  mutable head : 'a node;
  mutable tail : 'a node;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'a t = { shards : 'a shard array; per_shard : int; capacity : int }

let create ?(shards = 8) ~capacity () =
  if capacity < 0 then invalid_arg "Cache.create: capacity < 0";
  let shards = if capacity = 0 then 1 else max 1 (min shards capacity) in
  let per_shard = if capacity = 0 then 0 else (capacity + shards - 1) / shards in
  { shards =
      Array.init shards (fun _ ->
          { mutex = Mutex.create ();
            table = Tbl.create 64;
            head = Nil;
            tail = Nil;
            hits = 0;
            misses = 0;
            evictions = 0 });
    per_shard;
    capacity }

let capacity t = t.capacity

(* Full-string FNV-1a: [Hashtbl.hash]'s bounded traversal ignores the
   tails of long canonical keys (chain/plan_model keys differing only in
   their last operators would pile onto one shard). The same hash routes
   keys across router backends and fingerprints store records, so shard
   placement, routing, and persistence all agree on one stable function. *)
let shard_of t key =
  t.shards.(Fusecu_util.Hash.fnv1a64_positive key mod Array.length t.shards)

let unlink s = function
  | Nil -> ()
  | Node n ->
    (match n.prev with Nil -> s.head <- n.next | Node p -> p.next <- n.next);
    (match n.next with Nil -> s.tail <- n.prev | Node x -> x.prev <- n.prev);
    n.prev <- Nil;
    n.next <- Nil

let push_front s = function
  | Nil -> ()
  | Node n as node ->
    n.next <- s.head;
    (match s.head with Nil -> s.tail <- node | Node h -> h.prev <- node);
    s.head <- node

let push_back s = function
  | Nil -> ()
  | Node n as node ->
    n.prev <- s.tail;
    (match s.tail with Nil -> s.head <- node | Node x -> x.next <- node);
    s.tail <- node

(* Most recent first: what a hit or an insert does to its entry. *)
let touch s node =
  if s.head != node then begin
    unlink s node;
    push_front s node
  end

(* [find] and [add] take the shard lock without handing [Mutex.protect]
   a closure, which would allocate on every call: nothing between the
   lock and the unlock raises. *)
let find t key =
  let s = shard_of t key in
  Mutex.lock s.mutex;
  let found =
    match Tbl.find s.table key with
    | Node n as node ->
      touch s node;
      s.hits <- s.hits + 1;
      Some n.value
    | Nil | (exception Not_found) ->
      s.misses <- s.misses + 1;
      None
  in
  Mutex.unlock s.mutex;
  found

let add t key value =
  if t.per_shard > 0 then begin
    let s = shard_of t key in
    Mutex.lock s.mutex;
    (match Tbl.find s.table key with
    | Node n as node ->
      n.value <- value;
      touch s node
    | Nil | (exception Not_found) ->
      (if Tbl.length s.table >= t.per_shard then
         match s.tail with
         | Node victim as node ->
           unlink s node;
           Tbl.remove s.table victim.key;
           s.evictions <- s.evictions + 1
         | Nil -> ());
      let node = Node { key; value; prev = Nil; next = Nil } in
      push_front s node;
      Tbl.replace s.table key node);
    Mutex.unlock s.mutex
  end

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* Snapshots hold every shard lock at once (acquired in index order, so
   two concurrent snapshots cannot deadlock) rather than folding shard by
   shard: locking one shard at a time lets an [add] land between reads
   and produce a torn view — e.g. [entries > capacity] or a miss counted
   without its insert — the same bug PR 3 fixed in [Metrics.to_json]. *)
let with_all_locked t f =
  Array.iter (fun s -> Mutex.lock s.mutex) t.shards;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun s -> Mutex.unlock s.mutex) t.shards)
    f

let stats t =
  with_all_locked t (fun () ->
      Array.fold_left
        (fun acc (s : _ shard) ->
          { hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            entries = acc.entries + Tbl.length s.table })
        { hits = 0; misses = 0; evictions = 0; entries = 0 }
        t.shards)

let shard_occupancy t =
  with_all_locked t (fun () ->
      Array.to_list (Array.map (fun s -> Tbl.length s.table) t.shards))

(* An LRU that only inserts holds, per shard, the [per_shard] keys added
   last, most recent first, each with its last value. So the entries are
   walked newest first, down an array (a word each: a warm start holds
   the recovered store already), and each key its shard has not seen
   goes to the shard's back while it has room, through [f]. *)
let load t f entries =
  with_all_locked t (fun () ->
      let entries = Array.of_list entries in
      for i = Array.length entries - 1 downto 0 do
        let key, value = entries.(i) in
        let s = shard_of t key in
        if Tbl.length s.table < t.per_shard && not (Tbl.mem s.table key) then begin
          let node = Node { key; value = f value; prev = Nil; next = Nil } in
          push_back s node;
          Tbl.replace s.table key node
        end
      done)

let fold_entries t f init =
  with_all_locked t (fun () ->
      Array.fold_left
        (fun acc s ->
          Tbl.fold
            (fun k node acc -> match node with Node n -> f k n.value acc | Nil -> acc)
            s.table acc)
        init t.shards)

let hit_rate st =
  let lookups = st.hits + st.misses in
  if lookups = 0 then 0. else float_of_int st.hits /. float_of_int lookups
