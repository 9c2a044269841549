module Hash = Fusecu_util.Hash
module Json = Fusecu_util.Json
module Log = Fusecu_util.Log

(* On-disk format: one record per line,

     CCCCCCCC {"k":<cache key>,"o":{"op":<op>,<members>}}\n

   where CCCCCCCC is the lowercase %08x CRC-32 of everything after the
   single separating space, and the op and members are the outcome's
   ([Protocol.outcome]): the members are the wire result's printed text,
   spliced in as they are, so a record is byte-reproducible from its
   (key, outcome) pair and nothing is printed twice. Appends go through
   a write-behind queue drained by a flusher thread — the engine's
   sequential drain phase never blocks on disk. Recovery reads records
   in order until the first damaged one (short frame, bad hex, CRC
   mismatch, unparseable payload, a payload other than a key and an
   outcome of a planning op, or a final line without its newline — a
   torn append) and drops the rest: bytes past the first damage have
   no trustworthy framing, and the append-only discipline means
   everything before it is intact. A recovered outcome is the record's
   op (one shared string per op) and its members sliced out of the
   payload; nothing is decoded.
   Later records win on duplicate keys, so re-computation after eviction
   simply supersedes the old record; compaction rewrites one record per
   live key into a temp file and atomically renames it over the log. *)

type recovery = {
  entries : (string * Protocol.outcome) list;  (** file order, deduped *)
  records : int;  (** valid records read (before dedup) *)
  dropped_records : int;
  dropped_bytes : int;
}

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  queue : (string * Protocol.outcome) Queue.t;  (* records to write *)
  mutex : Mutex.t;
  cond : Condition.t;  (* signalled on enqueue and on stop *)
  drained : Condition.t;  (* signalled when the queue empties *)
  mutable stop : bool;
  mutable flusher : Thread.t option;
  mutable appended : int;
  recovery : recovery;
  mutable metrics : Metrics.t option;
      (* instrumentation sink ([set_metrics]); never read while holding
         [mutex] is required — metrics calls happen after unlock, so the
         only lock order is store.mutex before metrics.mutex *)
}

let hex_digit d = String.unsafe_get "0123456789abcdef" (d land 15)

(* [{"k":<key>,"o":{"op":<op>,]: a record's payload up to its members *)
let header b key op =
  Buffer.add_string b "{\"k\":";
  Json.write_string b key;
  Buffer.add_string b ",\"o\":{\"op\":";
  Json.write_string b op;
  Buffer.add_char b ','

(* [Printf.sprintf "%08x %s\n" (crc32 payload) payload] for
   [payload = {"k":<key>,"o":{"op":<op>,<members>}}] *)
let frame key (o : Protocol.outcome) =
  let b = Buffer.create (String.length key + String.length o.members + 40) in
  header b key o.op;
  Buffer.add_string b o.members;
  Buffer.add_string b "}}";
  let payload = Buffer.contents b in
  let crc = Hash.crc32 payload in
  let n = String.length payload in
  let line = Bytes.create (n + 10) in
  for i = 0 to 7 do
    Bytes.unsafe_set line i (hex_digit (crc lsr (4 * (7 - i))))
  done;
  Bytes.unsafe_set line 8 ' ';
  Bytes.blit_string payload 0 line 9 n;
  Bytes.unsafe_set line (n + 9) '\n';
  Bytes.unsafe_to_string line

(* A payload that parsed as a key [k] and an ["o"] object of a planning
   op [op] with members after it: if it starts with [header k op] and
   ends with ["}}"], what lies between is the members text [frame]
   wrote, and it is kept as it is. *)
let outcome_of_payload payload k op =
  let b = Buffer.create 64 in
  header b k op;
  let head = Buffer.contents b in
  let from = String.length head and n = String.length payload in
  match Protocol.planning_op op with
  | Some op
    when String.starts_with ~prefix:head payload && String.ends_with ~suffix:"}}" payload ->
    Ok (k, { Protocol.op; members = String.sub payload from (n - from - 2) })
  | _ -> Error (Printf.sprintf "not a record of a planning op: %S" op)

let parse_record line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then Error "short or unframed record"
  else
    let crc_hex = String.sub line 0 8 in
    match int_of_string_opt ("0x" ^ crc_hex) with
    | None -> Error "bad CRC hex"
    | Some crc ->
      let payload = String.sub line 9 (n - 9) in
      if Hash.crc32 payload <> crc then Error "CRC mismatch"
      else (
        match Json.parse payload with
        | Error e -> Error e
        | Ok
            (Json.Obj
              [ ("k", Json.String k); ("o", Json.Obj (("op", Json.String op) :: _ :: _)) ])
          ->
          outcome_of_payload payload k op
        | Ok _ -> Error "payload is not {\"k\":...,\"o\":{\"op\":...}}")

let recover path =
  if not (Sys.file_exists path) then
    { entries = []; records = 0; dropped_records = 0; dropped_bytes = 0 }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let tbl = Hashtbl.create 256 in
    let order = ref [] in
    let records = ref 0 in
    let pos = ref 0 in
    let damaged = ref false in
    while (not !damaged) && !pos < len do
      match String.index_from_opt raw !pos '\n' with
      | None -> damaged := true (* torn final append: no newline *)
      | Some nl -> (
        let line = String.sub raw !pos (nl - !pos) in
        match parse_record line with
        | Error _ -> damaged := true
        | Ok (k, outcome) ->
          incr records;
          if not (Hashtbl.mem tbl k) then order := k :: !order;
          Hashtbl.replace tbl k outcome;
          pos := nl + 1)
    done;
    let dropped_bytes = if !damaged then len - !pos else 0 in
    let dropped_records =
      (* count newline-framed lines in the damaged tail, + a trailing
         fragment if the file does not end in '\n' *)
      if not !damaged then 0
      else begin
        let lines = ref 0 in
        let has_fragment = ref false in
        String.iteri
          (fun i c ->
            if i >= !pos then
              if c = '\n' then (incr lines; has_fragment := false)
              else has_fragment := true)
          raw;
        !lines + if !has_fragment then 1 else 0
      end
    in
    { entries =
        List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order;
      records = !records;
      dropped_records;
      dropped_bytes }
  end

let write_string fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let flusher_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.cond t.mutex
    done;
    let batch = Queue.create () in
    Queue.transfer t.queue batch;
    if t.stop && Queue.is_empty batch then running := false;
    Mutex.unlock t.mutex;
    if not (Queue.is_empty batch) then begin
      let buf = Buffer.create 1024 in
      Queue.iter
        (fun (key, outcome) -> Buffer.add_string buf (frame key outcome))
        batch;
      let t0 = Unix.gettimeofday () in
      write_string t.fd (Buffer.contents buf);
      let dt = Unix.gettimeofday () -. t0 in
      Mutex.lock t.mutex;
      t.appended <- t.appended + Queue.length batch;
      Condition.broadcast t.drained;
      let depth = Queue.length t.queue in
      Mutex.unlock t.mutex;
      match t.metrics with
      | Some m ->
        Metrics.observe m "store_flush_batch"
          (float_of_int (Queue.length batch));
        Metrics.observe m "store_append_seconds" (Float.max 0. dt);
        Metrics.set_gauge m "store_queue_depth" (float_of_int depth)
      | None -> ()
    end
  done;
  Mutex.lock t.mutex;
  Condition.broadcast t.drained;
  Mutex.unlock t.mutex

let open_append path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let open_ ~path =
  match recover path with
  | exception Sys_error e -> Error (Printf.sprintf "store %s: %s" path e)
  | recovery ->
    (match open_append path with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "store %s: %s" path (Unix.error_message err))
    | fd ->
      (* A damaged tail would corrupt the next append (its first bytes
         would graft onto the torn fragment), so truncate it away. *)
      if recovery.dropped_bytes > 0 then begin
        let keep =
          (Unix.fstat fd).Unix.st_size - recovery.dropped_bytes
        in
        Unix.ftruncate fd keep;
        Log.warn "store recovery dropped damaged tail"
          ~fields:
            [ ("path", Json.String path);
              ("dropped_records", Json.Int recovery.dropped_records);
              ("dropped_bytes", Json.Int recovery.dropped_bytes) ]
      end;
      let t =
        { path;
          fd;
          queue = Queue.create ();
          mutex = Mutex.create ();
          cond = Condition.create ();
          drained = Condition.create ();
          stop = false;
          flusher = None;
          appended = 0;
          recovery;
          metrics = None }
      in
      t.flusher <- Some (Thread.create flusher_loop t);
      Ok t)

let recovered t = t.recovery

let set_metrics t m =
  t.metrics <- Some m;
  (* Recovery counters are registered only when nonzero: a cold fresh
     store must leave the deterministic counter set untouched so the
     full-transcript golden compare of a cold run (store drill) stays
     exact. Warm/damaged opens surface what recovery found. *)
  let r = t.recovery in
  if r.records > 0 then Metrics.incr ~by:r.records m "store_records_loaded";
  if r.dropped_records > 0 then
    Metrics.incr ~by:r.dropped_records m "store_dropped_records";
  if r.dropped_bytes > 0 then
    Metrics.incr ~by:r.dropped_bytes m "store_torn_tail_bytes"

let append t key outcome =
  Mutex.lock t.mutex;
  if not t.stop then begin
    Queue.add (key, outcome) t.queue;
    Condition.signal t.cond
  end;
  let depth = Queue.length t.queue in
  Mutex.unlock t.mutex;
  match t.metrics with
  | Some m -> Metrics.set_gauge m "store_queue_depth" (float_of_int depth)
  | None -> ()

let flush t =
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue) do
    Condition.wait t.drained t.mutex
  done;
  Mutex.unlock t.mutex

let appended t =
  Mutex.lock t.mutex;
  let n = t.appended in
  Mutex.unlock t.mutex;
  n

(* fsync a directory so a rename inside it survives a crash; best
   effort where directories cannot be opened/synced (some filesystems
   return EINVAL) *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd

let compact t entries =
  flush t;
  let tmp = t.path ^ ".tmp" in
  (* a stale temp file from a compact that crashed mid-write must not
     poison this one: truncate it via open_out_bin, never append *)
  match
    let oc = open_out_bin tmp in
    List.iter (fun (k, o) -> output_string oc (frame k o)) entries;
    (* durability order: temp contents on disk before the rename
       publishes them, parent directory entry on disk after — without
       the first fsync a crash soon after the rename can leave the log
       pointing at zero-length or partial data; without the second the
       rename itself can vanish (the old log is gone either way on
       journalled-metadata filesystems) *)
    Stdlib.flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp t.path;
    fsync_dir (Filename.dirname t.path)
  with
  | exception (Sys_error _ | Unix.Unix_error _ as exn) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    let msg =
      match exn with
      | Sys_error e -> e
      | Unix.Unix_error (err, fn, _) ->
        Printf.sprintf "%s: %s" fn (Unix.error_message err)
      | _ -> assert false
    in
    Error (Printf.sprintf "store compact %s: %s" t.path msg)
  | () ->
    (* the append fd still points at the old inode; reopen on the new *)
    Unix.close t.fd;
    t.fd <- open_append t.path;
    Ok ()

let close t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  (match t.flusher with Some th -> Thread.join th | None -> ());
  t.flusher <- None;
  Unix.close t.fd
