module Hash = Fusecu_util.Hash
module Json = Fusecu_util.Json
module Log = Fusecu_util.Log

(* On-disk format: one record per line,

     CCCCCCCC {"k":<cache key>,"o":{"op":<op>,<members>}}\n

   where CCCCCCCC is the lowercase %08x CRC-32 of everything after the
   single separating space, and the op and members are the outcome's
   ([Protocol.outcome]): the members are the wire result's printed text,
   spliced in as they are, so a record is byte-reproducible from its
   (key, outcome) pair and nothing is printed twice. An append only
   records the pair; [flush] frames the pending records and writes them
   at once, and the server calls it after each write of a batch's
   replies. Recovery reads records
   in order until the first damaged one (short frame, bad hex, CRC
   mismatch, unparseable payload, a payload other than a key and an
   outcome of a planning op, or a final line without its newline — a
   torn append) and drops the rest: bytes past the first damage have
   no trustworthy framing, and the append-only discipline means
   everything before it is intact. A recovered outcome is the record's
   op (one shared string per op) and its members sliced out of the
   payload; nothing is decoded.
   Later records win on duplicate keys, so re-computation after eviction
   simply supersedes the old record; nothing compacts the log. *)

type recovery = {
  entries : (string * Protocol.outcome) list;  (** file order, deduped *)
  records : int;  (** valid records read (before dedup) *)
  dropped_records : int;
  dropped_bytes : int;
}

type t = {
  path : string;
  fd : Unix.file_descr;
  lock : Mutex.t;  (* guards [pending] and [writable]; held for no write *)
  writing : Mutex.t;  (* held through a flush, so writes keep append order *)
  mutable pending : (string * Protocol.outcome) list;  (* newest first *)
  mutable writable : bool;  (* false after a failed write or [close] *)
  mutable appended : int;  (* records written; changed under [writing] *)
  recovery : recovery;
  mutable metrics : Metrics.t option;  (* instrumentation sink ([set_metrics]) *)
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

(* [Unix.single_write] makes one system call, so an interrupted write
   is retried from a known offset. *)
let rec write_from fd b off =
  if off < Bytes.length b then
    match Unix.single_write fd b off (Bytes.length b - off) with
    | n -> write_from fd b (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from fd b off

let open_ ~path =
  match recover path with
  | exception Sys_error e -> Error (Printf.sprintf "store %s: %s" path e)
  | recovery ->
    (match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 with
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
      Ok
        { path;
          fd;
          lock = Mutex.create ();
          writing = Mutex.create ();
          pending = [];
          writable = true;
          appended = 0;
          recovery;
          metrics = None })

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
  Mutex.lock t.lock;
  if t.writable then t.pending <- (key, outcome) :: t.pending;
  Mutex.unlock t.lock

(* One write of [batch], oldest first. A failed write may have left a
   torn record, so nothing is written after it: the store stops taking
   records, and the next [open_] truncates the tail. *)
let write_batch t batch =
  let b = Buffer.create 4096 in
  List.iter (fun (key, outcome) -> Buffer.add_string b (frame key outcome)) batch;
  let t0 = Unix.gettimeofday () in
  match write_from t.fd (Buffer.to_bytes b) 0 with
  | () -> (
    let n = List.length batch in
    t.appended <- t.appended + n;
    match t.metrics with
    | Some m ->
      Metrics.observe m "store_flush_batch" (float_of_int n);
      Metrics.observe m "store_append_seconds"
        (Float.max 0. (Unix.gettimeofday () -. t0))
    | None -> ())
  | exception Unix.Unix_error (err, _, _) ->
    Mutex.protect t.lock (fun () ->
        t.writable <- false;
        t.pending <- []);
    Log.warn "store write failed; dropping this and every later record"
      ~fields:
        [ ("path", Json.String t.path);
          ("error", Json.String (Unix.error_message err)) ];
    Option.iter (fun m -> Metrics.incr m "store_write_errors") t.metrics

let flush t =
  Mutex.lock t.writing;
  Mutex.lock t.lock;
  let batch = t.pending in
  t.pending <- [];
  Mutex.unlock t.lock;
  (match batch with [] -> () | batch -> write_batch t (List.rev batch));
  Mutex.unlock t.writing

let appended t = t.appended

let close t =
  flush t;
  Mutex.protect t.lock (fun () -> t.writable <- false);
  Unix.close t.fd
