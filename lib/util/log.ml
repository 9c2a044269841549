type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok (Some Debug)
  | "info" -> Ok (Some Info)
  | "warn" | "warning" -> Ok (Some Warn)
  | "error" -> Ok (Some Error)
  | "off" | "none" | "" -> Ok None
  | other ->
    Error
      (Printf.sprintf "unknown log level %S (debug, info, warn, error or off)"
         other)

let mutex = Mutex.create ()

(* [None] until first use or an explicit [set_level]; initialized from
   FUSECU_LOG then. All state below is guarded by [mutex]. *)
let level = ref (None : level option)

let initialized = ref false

(* Shard identity for fleet log attribution: set by the router in its
   forked children ([set_shard]) or inherited via FUSECU_LOG_SHARD so
   merged stderr from a routed fleet stays attributable. Benign-race
   ref: written once at process/child setup, before concurrent
   logging starts. *)
let shard = ref (None : int option)

let set_shard i = shard := Some i

let file = ref (None : out_channel option)

let custom_sink = ref (None : (string -> unit) option)

let init_locked () =
  if not !initialized then begin
    initialized := true;
    (match Sys.getenv_opt "FUSECU_LOG" with
    | Some s -> ( match level_of_string s with Ok l -> level := l | Error _ -> ())
    | None -> ());
    (match Sys.getenv_opt "FUSECU_LOG_SHARD" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
      | Some i when i >= 0 -> shard := Some i
      | _ -> ())
    | None -> ());
    match Sys.getenv_opt "FUSECU_LOG_FILE" with
    | Some path when path <> "" -> (
      try file := Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
      with Sys_error _ -> ())
    | _ -> ()
  end

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let set_level l =
  with_lock (fun () ->
      init_locked ();
      level := l)

let current_level () =
  with_lock (fun () ->
      init_locked ();
      !level)

let enabled lvl =
  match current_level () with
  | None -> false
  | Some min -> severity lvl >= severity min

let set_sink sink =
  with_lock (fun () ->
      init_locked ();
      custom_sink := Some sink)

let emit_locked line =
  match !custom_sink with
  | Some sink -> sink line
  | None -> (
    match !file with
    | Some oc ->
      output_string oc line;
      output_char oc '\n';
      flush oc
    | None ->
      output_string stderr line;
      output_char stderr '\n';
      flush stderr)

let msg lvl ?(fields = []) text =
  if enabled lvl then begin
    let identity =
      ("pid", Json.Int (Unix.getpid ()))
      ::
      (match !shard with
      | Some i -> [ ("shard", Json.Int i) ]
      | None -> [])
    in
    let line =
      Json.print
        (Json.Obj
           (("ts", Json.Float (Trace.now ()))
           :: ("level", Json.String (level_to_string lvl))
           :: (identity
              @ ("msg", Json.String text)
                :: fields)))
    in
    with_lock (fun () -> emit_locked line)
  end

let debug ?fields text = msg Debug ?fields text

let info ?fields text = msg Info ?fields text

let warn ?fields text = msg Warn ?fields text

let error ?fields text = msg Error ?fields text
