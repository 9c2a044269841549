type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  depth : int;
  args : (string * Json.t) list;
}

(* The ring: [head] is the next write slot; once [filled = capacity]
   the ring wraps and [dropped] counts the overwritten events. *)
type state = {
  mutable ring : event array;
  mutable capacity : int;
  mutable head : int;
  mutable filled : int;
  mutable dropped : int;
}

let default_capacity = 65536

let dummy =
  { name = ""; cat = ""; ts_us = 0.; dur_us = 0.; tid = 0; depth = 0; args = [] }

let state =
  { ring = [||];
    capacity = 0;
    head = 0;
    filled = 0;
    dropped = 0 }

let mutex = Mutex.create ()

let enabled = Atomic.make false

(* Benign-race ref: only ever replaced before collection starts (tests,
   bench setup); readers always see a valid closure. *)
let clock = ref Unix.gettimeofday

let set_clock f = clock := f

let now () = !clock ()

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let clear_locked () =
  state.head <- 0;
  state.filled <- 0;
  state.dropped <- 0;
  Array.fill state.ring 0 (Array.length state.ring) dummy

let clear () = with_lock clear_locked

let start ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  with_lock (fun () ->
      state.ring <- Array.make capacity dummy;
      state.capacity <- capacity;
      clear_locked ());
  Atomic.set enabled true

let stop () = Atomic.set enabled false

let is_enabled () = Atomic.get enabled

let record ev =
  with_lock (fun () ->
      if state.capacity > 0 then begin
        state.ring.(state.head) <- ev;
        state.head <- (state.head + 1) mod state.capacity;
        if state.filled < state.capacity then state.filled <- state.filled + 1
        else state.dropped <- state.dropped + 1
      end)

(* Per-domain nesting depth; each domain only touches its own cell. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let with_span ?(cat = "span") ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    incr depth;
    let d = !depth in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        decr depth;
        record
          { name;
            cat;
            ts_us = t0 *. 1e6;
            dur_us = Float.max 0. ((t1 -. t0) *. 1e6);
            tid = (Domain.self () :> int);
            depth = d;
            args })
      f
  end

let trace_ids = Atomic.make 0

let new_trace_id () = Atomic.fetch_and_add trace_ids 1 + 1

let events () =
  with_lock (fun () ->
      List.init state.filled (fun i ->
          let oldest = (state.head - state.filled + state.capacity * 2) mod (max 1 state.capacity) in
          state.ring.((oldest + i) mod state.capacity)))

let dropped () = with_lock (fun () -> state.dropped)

let event_json ~pid ev =
  Json.Obj
    [ ("name", Json.String ev.name);
      ("cat", Json.String ev.cat);
      ("ph", Json.String "X");
      ("ts", Json.Float ev.ts_us);
      ("dur", Json.Float ev.dur_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int ev.tid);
      ("args", Json.Obj (("depth", Json.Int ev.depth) :: ev.args)) ]

(* Chrome groups events into process lanes by [pid] and titles the lane
   from a [process_name] metadata event. Exports default to the fixed
   pid 1 (single-process profiles, stable goldens); multi-process
   exports (the routed fleet) pass the real pid and a lane name so
   [merge_chrome] produces distinct, labelled lanes. *)
let process_name_event ~pid name =
  Json.Obj
    [ ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String name) ]) ]

let to_chrome_json ?(pid = 1) ?process_name () =
  let meta =
    match process_name with
    | None -> []
    | Some name -> [ process_name_event ~pid name ]
  in
  Json.Obj
    [ ("traceEvents",
       Json.List (meta @ List.map (event_json ~pid) (events ())));
      ("displayTimeUnit", Json.String "ms") ]

let export ?pid ?process_name path =
  let dump = Json.print (to_chrome_json ?pid ?process_name ()) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc dump;
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Cross-process merge                                                 *)

(* Merge several Chrome trace objects (one per process of a routed
   fleet) into a single timeline. Metadata events keep lane titles and
   sort first; complete events interleave by start timestamp — every
   process records on the same wall clock ([Unix.gettimeofday]), so
   cross-process ordering is meaningful without any offset fixup. The
   sort is stable: events with equal timestamps keep their per-file
   (recording) order. *)
let merge_chrome traces =
  let events_of t =
    match t with
    | Json.Obj _ -> (
      match Json.member "traceEvents" t with
      | Some (Json.List evs) -> Ok evs
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "missing traceEvents")
    | _ -> Error "trace is not a JSON object"
  in
  let rec collect acc i = function
    | [] -> Ok (List.concat (List.rev acc))
    | t :: rest -> (
      match events_of t with
      | Ok evs -> collect (evs :: acc) (i + 1) rest
      | Error e -> Error (Printf.sprintf "trace %d: %s" i e))
  in
  match collect [] 0 traces with
  | Error _ as e -> e
  | Ok all ->
    let key ev =
      match Json.member "ph" ev with
      | Some (Json.String "M") -> Float.neg_infinity
      | _ -> (
        match Json.member "ts" ev with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> Float.neg_infinity)
    in
    let sorted =
      List.stable_sort (fun a b -> Float.compare (key a) (key b)) all
    in
    Ok
      (Json.Obj
         [ ("traceEvents", Json.List sorted);
           ("displayTimeUnit", Json.String "ms") ])
