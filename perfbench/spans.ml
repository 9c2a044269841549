(* Bench-side spans around the calls into each layer. Every span is a
   [Trace.with_span ~cat:"bench"] event (so the Chrome trace shows it)
   and also lands in per-name sample lists of total and self time, self
   being the span's duration minus the time covered by the spans it
   encloses. Nothing inside the program is instrumented for this; the
   library's own spans (B&B search) simply appear in the same trace.

   Single-threaded by design: the replay that uses it is sequential. *)

open Fusecu_util

type samples = { mutable total : float list; mutable self : float list; mutable sum : float }

let table : (string, samples) Hashtbl.t = Hashtbl.create 32

(* Child time accumulated under each open span, innermost first. *)
let open_spans : float ref list ref = ref []

let reset () =
  Hashtbl.reset table;
  open_spans := []

let record name ~total ~self =
  match Hashtbl.find_opt table name with
  | Some s ->
    s.total <- total :: s.total;
    s.self <- self :: s.self;
    s.sum <- s.sum +. total
  | None -> Hashtbl.replace table name { total = [ total ]; self = [ self ]; sum = total }

(* Time [f] as span [name]; returns its result. *)
let with_ name f =
  let children = ref 0. in
  let parent = !open_spans in
  open_spans := children :: parent;
  let t0 = Serve.now () in
  let finish () =
    let d = Serve.now () -. t0 in
    open_spans := parent;
    (match parent with p :: _ -> p := !p +. d | [] -> ());
    record name ~total:(d *. 1e6) ~self:((d -. !children) *. 1e6)
  in
  match Trace.with_span ~cat:"bench" name f with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Samples in microseconds. *)
let self_us name = match Hashtbl.find_opt table name with Some s -> s.self | None -> []

let total_us name = match Hashtbl.find_opt table name with Some s -> s.total | None -> []

(* Running sum of [total_us name]. *)
let sum_us name = match Hashtbl.find_opt table name with Some s -> s.sum | None -> 0.
