(* The host's speed, read off a fixed kernel that shares no code with
   the program under test.

   The shared 2-vCPU hosts this benchmark runs on drift: a fixed CPU
   loop timed in 20-second windows spreads 0.27 (IQR / median) over four
   idle minutes, moving between speeds up to 1.45x apart. Raw times
   inherit that drift, so two runs of the same code cannot be told apart
   from a 25% regression. The benchmark therefore times [kernel] in
   short slices all through a run and reports every time at reference
   speed: the measured time divided by the slices' median over
   [nominal_s], the time the kernel takes at reference speed. A change to
   the program cannot move the kernel, so it moves the scaled times as
   it moves the raw ones. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Allocation, hashing and string building, the shape of the server's
   request path. *)
let compute () =
  let h = Hashtbl.create 64 in
  for i = 1 to 600 do
    Hashtbl.replace h (Printf.sprintf "k%d-%d" i (i * 7)) (string_of_int i)
  done;
  let b = Buffer.create 256 in
  Hashtbl.iter (fun k v -> if String.length k > 5 then Buffer.add_string b v) h;
  Buffer.length b

(* One end of a socket pair whose other end a thread of this process
   echoes, byte for byte, until it is closed. *)
let echo =
  lazy
    (let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let serve () =
       let buf = Bytes.create 1 in
       let rec loop () =
         if Unix.read b buf 0 1 = 1 then begin
           ignore (Unix.write b buf 0 1);
           loop ()
         end
       in
       (try loop () with Unix.Unix_error _ -> ());
       Unix.close b
     in
     ignore (Thread.create serve ());
     a)

(* Round trips through the echo thread: the system calls and wake-ups
   of a client waiting on a server. *)
let round_trips n =
  let a = Lazy.force echo and buf = Bytes.create 1 in
  for _ = 1 to n do
    ignore (Unix.write a buf 0 1);
    ignore (Unix.read a buf 0 1)
  done

(* Ends the echo thread. *)
let stop () = if Lazy.is_val echo then try Unix.close (Lazy.force echo) with Unix.Unix_error _ -> ()

(* The two halves take about 0.5 ms each on a 2.0 GHz Xeon vCPU; 1 ms
   defines the reference speed. *)
let kernel () =
  ignore (Sys.opaque_identity (compute ()));
  round_trips 30

let nominal_s = 1e-3

let slice () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* The slices timed during one run, newest first. *)
type t = { mutable slices : float list; mutable count : int; mutable last : float }

let create () = { slices = []; count = 0; last = now () }

let sample t n =
  for _ = 1 to n do
    t.slices <- slice () :: t.slices;
    t.count <- t.count + 1
  done;
  t.last <- now ()

(* Between two timed requests: one slice when [period] seconds have
   passed since the last, so a stretch of requests is sampled all
   through at a cost of about 3% of its time. *)
let period = 0.05

let tick t = if now () -. t.last >= period then sample t 1

(* A point in the run to take a factor from. *)
let mark t = t.count

(* How much slower than reference speed the host ran, over the slices
   taken since [mark] (default: the whole run): divide a time by it,
   multiply a rate. *)
let factor ?(since = 0) t = Stat.median (List.filteri (fun i _ -> i < t.count - since) t.slices) /. nominal_s
