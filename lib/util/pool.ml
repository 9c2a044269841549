(* Work-stealing-free chunk pool: one mutable "current job" guarded by a
   mutex; workers pull chunk indices from it until exhausted. A
   generation counter tells sleeping workers that a new job arrived.
   Only one parallel region runs at a time ([submit] mutex); a region
   submitted while another is active — including a nested region from
   inside a chunk body — runs inline on the caller instead. *)

type job = {
  body : int -> unit;  (* chunk index; must not raise *)
  label : string;  (* span name when tracing *)
  nchunks : int;
  submitted_at : float;  (* clock at submission, for queue-wait stats *)
  mutable next : int;  (* next chunk to hand out *)
  mutable unfinished : int;  (* chunks not yet completed *)
}

(* Per-worker accounting, owned by worker [i] (the submitting caller is
   worker 0) and only written with [t.mutex] held. *)
type worker_cell = {
  mutable chunks : int;
  mutable run_s : float;
  mutable wait_s : float;
}

type worker_stat = { worker : int; chunks : int; run_s : float; wait_s : float }

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* new job or shutdown *)
  work_done : Condition.t;  (* current job fully completed *)
  submit : Mutex.t;  (* serializes parallel regions *)
  cells : worker_cell array;
  mutable jobs : int;  (* parallel regions run on the pool *)
  mutable generation : int;
  mutable job : job option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

let make_handle n =
  { size = n;
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    submit = Mutex.create ();
    cells = Array.init n (fun _ -> { chunks = 0; run_s = 0.; wait_s = 0. });
    jobs = 0;
    generation = 0;
    job = None;
    stop = false;
    domains = [] }

let sequential = make_handle 1

(* Run chunks of [job] until none are left, as worker [w]. Called and
   returns with [t.mutex] held. The first chunk a worker pulls charges
   the gap since submission to queue wait; chunk bodies are timed (and
   traced when collection is on) outside the lock. *)
let run_chunks t ~w job =
  let cell = t.cells.(w) in
  let first = ref true in
  while job.next < job.nchunks do
    let i = job.next in
    job.next <- i + 1;
    Mutex.unlock t.mutex;
    let t0 = Trace.now () in
    if !first then begin
      first := false;
      cell.wait_s <- cell.wait_s +. Float.max 0. (t0 -. job.submitted_at)
    end;
    if Trace.is_enabled () then
      Trace.with_span ~cat:"pool"
        ~args:[ ("chunk", Json.Int i); ("worker", Json.Int w) ]
        job.label
        (fun () -> job.body i)
    else job.body i;
    let dt = Float.max 0. (Trace.now () -. t0) in
    Mutex.lock t.mutex;
    cell.chunks <- cell.chunks + 1;
    cell.run_s <- cell.run_s +. dt;
    job.unfinished <- job.unfinished - 1;
    if job.unfinished = 0 then Condition.broadcast t.work_done
  done

let worker t ~w () =
  let seen = ref 0 in
  Mutex.lock t.mutex;
  while not t.stop do
    if t.generation = !seen then Condition.wait t.work_ready t.mutex
    else begin
      seen := t.generation;
      match t.job with Some job -> run_chunks t ~w job | None -> ()
    end
  done;
  Mutex.unlock t.mutex

let shutdown t =
  if t != sequential then begin
    Mutex.lock t.mutex;
    if t.stop then Mutex.unlock t.mutex
    else begin
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.domains;
      t.domains <- []
    end
  end

let create n =
  if n < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t = make_handle n in
  if n > 1 then
    t.domains <- List.init (n - 1) (fun i -> Domain.spawn (worker t ~w:(i + 1)));
  (* Stray pools (e.g. a test that failed before its own shutdown) must
     not keep the process alive on worker domains blocked in wait. *)
  at_exit (fun () -> shutdown t);
  t

let default_size () =
  let fallback () = max 1 (min 64 (Domain.recommended_domain_count ())) in
  match Sys.getenv_opt "FUSECU_DOMAINS" with
  | None -> fallback ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n 64
    | _ -> fallback ())

let global = ref None

let global_lock = Mutex.create ()

let get_global () =
  Mutex.lock global_lock;
  let t =
    match !global with
    | Some t -> t
    | None ->
      let t = create (default_size ()) in
      global := Some t;
      t
  in
  Mutex.unlock global_lock;
  t

let set_global_size n =
  if n < 1 then invalid_arg "Pool.set_global_size: size must be >= 1";
  Mutex.lock global_lock;
  let old = !global in
  global := Some (create n);
  Mutex.unlock global_lock;
  Option.iter shutdown old

(* Run [body 0 .. body (nchunks-1)] on the pool, caller participating.
   Caller must hold [t.submit]. *)
let run_job t ~label ~nchunks ~body =
  let job =
    { body;
      label;
      nchunks;
      submitted_at = Trace.now ();
      next = 0;
      unfinished = nchunks }
  in
  Mutex.lock t.mutex;
  t.jobs <- t.jobs + 1;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  run_chunks t ~w:0 job;
  while job.unfinished > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.job <- None;
  Mutex.unlock t.mutex

(* The inline fallback still counts as work done by worker 0, so pool
   stats cover sequential pools and nested regions too. *)
let run_inline t ~label f =
  let t0 = Trace.now () in
  let fin () =
    let dt = Float.max 0. (Trace.now () -. t0) in
    Mutex.lock t.mutex;
    t.jobs <- t.jobs + 1;
    t.cells.(0).chunks <- t.cells.(0).chunks + 1;
    t.cells.(0).run_s <- t.cells.(0).run_s +. dt;
    Mutex.unlock t.mutex
  in
  Fun.protect ~finally:fin (fun () ->
      if Trace.is_enabled () then
        Trace.with_span ~cat:"pool"
          ~args:[ ("chunk", Json.Int 0); ("worker", Json.Int 0) ]
          label f
      else f ())

let parallel_fold ?pool ?(label = "parallel") ?chunks ~lo ~hi ~fold ~merge init
    =
  if hi <= lo then init
  else begin
    let t = match pool with Some p -> p | None -> get_global () in
    let n = hi - lo in
    let nchunks =
      match chunks with
      | Some c -> max 1 (min c n)
      | None -> max 1 (min (4 * t.size) n)
    in
    if t.size <= 1 || nchunks <= 1 || not (Mutex.try_lock t.submit) then
      (* size-1 pool, degenerate range, or a region already active on
         this pool (nested/concurrent use): run inline. *)
      merge init (run_inline t ~label (fun () -> fold lo hi))
    else begin
      let results = Array.make nchunks None in
      let failed = Array.make nchunks None in
      let body i =
        let clo = lo + (i * n / nchunks) and chi = lo + ((i + 1) * n / nchunks) in
        match fold clo chi with
        | v -> results.(i) <- Some v
        | exception e -> failed.(i) <- Some e
      in
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.submit)
        (fun () -> run_job t ~label ~nchunks ~body);
      Array.iter (function Some e -> raise e | None -> ()) failed;
      Array.fold_left
        (fun acc r -> match r with Some v -> merge acc v | None -> acc)
        init results
    end
  end

let parallel_map ?pool ?label ?chunks f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    (* Chunks write disjoint index ranges of [out]; no synchronization
       needed beyond job completion. *)
    parallel_fold ?pool ?label ?chunks ~lo:0 ~hi:n
      ~fold:(fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done)
      ~merge:(fun () () -> ())
      ();
    Array.map (function Some v -> v | None -> assert false) out
  end

let stats t =
  Mutex.lock t.mutex;
  let s =
    Array.to_list
      (Array.mapi
         (fun i (c : worker_cell) ->
           { worker = i; chunks = c.chunks; run_s = c.run_s; wait_s = c.wait_s })
         t.cells)
  in
  let jobs = t.jobs in
  Mutex.unlock t.mutex;
  (jobs, s)
