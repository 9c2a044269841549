(* Fusecu_util.Pool: the domain pool under the parallel DSE engine.
   The contract under test: chunking covers the index range exactly
   once, ordered merging makes results domain-count independent,
   exceptions propagate to the caller, and a size-1 pool is exactly a
   direct fold. *)

open Fusecu_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Every index in [lo, hi) visited exactly once, across chunk counts and
   pool sizes. *)
let test_chunks_cover_range () =
  List.iter
    (fun (domains, chunks, lo, hi) ->
      with_pool domains (fun pool ->
          let visits = Array.make (hi - lo) 0 in
          let sum =
            Pool.parallel_fold ~pool ?chunks ~lo ~hi
              ~fold:(fun clo chi ->
                let s = ref 0 in
                for i = clo to chi - 1 do
                  (* chunks write disjoint subranges: no races *)
                  visits.(i - lo) <- visits.(i - lo) + 1;
                  s := !s + i
                done;
                !s)
              ~merge:( + ) 0
          in
          Array.iter (fun v -> check_int "visited exactly once" 1 v) visits;
          check_int
            (Printf.sprintf "sum over [%d,%d) on %d domains" lo hi domains)
            ((hi * (hi - 1) / 2) - (lo * (lo - 1) / 2))
            sum))
    [ (1, None, 0, 100);
      (4, None, 0, 100);
      (4, Some 7, 3, 103);
      (4, Some 1, 0, 10);
      (4, Some 1000, 0, 10);  (* more chunks than elements *)
      (3, Some 4, 5, 6) ]

let test_empty_range () =
  with_pool 4 (fun pool ->
      check_int "hi = lo" 42
        (Pool.parallel_fold ~pool ~lo:7 ~hi:7
           ~fold:(fun _ _ -> Alcotest.fail "fold must not run")
           ~merge:( + ) 42);
      check_int "hi < lo" 42
        (Pool.parallel_fold ~pool ~lo:7 ~hi:0
           ~fold:(fun _ _ -> Alcotest.fail "fold must not run")
           ~merge:( + ) 42))

(* Size-1 pool (and the [sequential] constant) must equal a direct
   fold, merge applied once. *)
let test_size_one_is_direct_fold () =
  let direct lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + (i * i)
    done;
    !s
  in
  List.iter
    (fun pool ->
      check_int "sum of squares" (direct 0 50)
        (Pool.parallel_fold ~pool ~lo:0 ~hi:50 ~fold:direct ~merge:( + ) 0))
    [ Pool.sequential; ];
  with_pool 1 (fun pool ->
      check_int "created size-1 pool" (direct 0 50)
        (Pool.parallel_fold ~pool ~lo:0 ~hi:50 ~fold:direct ~merge:( + ) 0);
      check_int "size" 1 (Pool.size pool))

let test_merge_order_deterministic () =
  (* merging in ascending chunk order: concatenation of per-chunk lists
     must rebuild the range in order, whatever the pool size *)
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let xs =
            Pool.parallel_fold ~pool ~chunks:13 ~lo:0 ~hi:64
              ~fold:(fun lo hi -> List.init (hi - lo) (fun i -> lo + i))
              ~merge:(fun a b -> a @ b)
              []
          in
          Alcotest.(check (list int)) "in order" (List.init 64 Fun.id) xs))
    [ 1; 2; 4 ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          check_bool "raises" true
            (match
               Pool.parallel_fold ~pool ~chunks:8 ~lo:0 ~hi:80
                 ~fold:(fun lo hi ->
                   for i = lo to hi - 1 do
                     if i = 57 then raise (Boom i)
                   done;
                   hi - lo)
                 ~merge:( + ) 0
             with
            | _ -> false
            | exception Boom 57 -> true);
          (* the pool survives a failed region *)
          check_int "usable after failure" 10
            (Pool.parallel_fold ~pool ~lo:0 ~hi:10
               ~fold:(fun lo hi -> hi - lo)
               ~merge:( + ) 0)))
    [ 1; 4 ]

(* A nested region on the same pool must not deadlock: it runs inline. *)
let test_nested_region () =
  with_pool 4 (fun pool ->
      let total =
        Pool.parallel_fold ~pool ~chunks:4 ~lo:0 ~hi:4
          ~fold:(fun lo hi ->
            let inner = ref 0 in
            for _ = lo to hi - 1 do
              inner :=
                !inner
                + Pool.parallel_fold ~pool ~lo:0 ~hi:10
                    ~fold:(fun a b -> b - a)
                    ~merge:( + ) 0
            done;
            !inner)
          ~merge:( + ) 0
      in
      check_int "4 x inner sum of 10" 40 total)

let test_parallel_map () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let arr = Array.init 37 (fun i -> i) in
          let out = Pool.parallel_map ~pool (fun x -> x * x) arr in
          check_int "length" 37 (Array.length out);
          Array.iteri (fun i y -> check_int "order preserved" (i * i) y) out;
          Alcotest.(check (array int)) "empty" [||]
            (Pool.parallel_map ~pool (fun x -> x) [||])))
    [ 1; 4 ]

let test_default_size_positive () =
  let n = Pool.default_size () in
  check_bool "within [1, 64]" true (n >= 1 && n <= 64)

let test_create_invalid () =
  Alcotest.check_raises "size 0"
    (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Pool.create 0))

let test_shutdown_idempotent () =
  let pool = Pool.create 3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_int "size still reported" 3 (Pool.size pool)

(* Worker stats: chunk counts must add up to the chunks submitted, and
   jobs count the regions (including inline fallbacks). *)
let test_stats () =
  with_pool 4 (fun pool ->
      let chunks = 16 in
      ignore
        (Pool.parallel_fold ~pool ~chunks ~lo:0 ~hi:160
           ~fold:(fun lo hi -> hi - lo)
           ~merge:( + ) 0);
      let jobs, workers = Pool.stats pool in
      check_int "one region" 1 jobs;
      check_int "stats cover every worker" 4 (List.length workers);
      check_int "chunks accounted exactly once" chunks
        (List.fold_left (fun acc (w : Pool.worker_stat) -> acc + w.chunks) 0
           workers);
      List.iter
        (fun (w : Pool.worker_stat) ->
          check_bool "run time non-negative" true (w.run_s >= 0.);
          check_bool "wait time non-negative" true (w.wait_s >= 0.))
        workers;
      (* nested regions run inline on worker 0 and still count as jobs *)
      ignore
        (Pool.parallel_fold ~pool ~chunks:2 ~lo:0 ~hi:2
           ~fold:(fun lo hi ->
             Pool.parallel_fold ~pool ~lo:0 ~hi:(hi - lo)
               ~fold:(fun a b -> b - a)
               ~merge:( + ) 0)
           ~merge:( + ) 0);
      let jobs, _ = Pool.stats pool in
      check_bool "outer + inline inner regions counted" true (jobs >= 3))

let () =
  Alcotest.run "pool"
    [ ( "parallel_fold",
        [ Alcotest.test_case "chunks cover range once" `Quick
            test_chunks_cover_range;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "size 1 = direct fold" `Quick
            test_size_one_is_direct_fold;
          Alcotest.test_case "merge order deterministic" `Quick
            test_merge_order_deterministic;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested region runs inline" `Quick
            test_nested_region ] );
      ( "parallel_map",
        [ Alcotest.test_case "order preserved" `Quick test_parallel_map ] );
      ( "lifecycle",
        [ Alcotest.test_case "default size" `Quick test_default_size_positive;
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent ] );
      ( "stats",
        [ Alcotest.test_case "chunks and jobs accounted" `Quick test_stats ] )
    ]
