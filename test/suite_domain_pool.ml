(* Tests for Kutil.Domain_pool: deterministic result order, exception
   propagation, and pool reuse across batches. *)

module Pool = Kutil.Domain_pool

(* A fresh pool for [f], shut down on the way out, even on exceptions. *)
let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

exception Boom of int

let test_map_ordering () =
  with_pool ~jobs:4 (fun pool ->
      let items = Array.init 100 (fun i -> i) in
      let out = Pool.map pool ~worker:(fun _wid x -> x * x) items in
      Alcotest.(check (array int))
        "squares in item order"
        (Array.map (fun x -> x * x) items)
        out)

let test_sequential_pool_inline () =
  with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let out =
        Pool.map pool
          ~worker:(fun wid x ->
            Alcotest.(check int) "caller is worker 0" 0 wid;
            x + 1)
          [| 1; 2; 3 |]
      in
      Alcotest.(check (array int)) "inline map" [| 2; 3; 4 |] out)

let test_worker_ids_in_range () =
  with_pool ~jobs:3 (fun pool ->
      let wids =
        Pool.map pool ~worker:(fun wid _ -> wid) (Array.make 50 ())
      in
      Array.iter
        (fun w ->
          Alcotest.(check bool) "wid in range" true (w >= 0 && w < 3))
        wids)

let test_exception_propagates () =
  with_pool ~jobs:4 (fun pool ->
      let items = Array.init 32 (fun i -> i) in
      (match
         Pool.map pool
           ~worker:(fun _ x -> if x = 13 then raise (Boom x) else x)
           items
       with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Boom 13 -> ());
      (* The pool survives a failed batch. *)
      let out = Pool.map pool ~worker:(fun _ x -> x * 2) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "usable after failure" [| 2; 4; 6 |] out)

let test_reuse_across_batches () =
  with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let n = 10 * round in
        let out =
          Pool.map pool ~worker:(fun _ x -> x + round) (Array.init n Fun.id)
        in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init n (fun i -> i + round))
          out
      done)

let test_empty_and_singleton () =
  with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.map pool ~worker:(fun _ x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Pool.map pool ~worker:(fun _ x -> x) [| 7 |]))

let test_map_after_shutdown_raises () =
  (* Both dispatch paths must refuse a dead pool: the trivial inline path
     (tiny batch) used to silently run on the caller. *)
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Alcotest.check_raises "small batch raises"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~worker:(fun _ x -> x) [| 1 |]));
  Alcotest.check_raises "large batch raises"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~worker:(fun _ x -> x) (Array.init 500 Fun.id)));
  let seq = Pool.create ~jobs:1 in
  Pool.shutdown seq;
  Alcotest.check_raises "jobs=1 pool raises too"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map seq ~worker:(fun _ x -> x) [| 1; 2 |]))

let test_shutdown_while_idle () =
  (* Spawned workers parked on the condition variable must wake and join
     immediately, with no batch ever dispatched. *)
  for _ = 1 to 10 do
    let pool = Pool.create ~jobs:4 in
    Pool.shutdown pool
  done;
  Alcotest.(check pass) "no hang" () ()

let test_forced_dispatch_chunked () =
  (* Every multi-item batch goes through the worker epoch, covering the
     chunked cursor on batches much larger (and much smaller) than the
     chunk size. *)
  with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun n ->
          let items = Array.init n (fun i -> i) in
          let out = Pool.map pool ~worker:(fun _ x -> x * 3) items in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d in order" n)
            (Array.map (fun x -> x * 3) items)
            out)
        [ 2; 3; 7; 64; 1000; 10_000 ])

let test_exception_mid_batch_forced () =
  (* An item exception on the dispatched path: one failure surfaces, the
     remaining chunks drain, and the pool survives. *)
  with_pool ~jobs:4 (fun pool ->
      let items = Array.init 1000 (fun i -> i) in
      (match
         Pool.map pool
           ~worker:(fun _ x -> if x = 500 then raise (Boom x) else x)
           items
       with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Boom 500 -> ());
      let out = Pool.map pool ~worker:(fun _ x -> x + 1) items in
      Alcotest.(check int) "usable after mid-batch failure" 1000
        (Array.fold_left (fun acc x -> acc + (x land 1)) 500 out))

let test_two_items_reach_a_worker () =
  (* A two-item batch must be dispatched, whatever the core count: the
     caller, as worker 0, holds whichever item it claims until a spawned
     worker has run the other, so the batch only finishes through real
     dispatch.  The wait is bounded so a regression fails instead of
     hanging. *)
  let deadline = Kutil.Timer.now () +. 10.0 in
  with_pool ~jobs:2 (fun pool ->
      for round = 1 to 20 do
        let other_ran = Atomic.make false in
        let wids =
          Pool.map pool
            ~worker:(fun wid _ ->
              if wid = 0 then begin
                while
                  (not (Atomic.get other_ran)) && Kutil.Timer.now () < deadline
                do
                  Domain.cpu_relax ()
                done
              end
              else Atomic.set other_ran true;
              wid)
            [| (); () |]
        in
        Alcotest.(check bool)
          (Printf.sprintf "round %d: a spawned worker ran an item" round)
          true
          (Array.exists (fun w -> w <> 0) wids)
      done)

let test_create_validation () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check pass) "double shutdown" () ()

let suite =
  ( "domain_pool",
    [
      Alcotest.test_case "result ordering" `Quick test_map_ordering;
      Alcotest.test_case "jobs=1 runs inline" `Quick
        test_sequential_pool_inline;
      Alcotest.test_case "worker ids in range" `Quick test_worker_ids_in_range;
      Alcotest.test_case "exceptions propagate" `Quick
        test_exception_propagates;
      Alcotest.test_case "reuse across batches" `Quick
        test_reuse_across_batches;
      Alcotest.test_case "empty and singleton batches" `Quick
        test_empty_and_singleton;
      Alcotest.test_case "creation validation" `Quick test_create_validation;
      Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
      Alcotest.test_case "map after shutdown raises (both paths)" `Quick
        test_map_after_shutdown_raises;
      Alcotest.test_case "shutdown while idle" `Quick test_shutdown_while_idle;
      Alcotest.test_case "forced dispatch, chunked cursor" `Quick
        test_forced_dispatch_chunked;
      Alcotest.test_case "exception mid-batch (dispatched)" `Quick
        test_exception_mid_batch_forced;
      Alcotest.test_case "two-item batches reach a worker" `Quick
        test_two_items_reach_a_worker;
    ] )
