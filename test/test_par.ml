(* Domain-pool tests: order preservation, pool reuse, the sequential
   jobs=1 path, and deterministic (lowest-index) exception surfacing. *)

let collatz_steps n =
  let rec go n acc = if n <= 1 then acc else go (if n mod 2 = 0 then n / 2 else (3 * n) + 1) (acc + 1) in
  go n 0

let test_map_preserves_order () =
  let xs = List.init 200 (fun i -> i + 1) in
  let expected = List.map collatz_steps xs in
  Alcotest.(check (list int)) "jobs=4 equals sequential" expected
    (Ifko_par.Par.map ~jobs:4 collatz_steps xs);
  Alcotest.(check (list int)) "jobs=1 equals sequential" expected
    (Ifko_par.Par.map ~jobs:1 collatz_steps xs)

let test_pool_reuse () =
  Ifko_par.Par.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "clamped jobs" 3 (Ifko_par.Par.Pool.jobs pool);
      Alcotest.(check (list int)) "first batch" [ 2; 4; 6 ]
        (Ifko_par.Par.Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]);
      Alcotest.(check (list string)) "second batch, different type" [ "1"; "2" ]
        (Ifko_par.Par.Pool.map pool string_of_int [ 1; 2 ]);
      Alcotest.(check (list int)) "empty batch" []
        (Ifko_par.Par.Pool.map pool (fun x -> x) []))

let test_run_indexed () =
  Ifko_par.Par.Pool.with_pool ~jobs:4 (fun pool ->
      let squares = Ifko_par.Par.Pool.run pool 17 (fun i -> i * i) in
      Alcotest.(check int) "length" 17 (Array.length squares);
      Array.iteri (fun i v -> Alcotest.(check int) "slot" (i * i) v) squares)

let test_lowest_index_exception () =
  List.iter
    (fun jobs ->
      match
        Ifko_par.Par.map ~jobs
          (fun i -> if i mod 2 = 1 then failwith (string_of_int i) else i)
          (List.init 20 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "lowest failing index surfaces (jobs=%d)" jobs)
          "1" msg)
    [ 1; 4 ]

let test_pool_survives_failed_batch () =
  Ifko_par.Par.Pool.with_pool ~jobs:4 (fun pool ->
      (match Ifko_par.Par.Pool.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure _ -> ());
      Alcotest.(check (list int)) "pool still works" [ 10; 20 ]
        (Ifko_par.Par.Pool.map pool (fun x -> 10 * x) [ 1; 2 ]))

(* [jobs] lanes in all, the submitter included: with one submitter no
   more than [jobs] tasks are ever running at once. *)
let test_lanes_bounded_by_jobs () =
  List.iter
    (fun jobs ->
      let running = Atomic.make 0 and peak = Atomic.make 0 in
      let rec raise_peak v =
        let p = Atomic.get peak in
        if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v
      in
      Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
          ignore
            (Ifko_par.Par.Pool.run pool (4 * jobs) (fun _ ->
                 raise_peak (Atomic.fetch_and_add running 1 + 1);
                 Unix.sleepf 0.005;
                 Atomic.decr running)
              : unit array));
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: at most %d tasks in flight (saw %d)" jobs jobs
           (Atomic.get peak))
        true
        (Atomic.get peak <= jobs))
    [ 2; 3; 4 ]

let test_available_jobs () =
  Alcotest.(check bool) "at least one domain" true (Ifko_par.Par.available_jobs () >= 1)

let suite =
  [ Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "run is input-indexed" `Quick test_run_indexed;
    Alcotest.test_case "lowest-index exception" `Quick test_lowest_index_exception;
    Alcotest.test_case "pool survives failed batch" `Quick test_pool_survives_failed_batch;
    Alcotest.test_case "lanes bounded by jobs" `Quick test_lanes_bounded_by_jobs;
    Alcotest.test_case "available jobs" `Quick test_available_jobs;
  ]
