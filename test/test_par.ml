(* Domain-pool tests: order preservation, pool reuse, the sequential
   jobs=1 path, and deterministic (lowest-index) exception surfacing. *)

let collatz_steps n =
  let rec go n acc = if n <= 1 then acc else go (if n mod 2 = 0 then n / 2 else (3 * n) + 1) (acc + 1) in
  go n 0

let test_map_preserves_order () =
  let xs = List.init 200 (fun i -> i + 1) in
  let expected = List.map collatz_steps xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        expected
        (Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
             Ifko_par.Par.Pool.map pool collatz_steps xs)))
    [ 4; 1 ]

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
        Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
            Ifko_par.Par.Pool.map pool
              (fun i -> if i mod 2 = 1 then failwith (string_of_int i) else i)
              (List.init 20 (fun i -> i)))
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

(* ---------- Memo ---------- *)

module Memo = Ifko_par.Memo

let memo_counts m = (fun s -> (s.Memo.hits, s.Memo.misses)) (Memo.stats m)

(* Four domains asking one key run the compute once; the other three
   are answered by the table or by joining the flight, and count as
   hits either way. *)
let test_memo_single_flight () =
  let m = Memo.create () and computes = Atomic.make 0 and ready = Atomic.make 0 in
  let got =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            Memo.get m "k" (fun () ->
                Atomic.incr computes;
                Unix.sleepf 0.05;
                42)))
    |> List.map Domain.join
  in
  Alcotest.(check (list int)) "every caller gets the value" [ 42; 42; 42; 42 ] got;
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  Alcotest.(check (pair int int)) "three hits, one miss" (3, 1) (memo_counts m)

(* A raising compute reaches its own caller only, is not stored and
   counts as a miss; a caller waiting on it takes the key over. *)
let test_memo_raise () =
  let m = Memo.create () in
  (match Memo.get m "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the compute's exception"
  | exception Failure msg -> Alcotest.(check string) "own exception" "boom" msg);
  Alcotest.(check (pair int int)) "a raise is a miss" (0, 1) (memo_counts m);
  Alcotest.(check (option int)) "nothing stored" None (Memo.find m "k");
  let m = Memo.create () and started = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        match
          Memo.get m "k" (fun () ->
              Atomic.set started true;
              Unix.sleepf 0.05;
              failwith "leader")
        with
        | _ -> Alcotest.fail "the leader's compute returned"
        | exception Failure msg -> msg)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiter = Memo.get m "k" (fun () -> 7) in
  Alcotest.(check string) "the leader sees its own failure" "leader" (Domain.join leader);
  Alcotest.(check int) "the waiter computes its own value" 7 waiter;
  Alcotest.(check (pair int int)) "both ran a compute" (0, 2) (memo_counts m);
  Alcotest.(check int) "then held" 7 (Memo.get m "k" (fun () -> Alcotest.fail "recomputed"));
  Alcotest.(check (pair int int)) "a hit" (1, 2) (memo_counts m)

(* The held weight never passes the limit: an insert that would pass it
   drops the whole table first, and an entry heavier than the limit on
   its own is not stored. *)
let test_memo_bound =
  QCheck.Test.make ~count:200 ~name:"memo: held weight within the limit"
    QCheck.(pair (int_range 1 40) (small_list (pair (int_range 0 9) (int_range 0 50))))
    (fun (limit, keys) ->
      (* a key is (name, weight) and holds its weight as the value *)
      let m = Memo.create ~limit ~weight:snd () in
      let model = Hashtbl.create 8 and held = ref 0 in
      List.iteri
        (fun i ((_, w) as k) ->
          if i mod 2 = 0 then Memo.add m k w else ignore (Memo.get m k (fun () -> w) : int);
          if not (Hashtbl.mem model k) then begin
            if !held + w > limit then begin
              Hashtbl.reset model;
              held := 0
            end;
            if w <= limit then begin
              Hashtbl.replace model k w;
              held := !held + w
            end
          end;
          let s = Memo.stats m in
          if s.Memo.held > limit then QCheck.Test.fail_reportf "held %d > limit %d" s.Memo.held limit;
          if s.Memo.held <> !held then
            QCheck.Test.fail_reportf "held %d, model %d" s.Memo.held !held)
        keys;
      List.for_all (fun k -> Memo.find m k = Hashtbl.find_opt model k) keys)

let test_memo_drop_whole () =
  let m = Memo.create ~limit:3 () in
  List.iter (fun k -> Memo.add m k (10 * k)) [ 1; 2; 3 ];
  Alcotest.(check int) "full" 3 (Memo.stats m).Memo.held;
  Memo.add m 4 40;
  Alcotest.(check int) "dropped, then the new entry" 1 (Memo.stats m).Memo.held;
  Alcotest.(check (list (option int))) "only the new entry held"
    [ None; None; None; Some 40 ]
    (List.map (Memo.find m) [ 1; 2; 3; 4 ])

(* [find] counts one hit or miss, [add] counts nothing and keeps a
   held key's first value. *)
let test_memo_find_add () =
  let m = Memo.create () in
  Alcotest.(check (option string)) "empty" None (Memo.find m 1);
  Alcotest.(check (pair int int)) "a find that misses" (0, 1) (memo_counts m);
  Memo.add m 1 "one";
  Memo.add m 1 "uno";
  Alcotest.(check (pair int int)) "add counts nothing" (0, 1) (memo_counts m);
  Alcotest.(check (option string)) "first value kept" (Some "one") (Memo.find m 1);
  Alcotest.(check (pair int int)) "a find that hits" (1, 1) (memo_counts m);
  Alcotest.(check string) "get sees an added value" "one" (Memo.get m 1 (fun () -> "x"));
  Alcotest.(check (pair int int)) "a get that hits" (2, 1) (memo_counts m);
  Alcotest.(check int) "one entry" 1 (Memo.stats m).Memo.held

(* ---------- Freelist ---------- *)

module Freelist = Ifko_par.Freelist

let pool_counts p = (fun (s : Memo.stats) -> (s.hits, s.misses, s.held)) (Freelist.stats p)

(* Four domains taking and putting over three keys under a limit small
   enough to force drops: a value is never held by two domains at once
   (its flag is claimed on take and released before put), and every
   take counts once, a miss exactly when the domain built a value. *)
let test_freelist_exclusive () =
  let p = Freelist.create ~limit:5 () in
  let rounds = 2000 and ready = Atomic.make 0 and shared = Atomic.make 0 in
  let builds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            let built = ref 0 in
            for i = 1 to rounds do
              let key = (i + d) mod 3 in
              let held =
                match Freelist.take p key with
                | Some v ->
                  if not (Atomic.compare_and_set v false true) then Atomic.incr shared;
                  v
                | None ->
                  incr built;
                  Atomic.make true
              in
              Domain.cpu_relax ();
              Atomic.set held false;
              Freelist.put p key held
            done;
            !built))
    |> List.map Domain.join
  in
  Alcotest.(check int) "no value held twice" 0 (Atomic.get shared);
  let hits, misses, held = pool_counts p in
  Alcotest.(check int) "one count per take" (4 * rounds) (hits + misses);
  Alcotest.(check int) "a miss per built value" (List.fold_left ( + ) 0 builds) misses;
  Alcotest.(check bool) "held within the limit" true (held <= 5)

(* The held weight never passes the limit: a put that would pass it
   empties the pool first, and a value heavier than the limit on its
   own is dropped.  Checked against a model of per-key stacks. *)
let test_freelist_bound =
  QCheck.Test.make ~count:200 ~name:"freelist: held weight within the limit"
    QCheck.(
      pair (int_range 1 40) (small_list (pair bool (pair (int_range 0 4) (int_range 0 30)))))
    (fun (limit, ops) ->
      (* a key is (name, weight); values are distinct ints *)
      let p = Freelist.create ~limit ~weight:snd () in
      let model = Hashtbl.create 8 and held = ref 0 in
      List.iteri
        (fun i (is_put, k) ->
          let w = snd k in
          if is_put then begin
            Freelist.put p k i;
            if !held + w > limit then begin
              Hashtbl.reset model;
              held := 0
            end;
            if w <= limit then begin
              Hashtbl.add model k i;
              held := !held + w
            end
          end
          else begin
            let want = Hashtbl.find_opt model k in
            if Option.is_some want then begin
              Hashtbl.remove model k;
              held := !held - w
            end;
            let got = Freelist.take p k in
            if got <> want then QCheck.Test.fail_reportf "take %d: pool and model differ" i
          end;
          let _, _, h = pool_counts p in
          if h > limit then QCheck.Test.fail_reportf "held %d > limit %d" h limit;
          if h <> !held then QCheck.Test.fail_reportf "held %d, model %d" h !held)
        ops;
      true)

(* [take] counts one hit or one miss, [put] counts nothing; a put that
   passes the limit leaves only the new value held. *)
let test_freelist_counts () =
  let p = Freelist.create ~limit:3 () in
  Alcotest.(check (option string)) "empty" None (Freelist.take p 1);
  Alcotest.(check (triple int int int)) "a take that misses" (0, 1, 0) (pool_counts p);
  Freelist.put p 1 "a";
  Freelist.put p 1 "b";
  Freelist.put p 2 "c";
  Alcotest.(check (triple int int int)) "put counts nothing" (0, 1, 3) (pool_counts p);
  Alcotest.(check (option string)) "last put first" (Some "b") (Freelist.take p 1);
  Alcotest.(check (triple int int int)) "a take that hits" (1, 1, 2) (pool_counts p);
  Freelist.put p 1 "b";
  Freelist.put p 3 "d";
  Alcotest.(check (triple int int int)) "passing the limit empties the pool" (1, 1, 1)
    (pool_counts p);
  Alcotest.(check (list (option string))) "only the new value held" [ None; None; Some "d" ]
    (List.map (Freelist.take p) [ 1; 2; 3 ])

let suite =
  [ Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "run is input-indexed" `Quick test_run_indexed;
    Alcotest.test_case "lowest-index exception" `Quick test_lowest_index_exception;
    Alcotest.test_case "pool survives failed batch" `Quick test_pool_survives_failed_batch;
    Alcotest.test_case "lanes bounded by jobs" `Quick test_lanes_bounded_by_jobs;
    Alcotest.test_case "memo: one compute across domains" `Quick test_memo_single_flight;
    Alcotest.test_case "memo: a raise is not stored" `Quick test_memo_raise;
    QCheck_alcotest.to_alcotest test_memo_bound;
    Alcotest.test_case "memo: passing the limit drops all" `Quick test_memo_drop_whole;
    Alcotest.test_case "memo: find and add counts" `Quick test_memo_find_add;
    Alcotest.test_case "freelist: one holder per value" `Quick test_freelist_exclusive;
    QCheck_alcotest.to_alcotest test_freelist_bound;
    Alcotest.test_case "freelist: take and put counts" `Quick test_freelist_counts;
  ]
