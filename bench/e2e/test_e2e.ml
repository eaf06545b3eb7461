(* Tests of the end-to-end benchmark's own machinery. *)

open Ifko_e2e
open Ifko_blas

let feq = Alcotest.float 1e-12

(* ---------- statistics ---------- *)

let test_tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) want (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 75.0);
  check 100 (Some 90.0);
  check 999 (Some 95.0);
  check 1000 (Some 99.0);
  check 10000 (Some 99.9);
  (* the rule itself: at least ten samples beyond the chosen rank *)
  List.iter
    (fun n ->
      match Stats.tail_percentile n with
      | Some p -> Alcotest.(check bool) "ten beyond" true (Stats.beyond ~n p >= 10)
      | None -> ())
    [ 20; 57; 100; 112; 1234; 200000 ]

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Stats.quartiles [ 3.0; 1.0; 2.0 ] in
  Alcotest.check feq "q1" 1.0 q1;
  Alcotest.check feq "q2" 2.0 q2;
  Alcotest.check feq "q3" 3.0 q3

(* ---------- span self time ---------- *)

let test_self_time () =
  let sp id name parent dom t0 t1 = { Trace.id; name; parent; op = 1; dom; t0; t1 } in
  (* a root on domain 0 with children on two domains that overlap each
     other, one running past the root's end, and a grandchild *)
  let spans =
    [ sp 1 "op" 0 0 0.0 10.0;
      sp 2 "a" 1 0 1.0 5.0;
      sp 3 "b" 1 1 3.0 8.0;
      sp 4 "c" 3 1 4.0 6.0;
      sp 5 "d" 1 1 9.0 12.0 ]
  in
  let self = Trace.self_times spans in
  let get id = snd (List.find (fun ((s : Trace.span), _) -> s.Trace.id = id) self) in
  (* children cover [1, 8] and [9, 10] of the root: 8 of its 10 *)
  Alcotest.check feq "root" 2.0 (get 1);
  Alcotest.check feq "a" 4.0 (get 2);
  Alcotest.check feq "b" 3.0 (get 3);
  Alcotest.check feq "c" 2.0 (get 4);
  Alcotest.check feq "d" 3.0 (get 5);
  Alcotest.check feq "union" 7.0
    (Trace.covered ~t0:0.0 ~t1:8.0 [ (1.0, 5.0); (3.0, 8.0); (4.0, 6.0) ])

(* ---------- the metric table against BENCHMARK.json ---------- *)

let test_declared_names () =
  let d = Metrics.load_declared "../../BENCHMARK.json" in
  let key (m : Metrics.metric) =
    (m.Metrics.name, m.Metrics.unit, Metrics.better_name m.Metrics.better)
  in
  let keys = List.map key in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.(check (list string)) "workloads" Metrics.workloads d.Metrics.workloads;
  Alcotest.check triple "end to end" (keys Metrics.end_to_end) (keys (List.map fst d.Metrics.e2e));
  Alcotest.check triple "per layer" (keys Metrics.per_layer) (keys d.Metrics.layers);
  (* what the layer accounting emits is declared *)
  let emitted =
    Layers.metrics ~c:(Replay.counters ()) ~jobs:1 ~overhead_pct:0.0 ~extra:[] []
  in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " declared") true
        (List.exists (fun (m : Metrics.metric) -> m.Metrics.name = name) Metrics.per_layer))
    emitted;
  List.iter
    (fun (m, bound) ->
      Alcotest.(check bool) (m.Metrics.name ^ " bound in (0, 0.25]") true
        (bound > 0.0 && bound <= 0.25))
    d.Metrics.e2e

(* ---------- replay ---------- *)

let ddot = { Defs.routine = Defs.Dot; prec = Instr.D }

let replay_case ~strategy ~fidelity ~jobs () =
  let t =
    { Replay.id = ddot; compiled = Hil_sources.compile ddot; cfg = Ifko_machine.Config.p4e;
      context = Ifko_sim.Timer.Out_of_cache; n = 4000; seed = 20050614; strategy; fidelity;
      warm_start = false; jobs }
  in
  let plain = Replay.tune t in
  Trace.on := true;
  let c = Replay.counters () in
  let h = Trace.op_span 1 "op" (fun () -> Replay.hooked_tune t) in
  Trace.op_span 1 "replay" (fun () -> Replay.replay c t h);
  Trace.on := false;
  Alcotest.(check bool) "hooked = plain" true (Replay.same_tuned plain h.Replay.tuned);
  Alcotest.(check (list string)) "replay = hooked" [] c.Replay.mismatches;
  Alcotest.(check int) "every evaluation replayed"
    h.Replay.tuned.Ifko_search.Driver.evaluations c.Replay.evaluations;
  (* a recorded outcome one cycle off must not replay as equal *)
  let key =
    Hashtbl.fold
      (fun k o acc -> match o with Ifko_store.Store.Timed _ -> Some k | _ -> acc)
      h.Replay.memo None
    |> Option.get
  in
  (match Hashtbl.find h.Replay.memo key with
  | Ifko_store.Store.Timed { cycles; mflops } ->
    Hashtbl.replace h.Replay.memo key (Ifko_store.Store.Timed { cycles = cycles +. 1.0; mflops })
  | _ -> ());
  let c' = Replay.counters () in
  Replay.replay c' t h;
  Alcotest.(check bool) "altered cycles detected" true (c'.Replay.mismatches <> [])

(* ---------- seeds ---------- *)

let test_op_seeds () =
  let s = Workloads.op_seed in
  Alcotest.(check (list int)) "one seed per operation" [ 7000; 7001; 7111; 8000 ]
    [ s ~seed:7 0; s ~seed:7 1; s ~seed:7 111; s ~seed:8 0 ];
  (* a repro pass is every double-precision kernel in all four
     studies, kernel by kernel *)
  let per_pass = Array.length Workloads.repro_rows in
  Alcotest.(check int) "rows per pass" 28 per_pass;
  let lowered = Workloads.lower_all () in
  let spec i = Workloads.repro_spec lowered i ~seed:(s ~seed:7 i) in
  let first = spec 0 and last = spec (per_pass - 1) and next = spec per_pass in
  Alcotest.(check string) "first kernel" "dswap" (Defs.name first.Replay.id);
  Alcotest.(check string) "last kernel" "idamax" (Defs.name last.Replay.id);
  Alcotest.(check string) "last machine" "Opteron" last.Replay.cfg.Ifko_machine.Config.name;
  Alcotest.(check string) "the next pass starts over" "dswap" (Defs.name next.Replay.id);
  Alcotest.(check int) "its own seed" 7028 next.Replay.seed;
  let rows =
    List.init per_pass (fun i ->
        let t = spec i in
        (Defs.name t.Replay.id, t.Replay.cfg.Ifko_machine.Config.name, t.Replay.n))
  in
  Alcotest.(check int) "distinct rows" per_pass (List.length (List.sort_uniq compare rows))

(* ---------- set-up time ---------- *)

let test_setup_stretches () =
  (* set-ups repeated between operations: the median of five stretch
     means, so a slow stretch (the 9) does not move it *)
  let samples = List.rev [ 1.0; 1.0; 9.0; 1.0; 2.0; 2.0; 2.0; 2.0; 3.0; 3.0 ] in
  Alcotest.check feq "setup_s" 2.0 (Workloads.setup_s (Workloads.Between ignore, samples));
  Alcotest.check feq "before" 0.5 (Workloads.setup_s (Workloads.Before 0.5, []))

(* ---------- comparison rule ---------- *)

let test_judge () =
  let j a b = Compare.judge ~dir:Metrics.Lower ~bound:0.1 a b in
  let base = [ 10.0; 10.1; 9.9; 10.05; 9.95; 10.0; 10.02; 9.98; 10.01; 9.99 ] in
  let scale k = List.map (fun x -> x *. k) base in
  let v = Alcotest.testable (Fmt.of_to_string Compare.verdict_name) ( = ) in
  Alcotest.check v "same" Compare.Within (j base base);
  Alcotest.check v "5% worse is within a 10% bound" Compare.Within (j base (scale 1.05));
  Alcotest.check v "20% worse" Compare.Regressed (j base (scale 1.2));
  Alcotest.check v "20% better" Compare.Improved (j base (scale 0.8));
  Alcotest.check v "too noisy" Compare.Unresolved
    (j base [ 5.0; 15.0; 9.0; 11.0; 6.0; 14.0; 10.0; 10.0; 7.0; 13.0 ]);
  Alcotest.check v "one run" Compare.Too_few (j base [ 10.0 ])

let () =
  Alcotest.run "e2e"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
          Alcotest.test_case "comparison verdicts" `Quick test_judge ] );
      ("trace", [ Alcotest.test_case "self time, two domains" `Quick test_self_time ]);
      ("metrics", [ Alcotest.test_case "names equal BENCHMARK.json" `Quick test_declared_names ]);
      ("seeds", [ Alcotest.test_case "per-operation seeds" `Quick test_op_seeds ]);
      ("set-up", [ Alcotest.test_case "median of stretches" `Quick test_setup_stretches ]);
      ( "replay",
        [ Alcotest.test_case "ddot N=4000 linesearch" `Quick
            (replay_case ~strategy:Ifko_search.Driver.Linesearch ~fidelity:Ifko_sim.Timer.Full
               ~jobs:1);
          Alcotest.test_case "ddot N=4000 surrogate sampled" `Quick
            (replay_case ~strategy:Ifko_search.Driver.Surrogate
               ~fidelity:Ifko_sim.Timer.Sampled ~jobs:1);
          Alcotest.test_case "ddot N=4000 linesearch, 2 domains" `Quick
            (replay_case ~strategy:Ifko_search.Driver.Linesearch ~fidelity:Ifko_sim.Timer.Full
               ~jobs:2) ] ) ]
