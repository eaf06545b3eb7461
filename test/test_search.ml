(* Search tests: the modified line search on synthetic objectives, its
   memoization, and the end-to-end driver on a real kernel. *)
open Ifko_blas
open Ifko_transform

let report_for id = Ifko_analysis.Report.analyze (Hil_sources.compile id)

(* The line search the way a tune runs it: its strategy under
   Strategy.run. *)
let linesearch ?map_batch ~cfg ~report ~init probe =
  Ifko_search.Strategy.run ?map_batch ~init
    ~make:(fun ~init_perf ->
      Ifko_search.Linesearch.strategy ~cfg ~report ~init ~init_perf ())
    probe

let test_space_gates () =
  let dot = report_for { Defs.routine = Defs.Dot; prec = Instr.D } in
  let iamax = report_for { Defs.routine = Defs.Iamax; prec = Instr.D } in
  Alcotest.(check (list bool)) "dot can disable SV" [ true; false ]
    (Ifko_search.Space.sv_candidates dot);
  Alcotest.(check (list bool)) "iamax never vectorizes" [ false ]
    (Ifko_search.Space.sv_candidates iamax);
  Alcotest.(check (list int)) "no accumulators, no AE" [ 0 ]
    (Ifko_search.Space.ae_candidates (report_for { Defs.routine = Defs.Copy; prec = Instr.D }));
  Alcotest.(check bool) "W prefetch only on Opteron" true
    (List.mem (Some Instr.W) (Ifko_search.Space.pf_ins_candidates Ifko_machine.Config.opteron)
    && not (List.mem (Some Instr.W) (Ifko_search.Space.pf_ins_candidates Ifko_machine.Config.p4e)));
  Alcotest.(check (list bool)) "no outputs, no WNT" [ false ]
    (Ifko_search.Space.wnt_candidates dot)

(* Synthetic objective: reward a specific parameter combination; the
   search must find it from the default starting point. *)
let test_linesearch_finds_optimum () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let report = report_for id in
  let cfg = Ifko_machine.Config.p4e in
  let init = Params.default ~line_bytes:128 report in
  let evals = ref 0 in
  let probe (p : Params.t) =
    incr evals;
    let score = ref 100.0 in
    if p.Params.unroll = 8 then score := !score +. 50.0;
    if p.Params.ae = 3 then score := !score +. 25.0;
    (match List.assoc_opt "X" p.Params.prefetch with
    | Some { Params.pf_ins = ins; pf_dist = dist } ->
      if ins = Some Instr.T0 then score := !score +. 40.0;
      if dist = 1280 then score := !score +. 40.0
    | None -> ());
    if not p.Params.wnt then score := !score +. 5.0;
    !score
  in
  let r = linesearch ~cfg ~report ~init probe in
  Alcotest.(check int) "finds UR" 8 r.Ifko_search.Strategy.best.Params.unroll;
  Alcotest.(check int) "finds AE" 3 r.Ifko_search.Strategy.best.Params.ae;
  (match List.assoc "X" r.Ifko_search.Strategy.best.Params.prefetch with
  | { Params.pf_ins = Some Instr.T0; pf_dist = 1280 } -> ()
  | _ -> Alcotest.fail "prefetch optimum missed");
  Alcotest.(check (float 1e-9)) "best score" 260.0 r.Ifko_search.Strategy.best_perf;
  Alcotest.(check int) "eval accounting" !evals r.Ifko_search.Strategy.evaluations

let test_linesearch_memoizes () =
  let id = { Defs.routine = Defs.Asum; prec = Instr.S } in
  let report = report_for id in
  let init = Params.default ~line_bytes:128 report in
  let seen = Hashtbl.create 64 in
  let dup = ref 0 in
  let probe p =
    if Hashtbl.mem seen p then incr dup else Hashtbl.replace seen p ();
    1.0
  in
  let r = linesearch ~cfg:Ifko_machine.Config.p4e ~report ~init probe in
  Alcotest.(check int) "no duplicate probes" 0 !dup;
  Alcotest.(check bool) "a real search happened" true (r.Ifko_search.Strategy.evaluations > 20)

let test_linesearch_contributions_multiply () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let report = report_for id in
  let init = Params.default ~line_bytes:128 report in
  let probe (p : Params.t) =
    1.0 +. (0.1 *. float_of_int p.Params.unroll) +. if p.Params.wnt then -0.5 else 0.0
  in
  let r = linesearch ~cfg:Ifko_machine.Config.p4e ~report ~init probe in
  let product =
    List.fold_left (fun acc (_, ratio) -> acc *. ratio) 1.0
      r.Ifko_search.Strategy.contributions
  in
  Alcotest.(check (float 1e-6)) "contributions compose to the total"
    (r.Ifko_search.Strategy.best_perf /. r.Ifko_search.Strategy.start_perf)
    product

let test_driver_improves_and_verifies () =
  let id = { Defs.routine = Defs.Asum; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:13 in
  let rejected = ref 0 in
  let test func =
    let env = Workload.make_env id ~seed:17 77 in
    let expect = Workload.expectation id ~seed:17 77 in
    let ok =
      Ifko_sim.Verify.check ~tol:(Workload.tolerance id ~n:77) ~ret_fsize:id.Defs.prec func
        env expect
      = Ok ()
    in
    if not ok then incr rejected;
    ok
  in
  let tuned =
    Ifko_search.Driver.tune ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000
      ~flops_per_n:2.0 ~test compiled
  in
  Alcotest.(check int) "no candidate computed wrong answers" 0 !rejected;
  Alcotest.(check bool) "search never loses to the default" true
    (tuned.Ifko_search.Driver.ifko_mflops >= tuned.Ifko_search.Driver.fko_mflops);
  Alcotest.(check bool) "asum gains from tuning on P4E" true
    (tuned.Ifko_search.Driver.ifko_mflops > 1.2 *. tuned.Ifko_search.Driver.fko_mflops);
  Validate.check_physical tuned.Ifko_search.Driver.best_func

let test_driver_rejects_wrong_answers () =
  (* a tester that rejects everything forces the search to keep the
     default point *)
  let id = { Defs.routine = Defs.Scal; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let spec = Workload.timer_spec id ~seed:13 in
  let tuned =
    Ifko_search.Driver.tune ~cfg:Ifko_machine.Config.p4e ~context:Ifko_sim.Timer.Out_of_cache
      ~spec ~n:80000 ~flops_per_n:1.0
      ~test:(fun _ -> false)
      compiled
  in
  Alcotest.(check bool) "nothing accepted" true
    (tuned.Ifko_search.Driver.ifko_mflops = neg_infinity
    || tuned.Ifko_search.Driver.ifko_mflops = tuned.Ifko_search.Driver.fko_mflops)

(* A non-positive problem size fails closed before any probe runs: at
   n = 0 every timing is zero cycles, so MFLOPS would be meaningless. *)
let test_driver_rejects_empty_problem () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let spec = Workload.timer_spec id ~seed:13 in
  let probes = ref 0 in
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "n=%d" n) (Invalid_argument "n must be positive")
        (fun () ->
          ignore
            (Ifko_search.Driver.tune ~cfg:Ifko_machine.Config.p4e
               ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n ~flops_per_n:2.0
               ~test:(fun _ ->
                 incr probes;
                 true)
               compiled
              : Ifko_search.Driver.tuned)))
    [ 0; -3 ];
  Alcotest.(check int) "no probe tested" 0 !probes

(* ---- parallel evaluation and the persistent store ---- *)

let params_t : Params.t Alcotest.testable =
  Alcotest.testable (fun fmt p -> Format.pp_print_string fmt (Params.canonical p)) ( = )

(* The synthetic objective used for the parallel/sequential comparison:
   pure (no shared state), so it can run on worker domains. *)
let synthetic_probe (p : Params.t) =
  let score = ref (10.0 +. (0.7 *. float_of_int p.Params.unroll)) in
  if p.Params.ae = 4 then score := !score +. 11.0;
  if p.Params.sv then score := !score +. 3.0;
  (match List.assoc_opt "X" p.Params.prefetch with
  | Some { Params.pf_ins = Some Instr.T1; pf_dist } ->
    score := !score +. (float_of_int pf_dist /. 100.0)
  | _ -> ());
  !score

let test_linesearch_parallel_matches_sequential () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let report = report_for id in
  let cfg = Ifko_machine.Config.p4e in
  let init = Params.default ~line_bytes:128 report in
  let seq = linesearch ~cfg ~report ~init synthetic_probe in
  let par =
    Ifko_par.Par.Pool.with_pool ~jobs:4 (fun pool ->
        linesearch
          ~map_batch:(fun f xs -> Ifko_par.Par.Pool.map pool f xs)
          ~cfg ~report ~init synthetic_probe)
  in
  Alcotest.check params_t "same best point" seq.Ifko_search.Strategy.best
    par.Ifko_search.Strategy.best;
  Alcotest.(check (float 0.0)) "same best perf" seq.Ifko_search.Strategy.best_perf
    par.Ifko_search.Strategy.best_perf;
  Alcotest.(check int) "same evaluation count" seq.Ifko_search.Strategy.evaluations
    par.Ifko_search.Strategy.evaluations

(* A real end-to-end tune, sequential vs. 4 worker domains: the paper's
   whole search must come out bit-identical. *)
let test_driver_jobs_bit_identical () =
  let id = { Defs.routine = Defs.Asum; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:13 in
  let tune ~jobs =
    Ifko_search.Driver.tune ~jobs ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000
      ~flops_per_n:1.0
      ~test:(fun _ -> true)
      compiled
  in
  let t1 = tune ~jobs:1 and t4 = tune ~jobs:4 in
  Alcotest.check params_t "same best_params" t1.Ifko_search.Driver.best_params
    t4.Ifko_search.Driver.best_params;
  Alcotest.(check (float 0.0)) "same MFLOPS" t1.Ifko_search.Driver.ifko_mflops
    t4.Ifko_search.Driver.ifko_mflops;
  Alcotest.(check int) "same evaluations" t1.Ifko_search.Driver.evaluations
    t4.Ifko_search.Driver.evaluations;
  Alcotest.(check (list (pair string (float 0.0)))) "same contributions"
    t1.Ifko_search.Driver.contributions t4.Ifko_search.Driver.contributions

let with_tmp_store_path f =
  let path = Filename.temp_file "ifko_search_store" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> Ifko_store.Store.clear path) (fun () -> f path)

let read_lines path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

(* A tune killed mid-search leaves a journal of completed probes; a
   resumed tune must re-evaluate only what is missing and land on the
   same answer.  Simulated by truncating the journal to its first half
   (exactly the on-disk state of a mid-search kill — the append order
   is the probe order). *)
let test_driver_store_resume () =
  let id = { Defs.routine = Defs.Scal; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:13 in
  let tune ?store () =
    Ifko_search.Driver.tune ?store ~seed:13 ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec
      ~n:80000 ~flops_per_n:1.0
      ~test:(fun _ -> true)
      compiled
  in
  let plain = tune () in
  with_tmp_store_path (fun path ->
      (* cold run: every probe is computed and journaled *)
      let st = Ifko_store.Store.open_ ~seed:13 path in
      let cold = tune ~store:st () in
      let cold_misses = Ifko_store.Store.misses st in
      Alcotest.(check int) "cold run computes every distinct point"
        cold.Ifko_search.Driver.evaluations cold_misses;
      Alcotest.(check int) "cold run hits nothing" 0 (Ifko_store.Store.hits st);
      Alcotest.check params_t "store does not change the answer"
        plain.Ifko_search.Driver.best_params cold.Ifko_search.Driver.best_params;
      Alcotest.(check (float 0.0)) "store does not change the MFLOPS"
        plain.Ifko_search.Driver.ifko_mflops cold.Ifko_search.Driver.ifko_mflops;
      Ifko_store.Store.close st;
      (* warm rerun: everything is answered from the journal *)
      let st2 = Ifko_store.Store.open_ path in
      let warm = tune ~store:st2 () in
      Alcotest.(check int) "warm rerun recomputes nothing" 0 (Ifko_store.Store.misses st2);
      Alcotest.(check int) "warm rerun is all journal hits"
        warm.Ifko_search.Driver.evaluations (Ifko_store.Store.hits st2);
      Alcotest.check params_t "warm best_params identical"
        cold.Ifko_search.Driver.best_params warm.Ifko_search.Driver.best_params;
      Alcotest.(check (float 0.0)) "warm MFLOPS identical"
        cold.Ifko_search.Driver.ifko_mflops warm.Ifko_search.Driver.ifko_mflops;
      Alcotest.(check int) "warm evaluations identical"
        cold.Ifko_search.Driver.evaluations warm.Ifko_search.Driver.evaluations;
      Ifko_store.Store.close st2;
      (* kill mid-search: keep the header and the first half of the
         journaled probes, resume from there *)
      (match read_lines path with
      | header :: entries ->
        let keep = List.filteri (fun i _ -> i < List.length entries / 2) entries in
        let oc = open_out_bin path in
        List.iter (fun l -> output_string oc (l ^ "\n")) (header :: keep);
        close_out oc
      | [] -> Alcotest.fail "journal is empty");
      let st3 = Ifko_store.Store.open_ path in
      let resumed = tune ~store:st3 () in
      Alcotest.(check bool) "resume re-evaluates only the lost tail" true
        (Ifko_store.Store.misses st3 > 0 && Ifko_store.Store.misses st3 < cold_misses);
      Alcotest.(check int) "journaled points are not re-evaluated"
        (cold_misses - Ifko_store.Store.misses st3)
        (Ifko_store.Store.hits st3);
      Alcotest.check params_t "resumed best_params identical"
        cold.Ifko_search.Driver.best_params resumed.Ifko_search.Driver.best_params;
      Alcotest.(check (float 0.0)) "resumed MFLOPS identical"
        cold.Ifko_search.Driver.ifko_mflops resumed.Ifko_search.Driver.ifko_mflops;
      Ifko_store.Store.close st3)

(* A store keyed on one kernel must miss for an edited kernel: tuning
   ddot against a journal full of dasum results computes everything. *)
let test_store_invalidation_on_kernel_edit () =
  let cfg = Ifko_machine.Config.p4e in
  let tune ~store id =
    let compiled = Hil_sources.compile id in
    let spec = Workload.timer_spec id ~seed:13 in
    Ifko_search.Driver.tune ~store ~seed:13 ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec
      ~n:80000 ~flops_per_n:1.0
      ~test:(fun _ -> true)
      compiled
  in
  with_tmp_store_path (fun path ->
      let st = Ifko_store.Store.open_ ~seed:13 path in
      let a = tune ~store:st { Defs.routine = Defs.Asum; prec = Instr.D } in
      let after_a = Ifko_store.Store.misses st in
      Alcotest.(check int) "first kernel all computed" a.Ifko_search.Driver.evaluations
        after_a;
      let b = tune ~store:st { Defs.routine = Defs.Dot; prec = Instr.D } in
      Alcotest.(check int) "different kernel shares nothing"
        (after_a + b.Ifko_search.Driver.evaluations)
        (Ifko_store.Store.misses st);
      Ifko_store.Store.close st)

(* ---- the compile-once probe cache ---- *)

module Codecache = Ifko_search.Codecache

let cc_result_tag = function
  | Codecache.Illegal -> "illegal"
  | Codecache.Test_failed -> "test-failed"
  | Codecache.Compiled _ -> "compiled"

let test_codecache_dedup () =
  let cc = Codecache.create () in
  let k r = Codecache.key ~kernel:"dot-v1" ~machine:"P4E" ~params:r ~check:false ~seed:7 in
  Alcotest.(check bool) "check flag changes the key" false
    (Codecache.key ~kernel:"k" ~machine:"m" ~params:"p" ~check:true ~seed:7
    = Codecache.key ~kernel:"k" ~machine:"m" ~params:"p" ~check:false ~seed:7);
  Alcotest.(check bool) "seed changes the key" false
    (Codecache.key ~kernel:"k" ~machine:"m" ~params:"p" ~check:false ~seed:7
    = Codecache.key ~kernel:"k" ~machine:"m" ~params:"p" ~check:false ~seed:8);
  let runs = ref 0 in
  let compute r () = incr runs; r in
  (* every result constructor is cached, including the failures — an
     illegal or test-failed point must not be re-attempted per probe *)
  let r1 = Codecache.find_or_compile cc ~key:(k "a") (compute Codecache.Illegal) in
  let r2 = Codecache.find_or_compile cc ~key:(k "a") (compute Codecache.Test_failed) in
  Alcotest.(check string) "second probe of a hits the cache" (cc_result_tag r1) (cc_result_tag r2);
  let r3 = Codecache.find_or_compile cc ~key:(k "b") (compute Codecache.Test_failed) in
  Alcotest.(check string) "distinct params compute fresh" "test-failed" (cc_result_tag r3);
  Alcotest.(check int) "two computations for two keys" 2 !runs;
  let s = Codecache.stats cc in
  Alcotest.(check int) "one hit" 1 s.Codecache.hits;
  Alcotest.(check int) "two misses" 2 s.Codecache.misses;
  (* an exception (a pass-check failure must fail the tune) is never
     cached: the key is released and the next caller computes *)
  (match Codecache.find_or_compile cc ~key:(k "c") (fun () -> failwith "pass check") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "compute exception must propagate");
  let r4 = Codecache.find_or_compile cc ~key:(k "c") (compute Codecache.Illegal) in
  Alcotest.(check string) "failed compute was not cached" "illegal" (cc_result_tag r4)

let test_codecache_single_flight () =
  let cc = Codecache.create () in
  let key = Codecache.key ~kernel:"k" ~machine:"m" ~params:"p" ~check:false ~seed:0 in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    Unix.sleepf 0.02;
    Codecache.Test_failed
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Codecache.find_or_compile cc ~key compute))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "concurrent misses computed once" 1 (Atomic.get runs);
  List.iter
    (fun r -> Alcotest.(check string) "every waiter sees the result" "test-failed" (cc_result_tag r))
    results

let test_driver_codecache_reuse () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:13 in
  let tune ?codecache () =
    Ifko_search.Driver.tune ?codecache ~seed:13 ~fidelity:Ifko_sim.Timer.Sampled ~cfg
      ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n:2.0
      ~test:(fun _ -> true)
      compiled
  in
  let fresh = tune () in
  let cc = Codecache.create () in
  let first = tune ~codecache:cc () in
  let after_first = Codecache.stats cc in
  let second = tune ~codecache:cc () in
  let after_second = Codecache.stats cc in
  Alcotest.(check params_t) "shared cache changes nothing (params)"
    fresh.Ifko_search.Driver.best_params second.Ifko_search.Driver.best_params;
  Alcotest.(check (float 0.0)) "shared cache changes nothing (rate)"
    fresh.Ifko_search.Driver.ifko_mflops second.Ifko_search.Driver.ifko_mflops;
  Alcotest.(check int) "a repeated tune compiles nothing new"
    after_first.Codecache.misses after_second.Codecache.misses;
  Alcotest.(check bool) "a repeated tune hits for every candidate" true
    (after_second.Codecache.hits >= after_first.Codecache.misses);
  ignore first

(* A storeless tune times each distinct probe key once: the line search
   probes canonical duplicates again (its memo is on the structural
   point), and those are answered from the driver's per-tune table, at
   one domain or two.  Every probe still reaches a [cache] hook, and the
   result is the one recorded before the table existed, bit for bit
   (when every probe was timed: 99 probes, 100 candidate lookups). *)
let test_driver_probe_memo () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:3 in
  List.iter
    (fun jobs ->
      let keys = Hashtbl.create 64 and mu = Mutex.create () in
      let cache ~key ~params:_ ~prov:_ f =
        Mutex.protect mu (fun () ->
            Hashtbl.replace keys key (1 + Option.value ~default:0 (Hashtbl.find_opt keys key)));
        f ()
      in
      let cc = Codecache.create () in
      let t =
        Ifko_search.Driver.tune ~cache ~codecache:cc ~jobs ~seed:3 ~cfg
          ~context:Ifko_sim.Timer.In_l2 ~spec ~n:1024 ~flops_per_n:2.0
          ~test:(fun _ -> true)
          compiled
      in
      let what s = Printf.sprintf "j%d: %s" jobs s in
      let probes = Hashtbl.fold (fun _ n acc -> n + acc) keys 0 in
      let distinct = Hashtbl.length keys in
      let s = Codecache.stats cc in
      Alcotest.(check int) (what "every probe reaches the hook") t.Ifko_search.Driver.evaluations
        probes;
      Alcotest.(check int) (what "distinct keys") 71 distinct;
      (* one candidate lookup per distinct key, plus the winner's *)
      Alcotest.(check int) (what "one timing per distinct key") (distinct + 1)
        (s.Codecache.hits + s.Codecache.misses);
      Alcotest.(check string) (what "winner")
        "sv=1;ur=32;lc=1;ae=3;wnt=0;bf=0;cisc=0;pf=X:none:0,Y:none:0"
        (Params.canonical t.Ifko_search.Driver.best_params);
      Alcotest.(check int64) (what "MFLOPS bits") 0x40b435e50d79435fL
        (Int64.bits_of_float t.Ifko_search.Driver.ifko_mflops);
      Alcotest.(check int64) (what "FKO MFLOPS bits") 0x40a104e520415a7bL
        (Int64.bits_of_float t.Ifko_search.Driver.fko_mflops);
      Alcotest.(check int) (what "evaluations") 99 t.Ifko_search.Driver.evaluations;
      Alcotest.(check int) (what "probes to best") 83 t.Ifko_search.Driver.probes_to_best)
    [ 1; 2 ]

(* ---- strategies: bit-identity, determinism, warm starts ---- *)

(* The pre-refactor modified line search, written out as the original
   one-dimension-at-a-time loop over the Space candidates.  This is the
   committed reference the strategy-based {!Linesearch} must stay
   bit-identical to: same probe memoization, same strict-[>] first-wins
   fold, same dimension order. *)
let legacy_sweep ~cfg ~report ~init probe =
  let memo = Hashtbl.create 64 in
  let evals = ref 0 in
  let eval p =
    let c = Params.canonical p in
    match Hashtbl.find_opt memo c with
    | Some v -> v
    | None ->
      incr evals;
      let v = probe p in
      Hashtbl.replace memo c v;
      v
  in
  let start = eval init in
  let cur = ref init in
  let cur_perf = ref start in
  let contributions = ref [] in
  let sweep variants =
    List.iter
      (fun p ->
        let v = eval p in
        if v > !cur_perf then begin
          cur := p;
          cur_perf := v
        end)
      variants
  in
  let dim name sweeps =
    let before = !cur_perf in
    List.iter (fun f -> sweep (f !cur)) sweeps;
    contributions :=
      (name, if before > 0.0 then !cur_perf /. before else 1.0) :: !contributions
  in
  let module Space = Ifko_search.Space in
  let arrays = List.map fst init.Params.prefetch in
  dim "SV"
    [ (fun cur -> List.map (fun sv -> { cur with Params.sv }) (Space.sv_candidates report)) ];
  dim "WNT"
    [ (fun cur -> List.map (fun wnt -> { cur with Params.wnt }) (Space.wnt_candidates report));
    ];
  dim "PF DST"
    (List.map
       (fun name cur -> List.map (Space.set_pf_dist cur name) (Space.pf_dist_candidates cfg))
       arrays);
  dim "PF INS"
    (List.map
       (fun name cur -> List.map (Space.set_pf_ins cur name) (Space.pf_ins_candidates cfg))
       arrays);
  dim "UR"
    [ (fun cur ->
        List.map (fun u -> { cur with Params.unroll = u }) (Space.unroll_candidates report));
    ];
  dim "AE"
    [ (fun cur -> List.map (fun ae -> { cur with Params.ae }) (Space.ae_candidates report)) ];
  dim "UR*AE"
    [ (fun cur ->
        let u0 = cur.Params.unroll in
        let urs =
          List.sort_uniq compare
            (List.filter
               (fun u -> u >= 1 && u <= report.Ifko_analysis.Report.max_unroll)
               [ u0 / 2; u0; u0 * 2 ])
        in
        let aes = List.filter (fun a -> a = 0 || a >= 2) (Space.ae_candidates report) in
        List.concat_map
          (fun u -> List.map (fun ae -> { cur with Params.unroll = u; Params.ae = ae }) aes)
          urs);
    ];
  dim "PF2"
    (List.concat_map
       (fun name ->
         [ (fun cur -> List.map (Space.set_pf_ins cur name) (Space.pf_ins_candidates cfg));
           (fun cur -> List.map (Space.set_pf_dist cur name) (Space.pf_dist_candidates cfg));
         ])
       arrays);
  (!cur, !cur_perf, start, List.rev !contributions, !evals)

let test_linesearch_matches_legacy_sweep () =
  let cfg = Ifko_machine.Config.p4e in
  List.iter
    (fun id ->
      let report = report_for id in
      let init = Params.default ~line_bytes:128 report in
      let best, best_perf, start_perf, contributions, evals =
        legacy_sweep ~cfg ~report ~init synthetic_probe
      in
      let r = linesearch ~cfg ~report ~init synthetic_probe in
      Alcotest.check params_t "same best point" best r.Ifko_search.Strategy.best;
      Alcotest.(check (float 0.0)) "same best perf" best_perf
        r.Ifko_search.Strategy.best_perf;
      Alcotest.(check (float 0.0)) "same start perf" start_perf
        r.Ifko_search.Strategy.start_perf;
      Alcotest.(check int) "same evaluation count" evals
        r.Ifko_search.Strategy.evaluations;
      Alcotest.(check (list (pair string (float 0.0)))) "same contributions" contributions
        r.Ifko_search.Strategy.contributions)
    [ { Defs.routine = Defs.Dot; prec = Instr.D };
      { Defs.routine = Defs.Asum; prec = Instr.S };
      { Defs.routine = Defs.Iamax; prec = Instr.D };
      { Defs.routine = Defs.Copy; prec = Instr.S };
    ]

(* The surrogate's proposal stream must be a pure function of its seed:
   the same search on 1, 4 and 8 worker domains probes the same points
   and lands on the same answer, bit for bit. *)
let test_surrogate_jobs_deterministic () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let report = report_for id in
  let cfg = Ifko_machine.Config.p4e in
  let init = Params.default ~line_bytes:128 report in
  let run ?map_batch () =
    Ifko_search.Strategy.run ?map_batch ~init
      ~make:(fun ~init_perf ->
        Ifko_search.Surrogate.strategy ~seed:42 ~cfg ~report ~init ~init_perf ())
      synthetic_probe
  in
  let seq = run () in
  Alcotest.(check bool) "a real search happened" true (seq.Ifko_search.Strategy.evaluations > 8);
  List.iter
    (fun jobs ->
      let par =
        Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
            run ~map_batch:(fun f xs -> Ifko_par.Par.Pool.map pool f xs) ())
      in
      let label fmt = Printf.sprintf "%s at jobs=%d" fmt jobs in
      Alcotest.check params_t (label "same best") seq.Ifko_search.Strategy.best
        par.Ifko_search.Strategy.best;
      Alcotest.(check (float 0.0)) (label "same best perf")
        seq.Ifko_search.Strategy.best_perf par.Ifko_search.Strategy.best_perf;
      Alcotest.(check int) (label "same evaluations")
        seq.Ifko_search.Strategy.evaluations par.Ifko_search.Strategy.evaluations;
      Alcotest.(check int) (label "same probes-to-best")
        seq.Ifko_search.Strategy.probes_to_best par.Ifko_search.Strategy.probes_to_best)
    [ 4; 8 ]

(* Warm-start plumbing at the unit level: journal entries become
   donors only when they are well-formed tune entries, and seeding
   ranks by fingerprint distance. *)
let test_warmstart_donors () =
  let module W = Ifko_search.Warmstart in
  let module Json = Ifko_store.Store.Json in
  let dot = report_for { Defs.routine = Defs.Dot; prec = Instr.D } in
  let asum = report_for { Defs.routine = Defs.Asum; prec = Instr.D } in
  let init = Params.default ~line_bytes:128 dot in
  let feat r = Ifko_analysis.Report.features r in
  let entry best =
    Json.render
      [ ("best", Json.S best);
        ("fko", Json.N 100.0);
        ("evals", Json.N 50.0);
        ("kernel", Json.S "dasum");
        ("feat", Ifko_search.Tune_record.feat_json (feat asum));
      ]
  in
  let timed = Ifko_store.Store.Timed { mflops = 500.0; cycles = 0.0 } in
  let donor_params = { init with Params.unroll = 8; ae = 4 } in
  let good = entry (Params.canonical donor_params) in
  with_tmp_store_path (fun path ->
      let st = Ifko_store.Store.open_ path in
      let add ?(prov = "tune x") ?(outcome = timed) key params =
        Ifko_store.Store.add st ~key ~params ~prov outcome
      in
      add ~prov:"tune dasum@P4E" "a-good" good;
      (* probe entries, corrupt JSON, unparseable points and failures
         never become donors *)
      add ~prov:"dasum@P4E" "b-probe-prov" good;
      add "c-corrupt-json" "{not json";
      add "d-unparseable-point" (entry "garbage");
      add ~outcome:Ifko_store.Store.Test_failed "e-failed-tune" good;
      (match W.donors_of_store st with
      | [ d ] ->
        Alcotest.(check string) "donor kernel" "dasum" d.W.d_kernel;
        Alcotest.check params_t "donor point" donor_params d.W.d_params;
        Alcotest.(check (float 0.0)) "donor mflops" 500.0 d.W.d_mflops
      | ds -> Alcotest.failf "expected the one well-formed donor, got %d" (List.length ds));
      Ifko_store.Store.close st);
  (* seeding ranks by fingerprint distance: a donor with the target's
     own fingerprint outranks a far one *)
  let near = { W.d_kernel = "twin"; d_feat = feat dot; d_params = donor_params; d_mflops = 1.0 } in
  let far_params = { init with Params.unroll = 2 } in
  let far = { W.d_kernel = "other"; d_feat = feat asum; d_params = far_params; d_mflops = 9.0 } in
  (match W.seeds ~k:1 ~cfg:Ifko_machine.Config.p4e ~report:dot ~init ~feat:(feat dot) [ far; near ] with
  | [ s ] -> Alcotest.check params_t "nearest donor seeds first" donor_params s
  | l -> Alcotest.failf "expected 1 seed, got %d" (List.length l));
  Alcotest.(check bool) "identical fingerprints are at distance 0" true
    (W.distance (feat dot) (feat dot) = 0.0);
  Alcotest.(check bool) "different kernels are apart" true
    (W.distance (feat dot) (feat asum) > 0.0)

(* End-to-end warm start through the driver and the store: a tune of
   the same kernel at a smaller N journals a donor; the warm-started
   surrogate then opens at the donor's winner and halves (at least) its
   own cold probes-to-best.  An empty store — or one holding only
   garbage tune entries — must leave the search bit-identical to a
   cold start. *)
let test_driver_warm_start () =
  let id = { Defs.routine = Defs.Asum; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let cfg = Ifko_machine.Config.p4e in
  let spec = Workload.timer_spec id ~seed:13 in
  let tune ?strategy ?(warm_start = false) ?store ~n () =
    Ifko_search.Driver.tune ?strategy ~warm_start ?store ~seed:13 ~cfg
      ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n ~flops_per_n:1.0
      ~test:(fun _ -> true)
      compiled
  in
  let cold = tune ~strategy:Ifko_search.Driver.Surrogate ~n:2000 () in
  with_tmp_store_path (fun path ->
      (* donor: the same kernel tuned at half the problem size *)
      let st = Ifko_store.Store.open_ ~seed:13 path in
      ignore (tune ~store:st ~n:1000 () : Ifko_search.Driver.tuned);
      Alcotest.(check int) "donor tune journaled one tune entry" 1
        (Ifko_store.Store.stat st).Ifko_store.Store.st_tunes;
      let warm = tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~store:st ~n:2000 () in
      Ifko_store.Store.close st;
      Alcotest.(check bool) "warm start halves probes-to-best" true
        (2 * warm.Ifko_search.Driver.probes_to_best
        <= cold.Ifko_search.Driver.probes_to_best);
      Alcotest.(check bool) "warm never loses to the default" true
        (warm.Ifko_search.Driver.ifko_mflops >= warm.Ifko_search.Driver.fko_mflops));
  (* empty store: a clean cold start, bit for bit *)
  with_tmp_store_path (fun path ->
      let st = Ifko_store.Store.open_ ~seed:13 path in
      let w = tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~store:st ~n:2000 () in
      Ifko_store.Store.close st;
      Alcotest.check params_t "empty store: same point" cold.Ifko_search.Driver.best_params
        w.Ifko_search.Driver.best_params;
      Alcotest.(check (float 0.0)) "empty store: same MFLOPS"
        cold.Ifko_search.Driver.ifko_mflops w.Ifko_search.Driver.ifko_mflops;
      Alcotest.(check int) "empty store: same probes-to-best"
        cold.Ifko_search.Driver.probes_to_best w.Ifko_search.Driver.probes_to_best);
  (* corrupt tune entries: skipped, so still a clean cold start *)
  with_tmp_store_path (fun path ->
      let st = Ifko_store.Store.open_ ~seed:13 path in
      Ifko_store.Store.add st ~key:"junk1" ~params:"{not json" ~prov:"tune junk"
        (Ifko_store.Store.Timed { mflops = 1.0; cycles = 0.0 });
      Ifko_store.Store.add st ~key:"junk2" ~params:"{\"best\": 3}" ~prov:"tune junk"
        (Ifko_store.Store.Timed { mflops = 1.0; cycles = 0.0 });
      Alcotest.(check (list string)) "garbage yields no donors" []
        (List.map
           (fun d -> d.Ifko_search.Warmstart.d_kernel)
           (Ifko_search.Warmstart.donors_of_store st));
      let w = tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~store:st ~n:2000 () in
      Ifko_store.Store.close st;
      Alcotest.check params_t "corrupt store: same point" cold.Ifko_search.Driver.best_params
        w.Ifko_search.Driver.best_params;
      Alcotest.(check int) "corrupt store: same probes-to-best"
        cold.Ifko_search.Driver.probes_to_best w.Ifko_search.Driver.probes_to_best)

let suite =
  [ Alcotest.test_case "space gating" `Quick test_space_gates;
    Alcotest.test_case "linesearch finds optimum" `Quick test_linesearch_finds_optimum;
    Alcotest.test_case "linesearch memoizes" `Quick test_linesearch_memoizes;
    Alcotest.test_case "contributions multiply" `Quick test_linesearch_contributions_multiply;
    Alcotest.test_case "driver improves and verifies" `Slow test_driver_improves_and_verifies;
    Alcotest.test_case "driver rejects wrong answers" `Quick test_driver_rejects_wrong_answers;
    Alcotest.test_case "driver rejects n <= 0" `Quick test_driver_rejects_empty_problem;
    Alcotest.test_case "codecache dedup and stats" `Quick test_codecache_dedup;
    Alcotest.test_case "codecache single flight" `Quick test_codecache_single_flight;
    Alcotest.test_case "driver codecache reuse" `Quick test_driver_codecache_reuse;
    Alcotest.test_case "storeless tune times each key once" `Quick test_driver_probe_memo;
    Alcotest.test_case "linesearch parallel = sequential" `Quick
      test_linesearch_parallel_matches_sequential;
    Alcotest.test_case "linesearch matches legacy sweep" `Quick
      test_linesearch_matches_legacy_sweep;
    Alcotest.test_case "surrogate deterministic at jobs 1/4/8" `Quick
      test_surrogate_jobs_deterministic;
    Alcotest.test_case "warm-start donors" `Quick test_warmstart_donors;
    Alcotest.test_case "driver warm start" `Slow test_driver_warm_start;
  ]
