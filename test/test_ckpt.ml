(* Checkpointed warm-up and sampled-fidelity tests: memory-system
   snapshot/restore/rebase semantics, the content-addressed checkpoint
   cache, and the sampled timer's accuracy and bit-identity escape
   hatch. *)
open Ifko_machine

let cfg = Config.p4e
let seed = 20050614

let compiled_default id =
  let compiled = Ifko_blas.Hil_sources.compile id in
  let report = Ifko_analysis.Report.analyze compiled in
  let params =
    Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
  in
  let func = Ifko_search.Driver.compile_point ~cfg compiled params in
  (compiled, Ifko_sim.Exec.compile func)

let ddot = { Ifko_blas.Defs.routine = Ifko_blas.Defs.Dot; prec = Instr.D }
let isamax = { Ifko_blas.Defs.routine = Ifko_blas.Defs.Iamax; prec = Instr.S }

(* ---------- Memsys snapshot / restore / rebase ---------- *)

(* a deterministic access mix: strided loads with some stores, enough
   to populate both cache levels, the MSHRs and the prefetch streams *)
let prefix ms =
  for i = 0 to 127 do
    ignore (Memops.load ms ~addr:(i * 64) ~now:(float_of_int (i * 5)) : float);
    if i land 3 = 0 then Memops.store ms ~addr:(65536 + (i * 64)) ~now:(float_of_int (i * 5))
  done

let continuation ~base ms =
  List.init 48 (fun i ->
      Memops.load ms ~addr:(262144 + (i * 64)) ~now:(base +. float_of_int (i * 4)) -. base)

let test_snapshot_restore_replay () =
  let ms = Memsys.create cfg in
  Memsys.reset ms ~flush:true;
  prefix ms;
  let snap = Memsys.snapshot ms in
  let first = continuation ~base:1000.0 ms in
  Memsys.restore ms snap;
  let second = continuation ~base:1000.0 ms in
  Alcotest.(check (list (float 0.0))) "restore replays bit-identically" first second;
  (* the snapshot must be a deep copy: trashing the restored machine
     and restoring again still reproduces the original continuation *)
  Memsys.reset ms ~flush:true;
  prefix ms;
  prefix ms;
  Memsys.restore ms snap;
  let third = continuation ~base:1000.0 ms in
  Alcotest.(check (list (float 0.0))) "snapshot survives machine reuse" first third

let test_restore_shape_mismatch () =
  let ms = Memsys.create cfg in
  Memsys.reset ms ~flush:true;
  let snap = Memsys.snapshot ms in
  let other = Memsys.create Config.opteron in
  match Memsys.restore other snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "restoring a P4E snapshot into an Opteron machine must raise"

let test_rebase_translates () =
  (* after [rebase] every internal timestamp lives in one clean clock
     base, so a continuation behaves the same no matter when it starts:
     the model only compares and differences times.  (If rebase left
     any component — an MSHR entry, a fill arrival — in the old base,
     the two starting offsets would interact with it differently.) *)
  let ms = Memsys.create cfg in
  Memsys.reset ms ~flush:true;
  prefix ms;
  Memsys.rebase ms;
  let snap = Memsys.snapshot ms in
  let at0 = continuation ~base:0.0 ms in
  Memsys.restore ms snap;
  let at4096 = continuation ~base:4096.0 ms in
  Alcotest.(check (list (float 1e-6))) "rebased state is translation invariant" at0 at4096;
  (* a second rebase of an already-rebased state is a no-op *)
  Memsys.restore ms snap;
  Memsys.rebase ms;
  let again = continuation ~base:0.0 ms in
  Alcotest.(check (list (float 0.0))) "rebase is idempotent" at0 again

(* ---------- Ckpt keys and counters ---------- *)

let warm_lines ms =
  Memsys.reset ms ~flush:true;
  for i = 0 to 63 do
    Memsys.warm_l2 ms ~addr:(i * 64)
  done

let test_key_content_addressing () =
  let c = Ifko_sim.Ckpt.create ~cfg () in
  let k = Ifko_sim.Ckpt.key c ~kernel:"dot-v1" ~context:"in-L2" ~n:1024 in
  let edited = Ifko_sim.Ckpt.key c ~kernel:"dot-v2" ~context:"in-L2" ~n:1024 in
  let other_ctx = Ifko_sim.Ckpt.key c ~kernel:"dot-v1" ~context:"out-of-cache" ~n:1024 in
  let other_n = Ifko_sim.Ckpt.key c ~kernel:"dot-v1" ~context:"in-L2" ~n:2048 in
  Alcotest.(check bool) "kernel edit changes the key" false (k = edited);
  Alcotest.(check bool) "context changes the key" false (k = other_ctx);
  Alcotest.(check bool) "n changes the key" false (k = other_n);
  (* a kernel edit therefore forces a fresh warm-up *)
  let ms = Memsys.create cfg in
  let warmed key = Ifko_sim.Ckpt.with_state c ~key ms ~warm:warm_lines in
  Alcotest.(check bool) "first key warms fresh" true (warmed k);
  Alcotest.(check bool) "edited kernel warms fresh" true (warmed edited);
  Alcotest.(check bool) "original key hits" false (warmed k);
  let s = Ifko_sim.Ckpt.stats c in
  Alcotest.(check int) "two fresh warm-ups" 2 s.Ifko_sim.Ckpt.misses;
  Alcotest.(check int) "one memory hit" 1 s.Ifko_sim.Ckpt.hits

(* A cache serves the one machine it was created for: the machine is
   part of every key, and nothing one cache holds is seen by another. *)
let test_machine_change_isolates () =
  let c1 = Ifko_sim.Ckpt.create ~cfg () in
  let c2 = Ifko_sim.Ckpt.create ~cfg:Config.opteron () in
  let k1 = Ifko_sim.Ckpt.key c1 ~kernel:"k" ~context:"in-L2" ~n:512 in
  let k2 = Ifko_sim.Ckpt.key c2 ~kernel:"k" ~context:"in-L2" ~n:512 in
  Alcotest.(check bool) "machine changes the key" false (k1 = k2);
  Ifko_sim.Ckpt.set_transient c1 ~key:"warm:cand" 1.5;
  Alcotest.(check (option (float 0.0))) "no transient crosses machines" None
    (Ifko_sim.Ckpt.find_transient c2 ~key:"warm:cand");
  Alcotest.(check bool) "first machine warms fresh" true
    (Ifko_sim.Ckpt.with_state c1 ~key:k1 (Memsys.create cfg) ~warm:warm_lines);
  Alcotest.(check bool) "second machine warms fresh" true
    (Ifko_sim.Ckpt.with_state c2 ~key:k2 (Memsys.create Config.opteron) ~warm:warm_lines);
  Alcotest.(check int) "counted as a miss" 1 (Ifko_sim.Ckpt.stats c2).Ifko_sim.Ckpt.misses

(* Transients come back bit-exact from memory, and a fresh cache (a
   restart) starts cold: no transient, no warm state, no disk load. *)
let test_transients_in_memory () =
  let c1 = Ifko_sim.Ckpt.create ~cfg () in
  let values = [ ("warm:cand-a", 12.625); ("warm:cand-b", -3.0e-7); ("warm:cand-c", 1.0 /. 3.0) ] in
  List.iter (fun (key, v) -> Ifko_sim.Ckpt.set_transient c1 ~key v) values;
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option (float 0.0))) (key ^ " exact") (Some v)
        (Ifko_sim.Ckpt.find_transient c1 ~key))
    values;
  let key = Ifko_sim.Ckpt.key c1 ~kernel:"k" ~context:"in-L2" ~n:512 in
  ignore (Ifko_sim.Ckpt.with_state c1 ~key (Memsys.create cfg) ~warm:warm_lines);
  let c2 = Ifko_sim.Ckpt.create ~cfg () in
  List.iter
    (fun (key, _) ->
      Alcotest.(check (option (float 0.0))) (key ^ " gone after restart") None
        (Ifko_sim.Ckpt.find_transient c2 ~key))
    values;
  Alcotest.(check bool) "a restart warms fresh" true
    (Ifko_sim.Ckpt.with_state c2 ~key (Memsys.create cfg) ~warm:warm_lines);
  Alcotest.(check int) "nothing loaded from disk" 0
    (Ifko_sim.Ckpt.stats c2).Ifko_sim.Ckpt.disk_loads

(* Every call counts exactly one hit or miss, even when
   domains race on the same keys, and reports a miss as its own
   warm-up: nothing is lost between the counters and the flag. *)
let test_concurrent_counters () =
  let c = Ifko_sim.Ckpt.create ~cfg () in
  let calls_per_domain = 50 in
  let warmed =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ms = Memsys.create cfg in
            let own = ref 0 in
            for i = 0 to calls_per_domain - 1 do
              let key =
                Ifko_sim.Ckpt.key c ~kernel:(string_of_int ((i + d) mod 3)) ~context:"in-L2"
                  ~n:64
              in
              if Ifko_sim.Ckpt.with_state c ~key ms ~warm:warm_lines then incr own
            done;
            !own))
    |> List.map Domain.join
  in
  let s = Ifko_sim.Ckpt.stats c in
  Alcotest.(check int) "hits + misses = calls" (4 * calls_per_domain)
    (s.Ifko_sim.Ckpt.hits + s.Ifko_sim.Ckpt.misses);
  Alcotest.(check int) "each miss is its caller's own warm-up" s.Ifko_sim.Ckpt.misses
    (List.fold_left ( + ) 0 warmed)

(* ---------- sampled fidelity ---------- *)

let measure_ext ?fidelity ?ckpt ~context ~n cf =
  let spec = Ifko_blas.Workload.timer_spec ddot ~seed in
  Ifko_sim.Timer.measure_ext ?fidelity ?ckpt ~cfg ~context ~spec ~n cf

let reason m = Option.map Ifko_sim.Timer.fallback_name m.Ifko_sim.Timer.m_fallback

let test_sampled_accuracy () =
  let _, cf = compiled_default ddot in
  let full = measure_ext ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 cf in
  let s =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.Out_of_cache
      ~n:80000 cf
  in
  Alcotest.(check bool) "no fallback on a streaming kernel" true
    (s.Ifko_sim.Timer.m_fallback = None);
  let err =
    Float.abs (s.Ifko_sim.Timer.m_cycles -. full.Ifko_sim.Timer.m_cycles)
    /. full.Ifko_sim.Timer.m_cycles
  in
  if err > 0.01 then
    Alcotest.failf "sampled error %.2f%% exceeds the 1%% budget" (100.0 *. err);
  (* the >=5x work bar holds in the steady state: warm state captured
     and transient memoized, as on every probe after a tune's first *)
  let ckpt = Ifko_sim.Ckpt.create ~cfg () in
  let steady () =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled
      ~ckpt:(ckpt, "ddot")
      ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 cf
  in
  let first = steady () in
  let hot = steady () in
  Alcotest.(check bool) "first sight simulates more than a hot probe" true
    (first.Ifko_sim.Timer.m_elems > hot.Ifko_sim.Timer.m_elems);
  if hot.Ifko_sim.Timer.m_elems * 5 > full.Ifko_sim.Timer.m_elems then
    Alcotest.failf "sampled work %d elems is not >=5x under full's %d"
      hot.Ifko_sim.Timer.m_elems full.Ifko_sim.Timer.m_elems

let test_sampled_ckpt_bit_identity () =
  let _, cf = compiled_default ddot in
  let plain =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.Out_of_cache
      ~n:80000 cf
  in
  let ckpt = Ifko_sim.Ckpt.create ~cfg () in
  let with_ckpt () =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled
      ~ckpt:(ckpt, "ddot")
      ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 cf
  in
  let miss = with_ckpt () in
  let hit = with_ckpt () in
  Alcotest.(check (float 0.0)) "checkpoint miss path is bit-identical"
    plain.Ifko_sim.Timer.m_cycles miss.Ifko_sim.Timer.m_cycles;
  Alcotest.(check (float 0.0)) "checkpoint hit path is bit-identical"
    plain.Ifko_sim.Timer.m_cycles hit.Ifko_sim.Timer.m_cycles;
  let s = Ifko_sim.Ckpt.stats ckpt in
  Alcotest.(check int) "warm-up ran once" 1 s.Ifko_sim.Ckpt.misses;
  Alcotest.(check int) "then hit" 1 s.Ifko_sim.Ckpt.hits;
  (* one warm state serves every problem size of a tune *)
  let other_n = with_ckpt () in
  ignore other_n;
  let bigger =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled
      ~ckpt:(ckpt, "ddot")
      ~context:Ifko_sim.Timer.Out_of_cache ~n:160000 cf
  in
  Alcotest.(check bool) "bigger n still sampled" true
    (bigger.Ifko_sim.Timer.m_fidelity = Ifko_sim.Timer.Sampled);
  Alcotest.(check int) "no extra warm-up for another n" 1
    (Ifko_sim.Ckpt.stats ckpt).Ifko_sim.Ckpt.misses

let test_sampled_fallbacks () =
  let _, cf = compiled_default ddot in
  (* tiny n: the windows would cover most of the problem *)
  let tiny =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.Out_of_cache
      ~n:1024 cf
  in
  Alcotest.(check (option string)) "tiny-n reason" (Some "tiny-n") (reason tiny);
  Alcotest.(check bool) "fell back to full" true
    (tiny.Ifko_sim.Timer.m_fidelity = Ifko_sim.Timer.Full);
  let full = measure_ext ~context:Ifko_sim.Timer.Out_of_cache ~n:1024 cf in
  Alcotest.(check (float 0.0)) "fallback is bit-identical to full"
    full.Ifko_sim.Timer.m_cycles tiny.Ifko_sim.Timer.m_cycles;
  (* small in-L2 problems hit the tiny-n hatch like out-of-cache ones *)
  let l2 = measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.In_l2 ~n:1024 cf in
  Alcotest.(check (option string)) "in-L2 tiny reason" (Some "tiny-n") (reason l2);
  let l2_full = measure_ext ~context:Ifko_sim.Timer.In_l2 ~n:1024 cf in
  Alcotest.(check (float 0.0)) "in-L2 fallback is bit-identical"
    l2_full.Ifko_sim.Timer.m_cycles l2.Ifko_sim.Timer.m_cycles;
  (* an in-L2 working set over L2 capacity cannot use the
     cache-resident window scheme: ddot double at n=80000 is 1.28 MB
     against the P4E's 1 MB L2 *)
  let l2_big =
    measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.In_l2 ~n:80000 cf
  in
  Alcotest.(check (option string)) "in-L2 capacity reason" (Some "in-l2-context")
    (reason l2_big);
  let l2_big_full = measure_ext ~context:Ifko_sim.Timer.In_l2 ~n:80000 cf in
  Alcotest.(check (float 0.0)) "in-L2 capacity fallback is bit-identical"
    l2_big_full.Ifko_sim.Timer.m_cycles l2_big.Ifko_sim.Timer.m_cycles

(* the cache-resident window scheme: an in-L2 working set that fits L2
   (ddot double at n=40000 is 640 KB against the P4E's 1 MB L2) is
   sampled rather than falling back, and stays inside the same 1%
   accuracy budget as the out-of-cache path *)
let test_sampled_in_l2_accuracy () =
  let _, cf = compiled_default ddot in
  let full = measure_ext ~context:Ifko_sim.Timer.In_l2 ~n:40000 cf in
  let s = measure_ext ~fidelity:Ifko_sim.Timer.Sampled ~context:Ifko_sim.Timer.In_l2 ~n:40000 cf in
  Alcotest.(check (option string)) "no fallback when the set fits L2" None (reason s);
  Alcotest.(check bool) "measured at sampled fidelity" true
    (s.Ifko_sim.Timer.m_fidelity = Ifko_sim.Timer.Sampled);
  let err =
    Float.abs (s.Ifko_sim.Timer.m_cycles -. full.Ifko_sim.Timer.m_cycles)
    /. full.Ifko_sim.Timer.m_cycles
  in
  if err > 0.01 then
    Alcotest.failf "in-L2 sampled error %.2f%% exceeds the 1%% budget" (100.0 *. err);
  Alcotest.(check bool) "sampled simulates less work than full" true
    (s.Ifko_sim.Timer.m_elems < full.Ifko_sim.Timer.m_elems)

let test_l2_ckpt_bit_identity () =
  let _, cf = compiled_default ddot in
  let plain = measure_ext ~context:Ifko_sim.Timer.In_l2 ~n:1024 cf in
  let ckpt = Ifko_sim.Ckpt.create ~cfg () in
  let m1 = measure_ext ~ckpt:(ckpt, "ddot") ~context:Ifko_sim.Timer.In_l2 ~n:1024 cf in
  let m2 = measure_ext ~ckpt:(ckpt, "ddot") ~context:Ifko_sim.Timer.In_l2 ~n:1024 cf in
  Alcotest.(check (float 0.0)) "in-L2 ckpt miss is bit-identical"
    plain.Ifko_sim.Timer.m_cycles m1.Ifko_sim.Timer.m_cycles;
  Alcotest.(check (float 0.0)) "in-L2 ckpt hit is bit-identical"
    plain.Ifko_sim.Timer.m_cycles m2.Ifko_sim.Timer.m_cycles;
  Alcotest.(check int) "one warm-up, one hit" 1 (Ifko_sim.Ckpt.stats ckpt).Ifko_sim.Ckpt.hits

(* One checkpoint cache shared by a pool's domains, as a tune shares
   it: several in-L2 candidates, at two sizes in full fidelity and one
   sampled, measured at jobs 1 and at jobs 4.  The cycles agree bit for
   bit, and each run warms each distinct warm state exactly once —
   racing misses on one key join one warm-up. *)
let test_shared_ckpt_under_pool () =
  let compiled = Ifko_blas.Hil_sources.compile ddot in
  let report = Ifko_analysis.Report.analyze compiled in
  let base = Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report in
  let cfs =
    List.map
      (fun unroll ->
        Ifko_sim.Exec.compile
          (Ifko_search.Driver.compile_point ~cfg compiled
             { base with Ifko_transform.Params.unroll }))
      [ 1; 2; 4; 8 ]
  in
  let full n = (None, n) and sampled = (Some Ifko_sim.Timer.Sampled, 40000) in
  let work =
    List.concat_map (fun cf -> List.map (fun m -> (cf, m)) [ full 1024; full 2048; sampled ]) cfs
  in
  let distinct_warm_keys = 3 in
  let run jobs =
    let ckpt = Ifko_sim.Ckpt.create ~cfg () in
    let cycles =
      Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
          Ifko_par.Par.Pool.map pool
            (fun (cf, (fidelity, n)) ->
              let m =
                measure_ext ?fidelity ~ckpt:(ckpt, "ddot") ~context:Ifko_sim.Timer.In_l2 ~n cf
              in
              (* a fallback to full fidelity would warm a fourth state *)
              if fidelity <> None && m.Ifko_sim.Timer.m_fidelity <> Ifko_sim.Timer.Sampled then
                Alcotest.fail "the sampled candidate fell back";
              Int64.bits_of_float m.Ifko_sim.Timer.m_cycles)
            work)
    in
    (cycles, (Ifko_sim.Ckpt.stats ckpt).Ifko_sim.Ckpt.misses)
  in
  let c1, misses1 = run 1 and c4, misses4 = run 4 in
  Alcotest.(check (list int64)) "cycles bit-identical at jobs 1 and 4" c1 c4;
  Alcotest.(check int) "jobs 1: one warm-up per warm key" distinct_warm_keys misses1;
  Alcotest.(check int) "jobs 4: one warm-up per warm key" distinct_warm_keys misses4

(* the reason strings are what the CLI and the bench JSON print *)
let test_fallback_names () =
  List.iter
    (fun (f, name) -> Alcotest.(check string) name name (Ifko_sim.Timer.fallback_name f))
    Ifko_sim.Timer.
      [ (No_array_arguments, "no-array-arguments");
        (Tiny_n, "tiny-n");
        (In_l2_context, "in-l2-context");
        (Non_increasing_cycles, "non-increasing-cycles");
        (No_steady_state, "no-steady-state");
      ]

(* one verdict for every caller: a streaming kernel is within budget, a
   tiny problem falls back bit-identically, and iamax's non-stationary
   rate exceeds the budget (the case the driver demotes) *)
let test_calibrate_verdicts () =
  let verdict id ~n =
    let _, cf = compiled_default id in
    let spec = Ifko_blas.Workload.timer_spec id ~seed in
    match
      (Ifko_sim.Timer.calibrate ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n cf)
        .Ifko_sim.Timer.cal_verdict
    with
    | Ifko_sim.Timer.Within _ -> "within"
    | Ifko_sim.Timer.Exceeds _ -> "exceeds"
    | Ifko_sim.Timer.Fell_back r -> "fell back: " ^ Ifko_sim.Timer.fallback_name r
    | Ifko_sim.Timer.Broken_fallback r -> "broken fallback: " ^ Ifko_sim.Timer.fallback_name r
  in
  Alcotest.(check string) "ddot at N=80000" "within" (verdict ddot ~n:80000);
  Alcotest.(check string) "ddot at n=1024" "fell back: tiny-n" (verdict ddot ~n:1024);
  Alcotest.(check string) "isamax at N=80000" "exceeds" (verdict isamax ~n:80000)

(* one measure_ext call is one attributed measurement, however many
   simulations it runs: full fidelity out of cache at n=80000 runs the
   two extrapolation sizes *)
let test_profile_counts_once () =
  let _, cf = compiled_default ddot in
  let measures fidelity =
    Ifko_sim.Timer.profile_reset ();
    Ifko_sim.Timer.profile_enable true;
    Fun.protect
      ~finally:(fun () -> Ifko_sim.Timer.profile_enable false)
      (fun () ->
        ignore
          (measure_ext ~fidelity ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 cf
            : Ifko_sim.Timer.measurement));
    (Ifko_sim.Timer.profile ()).Ifko_sim.Timer.at_measures
  in
  Alcotest.(check int) "one full measurement" 1 (measures Ifko_sim.Timer.Full);
  Alcotest.(check int) "one sampled measurement" 1 (measures Ifko_sim.Timer.Sampled)

let test_driver_sampled_tune () =
  let compiled = Ifko_blas.Hil_sources.compile ddot in
  let spec = Ifko_blas.Workload.timer_spec ddot ~seed in
  let tune fidelity =
    Ifko_search.Driver.tune ~seed ~fidelity ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec
      ~n:80000 ~flops_per_n:2.0
      ~test:(fun _ -> true)
      compiled
  in
  let s = tune Ifko_sim.Timer.Sampled in
  Alcotest.(check bool) "tuned with sampled fidelity" true
    (s.Ifko_search.Driver.fidelity_used = Ifko_sim.Timer.Sampled);
  (match s.Ifko_search.Driver.calibration_error with
  | None -> Alcotest.fail "sampled tune must record its calibration error"
  | Some e ->
    if e > 0.01 then Alcotest.failf "calibration error %.3f%% over budget" (100.0 *. e));
  Alcotest.(check bool) "found a sensible point" true
    (s.Ifko_search.Driver.ifko_mflops >= s.Ifko_search.Driver.fko_mflops);
  let f = tune Ifko_sim.Timer.Full in
  Alcotest.(check bool) "full tune records Full" true
    (f.Ifko_search.Driver.fidelity_used = Ifko_sim.Timer.Full
    && f.Ifko_search.Driver.calibration_error = None)

(* iamax is the suite's irregular kernel: rare data-dependent max
   updates make its per-element rate non-stationary, so the sampled
   windows misestimate it (~2.8% at the default point — over the 1%
   budget).  The tune-level calibration must catch that and demote the
   whole tune to full fidelity, keeping the measured error on
   record. *)
let test_driver_demotes_irregular () =
  let compiled = Ifko_blas.Hil_sources.compile isamax in
  let spec = Ifko_blas.Workload.timer_spec isamax ~seed in
  let s =
    Ifko_search.Driver.tune ~seed ~fidelity:Ifko_sim.Timer.Sampled ~cfg
      ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n:1.0
      ~test:(fun _ -> true)
      compiled
  in
  Alcotest.(check bool) "irregular kernel demoted to full fidelity" true
    (s.Ifko_search.Driver.fidelity_used = Ifko_sim.Timer.Full);
  match s.Ifko_search.Driver.calibration_error with
  | None -> Alcotest.fail "demotion must keep the measured calibration error"
  | Some e ->
    if e <= 0.01 then
      Alcotest.failf "expected an over-budget calibration error, got %.3f%%" (100.0 *. e)

let suite =
  [ Alcotest.test_case "snapshot-restore replay" `Quick test_snapshot_restore_replay;
    Alcotest.test_case "restore shape mismatch" `Quick test_restore_shape_mismatch;
    Alcotest.test_case "rebase time translation" `Quick test_rebase_translates;
    Alcotest.test_case "key content addressing" `Quick test_key_content_addressing;
    Alcotest.test_case "machine change isolates" `Quick test_machine_change_isolates;
    Alcotest.test_case "transients in memory" `Quick test_transients_in_memory;
    Alcotest.test_case "concurrent counters" `Quick test_concurrent_counters;
    Alcotest.test_case "sampled accuracy" `Quick test_sampled_accuracy;
    Alcotest.test_case "sampled in-L2 accuracy" `Quick test_sampled_in_l2_accuracy;
    Alcotest.test_case "sampled ckpt bit-identity" `Quick test_sampled_ckpt_bit_identity;
    Alcotest.test_case "sampled fallbacks" `Quick test_sampled_fallbacks;
    Alcotest.test_case "in-L2 ckpt bit-identity" `Quick test_l2_ckpt_bit_identity;
    Alcotest.test_case "shared ckpt under a pool" `Quick test_shared_ckpt_under_pool;
    Alcotest.test_case "fallback names" `Quick test_fallback_names;
    Alcotest.test_case "calibrate verdicts" `Quick test_calibrate_verdicts;
    Alcotest.test_case "profile counts one measurement" `Quick test_profile_counts_once;
    Alcotest.test_case "driver sampled tune" `Quick test_driver_sampled_tune;
    Alcotest.test_case "driver demotes irregular kernel" `Quick test_driver_demotes_irregular;
  ]
