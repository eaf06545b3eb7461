(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the simulated machines.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --exp fig2   -- one experiment
     dune exec bench/main.exe -- --quick      -- double precision only
     --store PATH   persistent tuning store (default BENCH_store.jsonl;
                    a second run is answered mostly from the journal)
     --no-store     disable the store
     --jobs N       parallel probe evaluation (bit-identical results)
     --json PATH    machine-readable run report (default BENCH_results.json)
     --profile      per-kernel fast-path coverage, superblock fusion and
                    cycle-attribution counters in the simbench experiment
     --baseline P   a previous results file, read before anything is
                    overwritten; over the kernels both runs measured,
                    fail the run if the simbench engine geomeans (MIPS
                    over the native reference's rate) regress by more
                    than 15%, if sampled fidelity misses its
                    cycle-error budget against the baseline's
                    full-fidelity cycles, or if sampled us/measure
                    regresses >20% vs the baseline.  With or without a
                    baseline, simbench fails if sampled fidelity misses
                    its budget against this run, if the sampled work
                    ratio falls under 5x, or if the sampled wall speedup
                    falls under 3.5x
     --delta-md P   write a baseline-vs-current markdown table to P
                    (CI appends it to the GitHub job summary)

   Experiments: table1 table2 fig2 fig3 fig4 fig5a fig5b table3 fig7
                opteron_l2 ablations simbench searchbench all *)

open Ifko_blas
open Ifko_machine
module Json = Ifko_util.Json

let seed = 20050614 (* ICPP 2005 *)

let quick = ref false
let selected : string list ref = ref []
let store_path = ref (Some "BENCH_store.jsonl")
let json_path = ref "BENCH_results.json"
let jobs = ref 1
let store : Ifko_store.Store.t option ref = ref None
let profile_mode = ref false

(* A previous results file, parsed at argument-parse time — before this
   run overwrites it. *)
let baseline : Json.value option ref = ref None
let delta_md : string option ref = ref None

(* The gated experiments' blocks of the results file, in run order. *)
let results : (string * Json.value) list ref = ref []

let kernels () =
  if !quick then List.filter (fun k -> k.Defs.prec = Instr.D) Defs.all else Defs.all

(* Studies are expensive; compute each (machine, context) pair once per
   process — and, through the store, once per journal. *)
let study_cache : (string, Ifko_eval.Eval.study) Hashtbl.t = Hashtbl.create 4

let study ~cfg ~context ~n =
  let key = Printf.sprintf "%s/%s/%d" cfg.Config.name (Ifko_sim.Timer.context_name context) n in
  match Hashtbl.find_opt study_cache key with
  | Some s -> s
  | None ->
    Printf.printf "... running study %s (%d kernels)\n%!" key (List.length (kernels ()));
    let s =
      Ifko_eval.Eval.run_study ~kernels:(kernels ())
        ~progress:(fun line -> Printf.printf "      %s\n%!" line)
        ?store:!store ~jobs:!jobs ~cfg ~context ~n ~seed ()
    in
    Hashtbl.replace study_cache key s;
    s

let p4e_oc () = study ~cfg:Config.p4e ~context:Ifko_sim.Timer.Out_of_cache ~n:80000
let opteron_oc () = study ~cfg:Config.opteron ~context:Ifko_sim.Timer.Out_of_cache ~n:80000
let p4e_l2 () = study ~cfg:Config.p4e ~context:Ifko_sim.Timer.In_l2 ~n:1024
let opteron_l2 () = study ~cfg:Config.opteron ~context:Ifko_sim.Timer.In_l2 ~n:1024

(* ---------- experiments ---------- *)

let exp_table1 () = print_string (Ifko_eval.Figures.table1 ())
let exp_table2 () = print_string (Ifko_eval.Figures.table2 ())

let exp_fig2 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 2. Relative speedups of various tuning methods on P4E, N=80000, out-of-cache"
       (p4e_oc ()))

let exp_fig3 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 3. Relative speedups of various tuning methods on Opteron, N=80000, out-of-cache"
       (opteron_oc ()))

let exp_fig4 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 4. Relative speedups of various tuning methods on P4E, N=1024, in-L2 cache"
       (p4e_l2 ()))

let exp_fig5a () = print_string (Ifko_eval.Figures.fig5a (p4e_oc ()) (opteron_oc ()))
let exp_fig5b () = print_string (Ifko_eval.Figures.fig5b ~oc:(p4e_oc ()) ~l2:(p4e_l2 ()))

let contexts_for_table3 () =
  [ ("P4E, out-of-cache", p4e_oc ());
    ("Opteron, out-of-cache", opteron_oc ());
    ("P4E, in-L2 cache", p4e_l2 ());
  ]

let exp_table3 () = print_string (Ifko_eval.Figures.table3 (contexts_for_table3 ()))
let exp_fig7 () = print_string (Ifko_eval.Figures.fig7 (contexts_for_table3 ()))

let exp_opteron_l2 () = print_string (Ifko_eval.Figures.opteron_l2_note (opteron_l2 ()))

(* ---------- ablations (design choices DESIGN.md calls out) ---------- *)

let ablation_search () =
  (* 1-D pure line search vs. the relaxed search with 2-D refinement *)
  print_endline "Ablation 1: pure 1-D line search vs. modified line search (P4E, oc)";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let spec = Workload.timer_spec id ~seed in
      let flops_per_n = Defs.flops_per_n id.Defs.routine in
      let test _ = true in
      let tuned =
        Ifko_search.Driver.tune ?store:!store ~jobs:!jobs ~seed ~cfg
          ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n ~test compiled
      in
      (* the pure-1-D result is the state before the UR*AE / PF2 refinements *)
      let pure_1d =
        List.fold_left
          (fun acc (dim, ratio) ->
            if dim = "UR*AE" || dim = "PF2" then acc else acc *. ratio)
          tuned.Ifko_search.Driver.fko_mflops tuned.Ifko_search.Driver.contributions
      in
      Printf.printf "  %-7s pure-1D=%.0f  modified=%.0f MFLOPS  (refinement %+.1f%%, %d evals)\n"
        (Defs.name id) pure_1d tuned.Ifko_search.Driver.ifko_mflops
        (100.0 *. ((tuned.Ifko_search.Driver.ifko_mflops /. Float.max 1e-9 pure_1d) -. 1.0))
        tuned.Ifko_search.Driver.evaluations)
    [ { Defs.routine = Defs.Dot; prec = Instr.D };
      { Defs.routine = Defs.Asum; prec = Instr.S };
    ]

let ablation_prefetch_model () =
  print_endline
    "Ablation 2: model-default prefetch distance (2*L) vs. empirically tuned (P4E, oc)";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let report = Ifko_analysis.Report.analyze compiled in
      let d = Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report in
      let spec = Workload.timer_spec id ~seed in
      let flops = Defs.flops_per_n id.Defs.routine in
      let time p =
        let f = Ifko_search.Driver.compile_point ~cfg compiled p in
        match
          Ifko_store.Store.cached ?store:!store
            ~key:
              (Ifko_store.Store.timing_key ~kind:"ablation2" ~func:(Cfg.to_string f)
                 ~machine:cfg.Config.name ~context:"out-of-cache" ~n:80000 ~seed)
            ~params:(Ifko_transform.Params.to_string p)
            ~prov:(Printf.sprintf "ablation2:%s" (Defs.name id))
            (fun () ->
              let cycles =
                Ifko_sim.Timer.measure ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec
                  ~n:80000 f
              in
              Ifko_store.Store.Timed
                { cycles;
                  mflops = Ifko_sim.Timer.mflops ~cfg ~flops_per_n:flops ~n:80000 ~cycles
                })
        with
        | Ifko_store.Store.Timed { mflops; _ } -> mflops
        | _ -> neg_infinity
      in
      let best =
        List.fold_left
          (fun acc dist ->
            let p =
              { d with
                Ifko_transform.Params.prefetch =
                  List.map
                    (fun (a, (s : Ifko_transform.Params.pf_param)) ->
                      (a, { s with Ifko_transform.Params.pf_dist = dist }))
                    d.Ifko_transform.Params.prefetch
              }
            in
            Float.max acc (time p))
          0.0 [ 512; 1024; 1536; 2048 ]
      in
      Printf.printf "  %-7s 2*L default=%.0f  tuned distance=%.0f MFLOPS (%+.0f%%)\n"
        (Defs.name id) (time d) best
        (100.0 *. ((best /. Float.max 1e-9 (time d)) -. 1.0)))
    [ { Defs.routine = Defs.Scal; prec = Instr.D };
      { Defs.routine = Defs.Asum; prec = Instr.D };
      { Defs.routine = Defs.Axpy; prec = Instr.D };
    ]

let ablation_repeatable () =
  print_endline "Ablation 3: repeatable-transformation block, one pass vs. fixpoint";
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let report = Ifko_analysis.Report.analyze compiled in
  let p =
    { (Ifko_transform.Params.default ~line_bytes:128 report) with
      Ifko_transform.Params.unroll = 16;
      ae = 4
    }
  in
  let c = Ifko_transform.Pipeline.snapshot compiled in
  ignore (Ifko_transform.Simd.apply c : (unit, _) result);
  ignore (Ifko_transform.Unroll.apply c p.Ifko_transform.Params.unroll : (unit, _) result);
  Ifko_transform.Loopctl.apply c;
  ignore (Ifko_transform.Accexp.apply c p.Ifko_transform.Params.ae : (unit, _) result);
  let f = c.Ifko_codegen.Lower.func in
  let count_instrs () =
    List.fold_left (fun a b -> a + List.length b.Block.instrs) 0 f.Cfg.blocks
  in
  let before = count_instrs () in
  let one_pass =
    let (_ : bool) = Ifko_transform.Copyprop.run f in
    let (_ : bool) = Ifko_transform.Peephole.run f in
    let (_ : bool) = Ifko_transform.Deadcode.run f in
    let (_ : bool) = Ifko_transform.Branchopt.run f in
    count_instrs ()
  in
  let iters = Ifko_transform.Pipeline.repeatable f in
  Printf.printf
    "  ddot UR=16 AE=4: %d instrs naive, %d after one pass, %d after fixpoint (%d rounds)\n"
    before one_pass (count_instrs ()) iters

let ablation_extrapolation () =
  print_endline "Ablation 4: timer steady-state extrapolation vs. full simulation";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let report = Ifko_analysis.Report.analyze compiled in
      let d = Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report in
      let f = Ifko_search.Driver.compile_point ~cfg compiled d in
      let spec = Workload.timer_spec id ~seed in
      let n = 80000 in
      let cached_cycles kind run =
        match
          Ifko_store.Store.cached ?store:!store
            ~key:
              (Ifko_store.Store.timing_key ~kind ~func:(Cfg.to_string f)
                 ~machine:cfg.Config.name ~context:"out-of-cache" ~n ~seed)
            ~params:kind
            ~prov:(Printf.sprintf "ablation4:%s" (Defs.name id))
            (fun () -> Ifko_store.Store.Timed { cycles = run (); mflops = 0.0 })
        with
        | Ifko_store.Store.Timed { cycles; _ } -> cycles
        | _ -> nan
      in
      let extrap =
        cached_cycles "ablation4-extrap" (fun () ->
            Ifko_sim.Timer.measure ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n f)
      in
      let exact =
        cached_cycles "ablation4-exact" (fun () ->
            Ifko_sim.Timer.exact ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n f)
      in
      Printf.printf "  %-7s extrapolated=%.0f exact=%.0f cycles (error %+.2f%%)\n"
        (Defs.name id) extrap exact
        (100.0 *. ((extrap -. exact) /. exact)))
    [ { Defs.routine = Defs.Dot; prec = Instr.D };
      { Defs.routine = Defs.Copy; prec = Instr.S };
    ]

let ablation_future_work () =
  print_endline
    "Ablation 5: the paper's future-work transformations close the hand-tuned gaps";
  let cfg = Config.p4e in
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let spec = Workload.timer_spec id ~seed in
  let test _ = true in
  let tune ~extensions =
    (Ifko_search.Driver.tune ~extensions ?store:!store ~jobs:!jobs ~seed ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n:1.0 ~test compiled)
      .Ifko_search.Driver.ifko_mflops
  in
  let published = tune ~extensions:false in
  let extended = tune ~extensions:true in
  let atlas =
    (Ifko_baselines.Atlas_search.select ?store:!store ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 ~seed id)
      .Ifko_baselines.Atlas_search.mflops
  in
  Printf.printf
    "  dcopy P4E oc: published ifko=%.0f, hand-tuned dcopy*=%.0f, ifko+block-fetch=%.0f MFLOPS\n"
    published atlas extended;
  Printf.printf "  (the block-fetch extension recovers %+.0f%% of ifko's gap to dcopy*)\n"
    (100.0 *. (extended -. published) /. Float.max 1.0 (atlas -. published));
  (* the SPECULATE mark-up vs. the hand-vectorized isamax* *)
  let idv = { Defs.routine = Defs.Iamax; prec = Instr.S } in
  let specv = Workload.timer_spec idv ~seed in
  let tune_iamax compiled =
    (Ifko_search.Driver.tune ?store:!store ~jobs:!jobs ~seed ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~spec:specv ~n:80000 ~flops_per_n:2.0 ~test
       compiled)
      .Ifko_search.Driver.ifko_mflops
  in
  let scalar = tune_iamax (Hil_sources.compile idv) in
  let speculative = tune_iamax (Hil_sources.compile_speculative idv) in
  let atlas_iamax =
    (Ifko_baselines.Atlas_search.select ?store:!store ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 ~seed idv)
      .Ifko_baselines.Atlas_search.mflops
  in
  Printf.printf
    "  isamax P4E oc: published ifko=%.0f, hand-tuned isamax*=%.0f, ifko+SPECULATE=%.0f MFLOPS\n"
    scalar atlas_iamax speculative

let exp_ablations () =
  ablation_search ();
  ablation_prefetch_model ();
  ablation_repeatable ();
  ablation_extrapolation ();
  ablation_future_work ()

(* ---------- results-file access ---------- *)

(* [get v ["a"; "b"]] is field "b" of field "a" of the object [v]. *)
let rec get v path =
  match (path, v) with
  | [], v -> Some v
  | k :: rest, Json.O fields -> Option.bind (List.assoc_opt k fields) (fun v -> get v rest)
  | _ -> None

let num v path =
  match get v path with
  | Some (Json.N f) -> f
  | _ -> failwith (Printf.sprintf "results file: no number at %s" (String.concat "." path))

let rows v path = match get v path with Some (Json.A l) -> l | _ -> []

(* A zero factor (an exact match, e.g. no full-cycle drift) makes the
   geomean 0; [Stats.geomean] rejects it. *)
let geo rows f =
  let l = List.map f rows in
  if List.mem 0.0 l then 0.0 else Ifko_util.Stats.geomean l

(* The per-kernel row lists of a simbench block, with the field naming
   each row's kernel. *)
let engine_rows = ([ "kernels" ], "kernel")
let fidelity_rows = ([ "fidelity"; "kernels" ], "fid_kernel")
(* Host-normalised engine throughput: interpreted MIPS over the same
   process's rate, in million elements per second, of the kernel's
   native OCaml reference ([Workload.reference_expectation], the
   computation behind every tester's expectation, timed uncached).  A
   faster or slower host moves both alike. *)
let untimed_norm r = num r [ "untimed_mips" ] /. num r [ "native_melems" ]
let timed_norm r = num r [ "timed_mips" ] /. num r [ "native_melems" ]

(* ---------- simulator throughput (simbench) ---------- *)

(* Interpreted instructions per second of the execution engine on every
   BLAS kernel at its tuned default point, untimed (pure semantics) and
   timed (full pipeline model), each over the rate of the kernel's
   native reference.  The engine decodes once outside the measurement
   loop — exactly how Timer/Driver/Oracle use it. *)

let simbench_n = 8192

(* Sampled-vs-full fidelity comparison, folded into simbench so one
   `make simbench` regenerates every number CI gates on.  Cycle error is
   deterministic (the simulator is); the wall-clock speedup rides the
   same steady-state rate loop as the engine rows.  [fid_work_ratio] is
   the deterministic work proxy — simulated elements per measurement,
   full over sampled — which the gate enforces so a loaded CI host
   cannot flake it. *)
let fidelity_n = 80000

let exp_simbench () =
  let cfg = Config.p4e in
  let n = simbench_n in
  let min_time = if !quick then 0.1 else 0.4 in
  (* steady-state rate: one warm-up run, then repeat until [min_time]
     has elapsed; returns millions of [run]'s units per second *)
  let rate run =
    let (_ : int) = run () in
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 and elapsed = ref 0.0 in
    while !elapsed < min_time do
      instrs := !instrs + run ();
      elapsed := Unix.gettimeofday () -. t0
    done;
    float_of_int !instrs /. !elapsed /. 1e6
  in
  Printf.printf
    "Simulator throughput, P4E default points, N=%d (interpreted MIPS; native reference \
     in M elements/s)\n"
    n;
  Printf.printf "  %-7s %10s %14s %9s %14s %9s\n" "kernel" "native" "untimed-MIPS" "/native"
    "timed-MIPS" "/native";
  let rows =
    List.map
      (fun id ->
        let compiled = Hil_sources.compile id in
        let report = Ifko_analysis.Report.analyze compiled in
        let params =
          Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
        in
        let func = Ifko_search.Driver.compile_point ~cfg compiled params in
        let cf = Ifko_sim.Exec.compile func in
        let spec = Workload.timer_spec id ~seed in
        let env = spec.Ifko_sim.Timer.make_env n in
        let rfs = spec.Ifko_sim.Timer.ret_fsize in
        let ms = Ifko_machine.Memsys.create cfg in
        let timing () =
          Ifko_machine.Memsys.reset ms ~flush:true;
          (cfg, ms)
        in
        (* Memsys.reset clears the profile counters, so coverage is
           accumulated per repetition during the timed phase. *)
        let loads = ref 0 and fast_loads = ref 0 in
        let stores = ref 0 and fast_stores = ref 0 in
        let demand = ref 0 and demand_cy = ref 0.0 and bus_cy = ref 0.0 in
        let sw_pf = ref 0 and sw_drop = ref 0 and hw_pf = ref 0 in
        let timed_run () =
          let r = Ifko_sim.Exec.exec ~timing:(timing ()) ~ret_fsize:rfs cf env in
          let p = Memsys.profile ms in
          loads := !loads + p.Memsys.loads;
          fast_loads := !fast_loads + p.Memsys.fast_loads;
          stores := !stores + p.Memsys.stores;
          fast_stores := !fast_stores + p.Memsys.fast_stores;
          demand := !demand + p.Memsys.demand_misses;
          demand_cy := !demand_cy +. p.Memsys.demand_cycles;
          bus_cy := !bus_cy +. p.Memsys.bus_cycles;
          sw_pf := !sw_pf + p.Memsys.sw_pf_issued;
          sw_drop := !sw_drop + p.Memsys.sw_pf_dropped;
          hw_pf := !hw_pf + p.Memsys.hw_pf_issued;
          r.Ifko_sim.Exec.instr_count
        in
        let blocks, fused_instrs = Ifko_sim.Exec.fusion cf in
        let native =
          rate (fun () ->
              ignore (Workload.reference_expectation id ~seed n : Ifko_sim.Verify.expectation);
              n)
        in
        let untimed =
          rate (fun () ->
              (Ifko_sim.Exec.exec ~ret_fsize:rfs cf env).Ifko_sim.Exec.instr_count)
        in
        let timed = rate timed_run in
        Printf.printf "  %-7s %10.1f %14.1f %9.2f %14.1f %9.2f\n" (Defs.name id) native untimed
          (untimed /. native) timed (timed /. native);
        let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
        if !profile_mode then begin
          Printf.printf
            "          fast-path: loads %.1f%% of %d, stores %.1f%% of %d; fusion: %d \
             bodies / %d instrs\n"
            (100.0 *. frac !fast_loads !loads)
            !loads
            (100.0 *. frac !fast_stores !stores)
            !stores blocks fused_instrs;
          Printf.printf
            "          attribution: %d demand misses (%.2e cy), bus %.2e cy, sw-pf \
             %d issued / %d dropped, hw-pf %d\n"
            !demand !demand_cy !bus_cy !sw_pf !sw_drop !hw_pf
        end;
        Json.O
          [ ("kernel", Json.S (Defs.name id));
            (* Workload.reference_expectation, million elements per second *)
            ("native_melems", Json.N native);
            ("untimed_mips", Json.N untimed);
            ("timed_mips", Json.N timed);
            (* fast-path coverage accumulated over the timed reps *)
            ("fast_load_frac", Json.N (frac !fast_loads !loads));
            ("fast_store_frac", Json.N (frac !fast_stores !stores));
            (* superblock fusion (static per compiled kernel) *)
            ("fused_blocks", Json.N (float_of_int blocks));
            ("fused_instrs", Json.N (float_of_int fused_instrs));
          ])
      (kernels ())
  in
  let untimed = geo rows untimed_norm and timed = geo rows timed_norm in
  Printf.printf "  geomean MIPS per native M elements/s: %.2f untimed, %.2f timed\n" untimed
    timed;
  (* sampled-vs-full fidelity: every kernel at its default point,
     out-of-cache N=80000 — the tuning driver's hot measurement.  Each
     kernel gets a fresh checkpoint cache, exactly as Driver.tune
     allocates one per tune; the warm-up therefore amortizes across the
     timed repetitions the same way it amortizes across probe points. *)
  Printf.printf "\n  Sampled vs full fidelity, out-of-cache, N=%d\n" fidelity_n;
  Printf.printf "  %-7s %14s %14s %8s %6s %6s %8s %8s  %s\n" "kernel" "full-cycles"
    "sampled-cycles" "err%" "work" "first" "speedup" "us/meas" "fallback";
  let frows =
    List.map
      (fun id ->
        let compiled = Hil_sources.compile id in
        let report = Ifko_analysis.Report.analyze compiled in
        let params =
          Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
        in
        let func = Ifko_search.Driver.compile_point ~cfg compiled params in
        let cf = Ifko_sim.Exec.compile func in
        let spec = Workload.timer_spec id ~seed in
        let ckpt = Ifko_sim.Ckpt.create ~cfg () in
        let measure fid =
          Ifko_sim.Timer.measure_ext ~fidelity:fid
            ~ckpt:(ckpt, Defs.name id)
            ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:fidelity_n cf
        in
        let m_full = measure Ifko_sim.Timer.Full in
        (* prime the checkpoint (warm-up + transient pair), then report
           the memoized-transient call: what a repeat measurement of a
           candidate already seen over this warm state runs (another
           problem size, a re-timing).  Cycles are bit-identical either
           way.  A tune rarely takes this path: [Driver.tune] times
           each distinct probe once, so its probes are first sights,
           which [first_sight] below measures. *)
        ignore (measure Ifko_sim.Timer.Sampled : Ifko_sim.Timer.measurement);
        let m_samp = measure Ifko_sim.Timer.Sampled in
        (* a first sight net of the shared warm-up: in a checkpoint of
           its own, a sibling candidate (loop control flipped) creates
           the warm state, as a tune's first probe does for the rest,
           and this candidate then meets it for the first time: cold
           page, short window and rate window *)
        let first_sight =
          let own = Ifko_sim.Ckpt.create ~cfg () in
          let sampled cf =
            Ifko_sim.Timer.measure_ext ~fidelity:Ifko_sim.Timer.Sampled
              ~ckpt:(own, Defs.name id)
              ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:fidelity_n cf
          in
          let sibling =
            Ifko_sim.Exec.compile
              (Ifko_search.Driver.compile_point ~cfg compiled
                 { params with Ifko_transform.Params.lc = not params.Ifko_transform.Params.lc })
          in
          if Ifko_sim.Exec.digest sibling = Ifko_sim.Exec.digest cf then
            failwith (Defs.name id ^ ": the loop-control sibling compiled to the same code");
          ignore (sampled sibling : Ifko_sim.Timer.measurement);
          sampled cf
        in
        (* seconds per measurement, steady state: the calls above
           already created the checkpoint *)
        let secs fid =
          let t0 = Unix.gettimeofday () in
          let k = ref 0 and elapsed = ref 0.0 in
          while !elapsed < min_time do
            ignore (measure fid : Ifko_sim.Timer.measurement);
            incr k;
            elapsed := Unix.gettimeofday () -. t0
          done;
          (!elapsed /. float_of_int !k, !k)
        in
        let t_full, _ = secs Ifko_sim.Timer.Full in
        (* the sampled loop runs under the wall-time attribution
           instrument: the setup floor (arena + env + restore per
           measurement) is what the pooling layers exist to shrink,
           and the JSON gate watches it *)
        Ifko_sim.Timer.profile_reset ();
        Ifko_sim.Timer.profile_enable true;
        let t_samp, k_samp = secs Ifko_sim.Timer.Sampled in
        Ifko_sim.Timer.profile_enable false;
        let attr = Ifko_sim.Timer.profile () in
        let per_call s = 1e6 *. s /. float_of_int k_samp in
        let full = m_full.Ifko_sim.Timer.m_cycles and sampled = m_samp.Ifko_sim.Timer.m_cycles in
        (* |sampled - full| / full * 100, this run *)
        let err_pct = 100.0 *. Float.abs (sampled -. full) /. full in
        let work_over (m : Ifko_sim.Timer.measurement) =
          float_of_int m_full.Ifko_sim.Timer.m_elems /. float_of_int m.Ifko_sim.Timer.m_elems
        in
        let work = work_over m_samp and first_work = work_over first_sight in
        let floor_us =
          per_call
            (attr.Ifko_sim.Timer.at_arena_s +. attr.Ifko_sim.Timer.at_env_s
           +. attr.Ifko_sim.Timer.at_restore_s)
        in
        let fallback =
          Option.map Ifko_sim.Timer.fallback_name m_samp.Ifko_sim.Timer.m_fallback
        in
        Printf.printf "  %-7s %14.0f %14.0f %7.3f%% %5.1fx %5.2fx %7.1fx %7.1f  %s\n"
          (Defs.name id) full sampled err_pct work first_work (t_full /. t_samp) (t_samp *. 1e6)
          (Option.value fallback ~default:"-");
        if !profile_mode then
          Printf.printf
            "          attribution: arena %.1f us, env %.1f us, restore %.1f us, exec \
             %.1f us per sampled measure (floor %.1f us)\n"
            (per_call attr.Ifko_sim.Timer.at_arena_s)
            (per_call attr.Ifko_sim.Timer.at_env_s)
            (per_call attr.Ifko_sim.Timer.at_restore_s)
            (per_call attr.Ifko_sim.Timer.at_exec_s)
            floor_us;
        Json.O
          [ ("fid_kernel", Json.S (Defs.name id));
            ("fid_full_cycles", Json.N full);
            ("fid_sampled_cycles", Json.N sampled);
            ("fid_err_pct", Json.N err_pct);
            (* full elems / sampled elems per measurement *)
            ("fid_work_ratio", Json.N work);
            (* the same for a candidate's first sight of a shared warm
               state, which most of a tune's probes are; not gated *)
            ("fid_first_sight_work_ratio", Json.N first_work);
            (* wall-clock: full seconds-per-measure / sampled *)
            ("fid_speedup", Json.N (t_full /. t_samp));
            ("fid_full_us", Json.N (t_full *. 1e6));
            ("fid_samp_us", Json.N (t_samp *. 1e6));
            (* sampled setup floor: arena + env + restore us/measure *)
            ("fid_floor_us", Json.N floor_us);
            (* escape-hatch reason, when it fired *)
            ("fid_fallback", match fallback with Some s -> Json.S s | None -> Json.Null);
          ])
      (kernels ())
  in
  let fgeo k = geo frows (fun r -> num r [ k ]) in
  let err = fgeo "fid_err_pct" and work = fgeo "fid_work_ratio" in
  let speedup = fgeo "fid_speedup" and samp_us = fgeo "fid_samp_us" in
  let floor_us = fgeo "fid_floor_us" and first = fgeo "fid_first_sight_work_ratio" in
  Printf.printf
    "  geomean: cycle error %.3f%% (budget %.1f%%), work ratio %.2fx (first sight %.2fx), \
     wall speedup %.2fx, %.1f us/measure (floor %.1f us)\n"
    err
    (100.0 *. Ifko_sim.Timer.error_budget)
    work first speedup samp_us floor_us;
  let fidelity =
    Json.O
      [ ("n", Json.N (float_of_int fidelity_n));
        ("error_budget_pct", Json.N (100.0 *. Ifko_sim.Timer.error_budget));
        ("geomean_cycle_err_pct", Json.N err);
        ("geomean_work_ratio", Json.N work);
        ("geomean_first_sight_work_ratio", Json.N first);
        ("geomean_sampled_speedup", Json.N speedup);
        ("geomean_full_us_per_measure", Json.N (fgeo "fid_full_us"));
        ("geomean_sampled_us_per_measure", Json.N samp_us);
        ("geomean_floor_us_per_measure", Json.N floor_us);
        ("kernels", Json.A frows);
      ]
  in
  results :=
    !results
    @ [ ( "simbench",
          Json.O
            [ ("machine", Json.S "P4E");
              ("n", Json.N (float_of_int n));
              ("geomean_untimed_norm", Json.N untimed);
              ("geomean_timed_norm", Json.N timed);
              ("fidelity", fidelity);
              ("kernels", Json.A rows);
            ] );
      ]

(* ---------- searchbench: probes-to-best per search strategy ---------- *)

(* The strategies race on probes-to-best: the 1-based evaluation index
   at which the tune's final winner was first measured.  Three runs per
   kernel at the same workpoint — the paper's line search (the
   baseline), the cold surrogate, and the surrogate warm-started from a
   donor store holding each kernel's own tune at half the problem size
   (the canonical warm scenario: "tuned yesterday at another N").  The
   simulator is deterministic, so every column is exactly reproducible
   and the gates below cannot flake. *)
let exp_searchbench () =
  let cfg = Config.p4e in
  let context = Ifko_sim.Timer.Out_of_cache in
  let n = if !quick then 800 else 2000 in
  let donor_n = n / 2 in
  let tune ?strategy ?(warm_start = false) ?donors ?store id ~n =
    let compiled = Hil_sources.compile id in
    let spec = Workload.timer_spec id ~seed in
    Ifko_search.Driver.tune ?strategy ~warm_start ?donors ?store ~jobs:!jobs ~seed ~cfg
      ~context ~spec ~n
      ~flops_per_n:(Defs.flops_per_n id.Defs.routine)
      ~test:(Ifko_eval.Eval.make_test id ~seed)
      compiled
  in
  (* donor phase: a line-search tune of every kernel at donor_n,
     journaled into a throwaway store — Driver.tune records a
     tune-level entry (winner + analysis fingerprint) for each *)
  let store_file = Filename.temp_file "ifko_searchbench" ".jsonl" in
  let dstore = Ifko_store.Store.open_ ~seed store_file in
  let donors =
    Fun.protect
      ~finally:(fun () ->
        Ifko_store.Store.close dstore;
        Sys.remove store_file)
      (fun () ->
        Printf.printf "Donor store: line-search tunes at N=%d\n%!" donor_n;
        List.iter
          (fun id -> ignore (tune ~store:dstore id ~n:donor_n : Ifko_search.Driver.tuned))
          (kernels ());
        Ifko_search.Warmstart.donors_of_store dstore)
  in
  Printf.printf "Search strategies, P4E out-of-cache, N=%d (%d donors)\n" n
    (List.length donors);
  Printf.printf "  %-7s | %-17s | %-25s | %s\n" "kernel" "linesearch" "surrogate (cold)"
    "surrogate (warm)";
  Printf.printf "  %-7s | %6s %10s | %6s %10s %7s | %6s %10s %7s\n" "" "probes" "mflops"
    "probes" "mflops" "ratio" "probes" "mflops" "ratio";
  let rows =
    List.map
      (fun id ->
        let line = tune id ~n in
        let surr = tune ~strategy:Ifko_search.Driver.Surrogate id ~n in
        let warm =
          tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~donors id ~n
        in
        let probes (t : Ifko_search.Driver.tuned) = float_of_int t.probes_to_best in
        Printf.printf "  %-7s | %6.0f %10.1f | %6.0f %10.1f %6.2fx | %6.0f %10.1f %6.2fx\n"
          (Defs.name id) (probes line) line.ifko_mflops (probes surr) surr.ifko_mflops
          (probes surr /. probes line)
          (probes warm) warm.ifko_mflops
          (probes warm /. probes surr);
        let cols prefix (t : Ifko_search.Driver.tuned) =
          [ (prefix ^ "_probes_to_best", Json.N (probes t));
            (prefix ^ "_evaluations", Json.N (float_of_int t.evaluations));
            (prefix ^ "_mflops", Json.N t.ifko_mflops);
          ]
        in
        Json.O
          ((("kernel", Json.S (Defs.name id)) :: cols "linesearch" line)
          @ cols "surrogate" surr @ cols "warm" warm))
      (kernels ())
  in
  let ratio a b r = num r [ a ] /. num r [ b ] in
  let probe_ratio = geo rows (ratio "surrogate_probes_to_best" "linesearch_probes_to_best") in
  let warm_ratio = geo rows (ratio "warm_probes_to_best" "surrogate_probes_to_best") in
  let best_ratio = geo rows (ratio "surrogate_mflops" "linesearch_mflops") in
  Printf.printf
    "  geomean: surrogate %.2fx linesearch probes-to-best at %.3fx its MFLOPS; warm \
     start %.2fx the cold surrogate's probes-to-best\n"
    probe_ratio best_ratio warm_ratio;
  (* the CI gates: the surrogate must reach linesearch-level MFLOPS in
     well under its probes, and warm starts must halve the surrogate's
     own cold probes-to-best *)
  if probe_ratio > 0.6 then begin
    Printf.eprintf
      "searchbench: surrogate probes-to-best geomean %.2fx linesearch exceeds the 0.6x \
       bar\n"
      probe_ratio;
    exit 1
  end;
  if best_ratio < 0.999 then begin
    Printf.eprintf
      "searchbench: surrogate MFLOPS geomean fell to %.4fx of linesearch (same-or-better \
       bar)\n"
      best_ratio;
    exit 1
  end;
  if warm_ratio > 0.5 then begin
    Printf.eprintf
      "searchbench: warm-start probes-to-best geomean %.2fx of cold exceeds the 0.5x bar\n"
      warm_ratio;
    exit 1
  end;
  results :=
    !results
    @ [ ( "searchbench",
          Json.O
            [ ("machine", Json.S "P4E");
              ("n", Json.N (float_of_int n));
              ("donor_n", Json.N (float_of_int donor_n));
              ("geomean_surrogate_probe_ratio", Json.N probe_ratio);
              ("geomean_surrogate_mflops_ratio", Json.N best_ratio);
              ("geomean_warm_probe_ratio", Json.N warm_ratio);
              ("kernels", Json.A rows);
            ] );
      ]

(* ---------- driver ---------- *)

let experiments =
  [ ("table1", exp_table1); ("table2", exp_table2); ("fig2", exp_fig2); ("fig3", exp_fig3);
    ("fig4", exp_fig4); ("fig5a", exp_fig5a); ("fig5b", exp_fig5b); ("table3", exp_table3);
    ("fig7", exp_fig7); ("opteron_l2", exp_opteron_l2); ("ablations", exp_ablations);
    ("simbench", exp_simbench); ("searchbench", exp_searchbench);
  ]

(* One top-level key per line, so the committed file diffs readably.
   [experiments] holds one object per experiment: wall-clock plus the
   store traffic it generated. *)
let write_results_json ~path ~total_seconds experiments =
  let fields =
    [ ("schema", Json.N 1.0);
      ("quick", Json.B !quick);
      ("jobs", Json.N (float_of_int !jobs));
      ("seed", Json.N (float_of_int seed));
    ]
    @ (match !store with
      | Some st ->
        [ ("store", Json.S (Ifko_store.Store.path st));
          ("store_entries", Json.N (float_of_int (Ifko_store.Store.entries st)));
        ]
      | None -> [ ("store", Json.Null) ])
    @ !results
    @ [ ("total_seconds", Json.N total_seconds); ("experiments", Json.A experiments) ]
  in
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (k, v) -> Json.render_value (Json.S k) ^ ": " ^ Json.render_value v) fields));
  output_string oc "\n}\n";
  close_out oc

let read_baseline path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | fields when rows (Json.O fields) ("simbench" :: fst engine_rows) <> [] -> Json.O fields
  | _ | (exception Json.Bad) ->
    failwith (Printf.sprintf "%s: no simbench kernels (not a results file?)" path)

(* This run's simbench rows under [path] paired with the baseline's row
   for the same kernel: a --quick run (double precision only) compares
   against a full baseline over its own kernels. *)
let paired (path, key) fresh =
  let name r = match get r [ key ] with Some (Json.S s) -> s | _ -> "" in
  let base =
    match !baseline with
    | Some b -> List.map (fun r -> (name r, r)) (rows b ("simbench" :: path))
    | None -> []
  in
  List.filter_map
    (fun r -> Option.map (fun b -> (r, b)) (List.assoc_opt (name r) base))
    (rows fresh path)

(* Geomeans of [f] over the paired rows, this run's then the baseline's. *)
let geo2 pairs f = (geo (List.map fst pairs) f, geo (List.map snd pairs) f)

(* Baseline-vs-current table for the CI job summary (--delta-md).
   Written before the gates run, so a failing run still uploads the
   table that explains the failure. *)
let write_delta_md path fresh =
  let oc = open_out path in
  Printf.fprintf oc "### simbench: baseline vs current\n\n";
  Printf.fprintf oc "| metric | baseline | current | delta |\n";
  Printf.fprintf oc "|---|---:|---:|---:|\n";
  let row name fmt kind f =
    let now, base =
      match paired kind fresh with
      | [] -> (geo (rows fresh (fst kind)) f, None)
      | pairs ->
        let now, base = geo2 pairs f in
        (now, Some base)
    in
    let b = match base with None -> "—" | Some v -> Printf.sprintf fmt v in
    let d =
      match base with
      | Some bv when bv <> 0.0 -> Printf.sprintf "%+.1f%%" (100.0 *. ((now /. bv) -. 1.0))
      | _ -> "—"
    in
    Printf.fprintf oc "| %s | %s | %s | %s |\n" name b (Printf.sprintf fmt now) d
  in
  let field k r = num r [ k ] in
  row "engine MIPS / native rate, untimed (geomean)" "%.2f" engine_rows untimed_norm;
  row "engine MIPS / native rate, timed (geomean)" "%.2f" engine_rows timed_norm;
  row "sampled cycle error (geomean)" "%.3f%%" fidelity_rows (field "fid_err_pct");
  row "sampled wall speedup (geomean)" "%.2fx" fidelity_rows (field "fid_speedup");
  row "sampled work ratio (geomean)" "%.2fx" fidelity_rows (field "fid_work_ratio");
  row "sampled us/measure (geomean)" "%.1f" fidelity_rows (field "fid_samp_us");
  row "sampled setup floor us (geomean)" "%.1f" fidelity_rows (field "fid_floor_us");
  close_out oc

(* The simbench gates.  Those against the baseline (CI points
   --baseline at the committed results file) compare geomeans over the
   kernels both files list:

   - engine throughput: a >15% geomean drop on either the untimed or
     timed host-normalised rate (MIPS over the native reference's rate)
     fails the run — the threshold rides well above the scheduler noise
     a busy host adds to wall-clock rates;
   - sampled accuracy: the fresh sampled cycles must stay within the
     error budget of full fidelity, both against this run's own full
     measurements and against the baseline's per-kernel full-fidelity
     cycles (the simulator is deterministic, so the latter only drifts
     when codegen changed — regenerate the baseline in that case);
   - sampled work: the deterministic simulated-elements ratio must
     hold the >=5x bar, so the Amdahl win cannot silently erode;
   - sampled wall clock: the geomean wall speedup must hold the >=3.5x
     bar (full and sampled share the host back to back, so the ratio is
     load-tolerant), and the absolute sampled us/measure must not
     regress >20% against the baseline — the per-measure setup floor
     (arena acquire, env materialize, restore) is what the pooling
     layers bought, and this is the gate that keeps it bought. *)
let check_baseline () =
  match List.assoc_opt "simbench" !results with
  | None -> ()
  | Some fresh ->
    Option.iter (fun path -> write_delta_md path fresh) !delta_md;
    let failed = ref false in
    let fail msg =
      prerr_endline msg;
      failed := true
    in
    (match paired engine_rows fresh with
    | [] -> ()
    | pairs ->
      let check name f =
        let now, base = geo2 pairs f in
        Printf.printf "baseline %s MIPS/native: %.2f now vs %.2f before (%+.1f%%)\n" name now
          base
          (100.0 *. ((now /. base) -. 1.0));
        now < 0.85 *. base
      in
      let bad_untimed = check "untimed" untimed_norm in
      let bad_timed = check "timed" timed_norm in
      if bad_untimed || bad_timed then
        fail "simbench geomean regressed by more than 15% against the baseline");
    let fid k = num fresh [ "fidelity"; k ] in
    let error_budget_pct = 100.0 *. Ifko_sim.Timer.error_budget in
    let err = fid "geomean_cycle_err_pct" and work = fid "geomean_work_ratio" in
    let speedup = fid "geomean_sampled_speedup" in
    Printf.printf
      "fidelity: geomean cycle error %.3f%% (budget %.2f%%), work ratio %.2fx, wall \
       speedup %.2fx, %.1f us/measure\n"
      err error_budget_pct work speedup
      (fid "geomean_sampled_us_per_measure");
    if err > error_budget_pct then
      fail
        (Printf.sprintf
           "sampled fidelity exceeds the %.2f%% error budget vs this run's full simulation"
           error_budget_pct);
    if work < 5.0 then
      fail (Printf.sprintf "sampled fidelity work ratio %.2fx fell under the 5x bar" work);
    (* wall-clock, but full and sampled time the same host back to back,
       so the ratio holds the bar with plenty of margin even when the
       host is loaded *)
    if speedup < 3.5 then
      fail (Printf.sprintf "sampled wall speedup %.2fx fell under the 3.5x bar" speedup);
    (match paired fidelity_rows fresh with
    | [] -> ()
    | pairs ->
      (* normalize by the full-fidelity wall ratio: the full path's
         per-measure time scales with host speed (and legitimate
         simulator-throughput changes, which the engine gates watch
         separately), so what remains is a genuine sampled-path
         regression — the setup floor growing back *)
      let us, base_us = geo2 pairs (fun r -> num r [ "fid_samp_us" ]) in
      let full_us, base_full_us = geo2 pairs (fun r -> num r [ "fid_full_us" ]) in
      let norm = us /. Float.max 1e-9 (full_us /. base_full_us) in
      Printf.printf
        "fidelity us/measure: %.1f now (%.1f host-normalized) vs %.1f baseline (%+.1f%%)\n"
        us norm base_us
        (100.0 *. ((norm /. base_us) -. 1.0));
      if norm > 1.2 *. base_us then
        fail
          "sampled us/measure regressed by more than 20% against the baseline (the \
           per-measure setup floor grew)";
      let gm f = geo pairs f in
      let vs_base k (r, b) =
        let base = num b [ "fid_full_cycles" ] in
        100.0 *. Float.abs (num r [ k ] -. base) /. base
      in
      let base_err = gm (vs_base "fid_sampled_cycles") in
      let drift = gm (vs_base "fid_full_cycles") in
      Printf.printf
        "fidelity vs committed baseline: geomean sampled error %.3f%%, full-cycle drift \
         %.3f%% (%d kernels)\n"
        base_err drift (List.length pairs);
      if base_err > error_budget_pct then
        fail
          (Printf.sprintf
             "sampled cycles exceed the %.2f%% budget against the committed full-fidelity \
              baseline%s"
             error_budget_pct
             (if drift > 0.1 then
                " (full cycles drifted too — codegen changed; regenerate BENCH_results.json)"
              else "")));
    if !failed then exit 1

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--exp" :: name :: rest ->
      selected := !selected @ [ name ];
      parse rest
    | "--store" :: path :: rest ->
      store_path := Some path;
      parse rest
    | "--no-store" :: rest ->
      store_path := None;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | "--json" :: path :: rest ->
      json_path := path;
      parse rest
    | "--profile" :: rest ->
      profile_mode := true;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := Some (read_baseline path);
      parse rest
    | "--delta-md" :: path :: rest ->
      delta_md := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  store := Option.map (Ifko_store.Store.open_ ~seed) !store_path;
  let to_run =
    match !selected with
    | [] | [ "all" ] -> List.map fst experiments
    | l -> l
  in
  let counters () =
    match !store with
    | Some st -> (Ifko_store.Store.hits st, Ifko_store.Store.misses st)
    | None -> (0, 0)
  in
  let t0 = Unix.gettimeofday () in
  let stats =
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          Printf.printf "\n================ %s ================\n%!" name;
          let h0, m0 = counters () in
          let start = Unix.gettimeofday () in
          f ();
          let seconds = Unix.gettimeofday () -. start in
          let h1, m1 = counters () in
          print_newline ();
          (* misses = probes compiled/verified/timed this run; hits =
             answered from the journal *)
          let hits = h1 - h0 and computed = m1 - m0 in
          Json.O
            [ ("name", Json.S name);
              ("seconds", Json.N seconds);
              ("probes_computed", Json.N (float_of_int computed));
              ("store_hits", Json.N (float_of_int hits));
              ( "hit_rate",
                Json.N
                  (if hits + computed = 0 then 0.0
                   else float_of_int hits /. float_of_int (hits + computed)) );
            ]
        | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
      to_run
  in
  let total_seconds = Unix.gettimeofday () -. t0 in
  write_results_json ~path:!json_path ~total_seconds stats;
  (match !store with
  | Some st ->
    Printf.printf "store %s: %d entries, %d hits / %d computed this run\n"
      (Ifko_store.Store.path st) (Ifko_store.Store.entries st) (Ifko_store.Store.hits st)
      (Ifko_store.Store.misses st);
    Ifko_store.Store.close st
  | None -> ());
  Printf.printf "results written to %s (%.1f s total)\n" !json_path total_seconds;
  check_baseline ()
