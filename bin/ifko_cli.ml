(* The ifko command-line interface.

   Subcommands:
     ifko analyze  FILE            -- FKO's analysis report for a HIL kernel
     ifko compile  FILE [flags]    -- one FKO invocation; prints assembly
     ifko lint     FILE [flags]    -- static checks + per-pass validation
     ifko tune     FILE [flags]    -- the full iterative/empirical search
                                      (--store PATH resumes/persists results,
                                       --jobs N evaluates probes in parallel)
     ifko fuzz     [flags]         -- differential fuzzing of the pipeline
                                      (--replay PATH re-runs saved reproducers)
     ifko sim      FILE [flags]    -- one simulator run (--profile: fast-path
                                      coverage, superblock fusion, cycle
                                      attribution)
     ifko store    stat/compact/clear PATH -- tuning-store maintenance

   Timing requires knowing how to build workloads for the kernel's
   parameters; the CLI binds every `ptr` parameter to a fresh random
   vector of length N, every int parameter to N, and every fp parameter
   to 0.77 — matching the library's BLAS workloads. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Fuzz reproducers carry an already-parsed kernel; everything else is
   HIL source.  Accepting both lets `ifko lint` sweep the checked-in
   corpus with the same invocation as the example kernels. *)
let lower_file path text =
  if Filename.check_suffix path ".repro" then
    match Ifko.Fuzz.Corpus.of_string text with
    | exception e -> failwith (Printf.sprintf "%s: %s" path (Printexc.to_string e))
    | case ->
      case.Ifko.Fuzz.Corpus.kernel |> Ifko.Hil.Typecheck.check |> Ifko.Lower.lower
  else Ifko.compile_source text

let load path = lower_file path (read_file path)

(* A user error (a bad flag value, an unknown machine): one line naming
   the command on stderr and exit 1, as opposed to the 125 of an
   uncaught exception, which is a bug. *)
let user_error cmd msg =
  Printf.eprintf "ifko %s: %s\n" cmd msg;
  Stdlib.exit 1

let ok_or_exit cmd = function Ok v -> v | Error msg -> user_error cmd msg

(* Workloads and testers for arbitrary user kernels live in
   {!Ifko.Generic}, shared with the serve daemon — both must build the
   exact same seeded workload or their store keys would not agree. *)
let generic_spec = Ifko.Generic.spec
let generic_test = Ifko.Generic.test

(* ---- analyze ---- *)

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let compiled = load file in
    print_string (Ifko.Report.to_string (Ifko.analyze compiled))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"print FKO's analysis report for a HIL kernel")
    Term.(const run $ file)

(* ---- compile ---- *)

let machine_arg =
  Arg.(value & opt string "p4e" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"p4e or opteron")

let sv_arg = Arg.(value & opt bool true & info [ "sv" ] ~doc:"SIMD vectorization")
let ur_arg = Arg.(value & opt int 0 & info [ "ur" ] ~doc:"unroll factor (0 = default)")
let ae_arg = Arg.(value & opt int 0 & info [ "ae" ] ~doc:"accumulator expansion")
let wnt_arg = Arg.(value & opt bool false & info [ "wnt" ] ~doc:"non-temporal writes")

let pf_arg =
  Arg.(value & opt int (-1) & info [ "pf-dist" ] ~doc:"prefetch distance in bytes (-1 = default)")

(* The parameter point the compile/lint flags select, starting from
   FKO's defaults for this kernel on this machine. *)
let point_of_flags ~cfg compiled sv ur ae wnt pf_dist =
  let d = Ifko.default_params ~cfg compiled in
  {
    d with
    Ifko.Params.sv = sv && d.Ifko.Params.sv;
    unroll = (if ur > 0 then ur else d.Ifko.Params.unroll);
    ae;
    wnt;
    prefetch =
      (if pf_dist < 0 then d.Ifko.Params.prefetch
       else
         List.map
           (fun (a, (s : Ifko.Params.pf_param)) -> (a, { s with Ifko.Params.pf_dist }))
           d.Ifko.Params.prefetch);
  }

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file machine sv ur ae wnt pf_dist =
    let cfg = ok_or_exit "compile" (Ifko_machine.Config.of_name machine) in
    let compiled = load file in
    let params = point_of_flags ~cfg compiled sv ur ae wnt pf_dist in
    let func = Ifko.compile_point ~cfg compiled params in
    Printf.printf "; machine %s, parameters %s\n%s" cfg.Ifko.Config.name
      (Ifko.Params.to_string params) (Cfg.to_string func)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"run FKO once at a parameter point and print the assembly")
    Term.(const run $ file $ machine_arg $ sv_arg $ ur_arg $ ae_arg $ wnt_arg $ pf_arg)

(* ---- lint ---- *)

let lint_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let no_pipeline =
    Arg.(value & flag & info [ "no-pipeline" ] ~doc:"lint only the lowered kernel; skip per-pass validation")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"also print info-severity diagnostics")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "machine-readable output: one JSON array of diagnostic objects (severity, \
             code, pass, block, instr, message).  Exit 0 when clean, 1 when any \
             warning- or error-severity diagnostic was found, 2 on an internal \
             failure (a pass broke the kernel, unreadable input)")
  in
  let run file machine sv ur ae wnt pf_dist no_pipeline verbose json =
    (* --json contract: diagnostics are data, failures of the tool
       itself are exit 2 — scripts can tell "kernel has findings" from
       "lint could not run". *)
    let internal_error msg =
      if json then print_endline "[]";
      Printf.eprintf "lint: %s\n" msg;
      exit 2
    in
    match
      let cfg =
        match Ifko_machine.Config.of_name machine with Ok c -> c | Error msg -> failwith msg
      in
      let compiled = load file in
      (cfg, compiled)
    with
    | exception e -> internal_error (Printexc.to_string e)
    | cfg, compiled -> (
      let line_bytes = cfg.Ifko.Config.prefetchable_line in
      let shown diags =
        if verbose || json then diags
        else
          List.filter (fun (d : Ifko.Diag.t) -> d.Ifko.Diag.severity <> Ifko.Diag.Info) diags
      in
      let print_diags diags =
        if not json then
          match shown diags with
          | [] -> ()
          | ds -> print_endline (Ifko.Diag.list_to_string ds)
      in
      (* Stage 1: the lowered kernel itself. *)
      let lowered = Ifko.Lint.check ~pass:"lowering" ~line_bytes compiled in
      print_diags lowered;
      (* Stage 2: the full pipeline at the selected parameter point, with
         lint + translation validation after every pass. *)
      let pipeline =
        if no_pipeline then Ok []
        else begin
          let params = point_of_flags ~cfg compiled sv ur ae wnt pf_dist in
          let check = Ifko.Passcheck.of_spec ~line_bytes (Ifko.Generic.spec compiled) in
          let skips = ref [] in
          match
            Ifko.Pipeline.apply ~check ~on_skip:(fun d -> skips := d :: !skips)
              ~line_bytes compiled params
          with
          | exception Ifko.Passcheck.Pass_failed { pass; failure } ->
            Error (Ifko.Passcheck.describe ~pass failure)
          | c ->
            let final = Ifko.Lint.check ~pass:"pipeline" ~line_bytes c in
            print_diags (List.rev !skips @ final);
            if not json then
              Printf.printf "%s: every pass validated at point %s\n"
                compiled.Ifko.Lower.source.Ifko.Hil.Ast.k_name
                (Ifko.Params.to_string params);
            Ok (List.rev !skips @ final)
        end
      in
      match pipeline with
      | Error msg ->
        if json then print_endline (Ifko.Diag.list_to_json lowered);
        internal_error msg
      | Ok final ->
        let all = lowered @ final in
        if json then print_endline (Ifko.Diag.list_to_json all);
        let findings =
          List.exists (fun (d : Ifko.Diag.t) -> d.Ifko.Diag.severity <> Ifko.Diag.Info) all
        in
        if json then exit (if findings then 1 else 0)
        else begin
          let errors = not (Ifko.Diag.is_clean all) in
          Printf.printf "lint: %s\n" (if errors then "errors found" else "clean");
          if errors then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the static-analysis suite on a HIL kernel, then validate every \
          transformation pass (lint + translation validation) at a parameter point")
    Term.(
      const run $ file $ machine_arg $ sv_arg $ ur_arg $ ae_arg $ wnt_arg $ pf_arg
      $ no_pipeline $ verbose $ json)

(* ---- tune ---- *)

(* The request fields of `ifko tune`, `ifko query tune` and `ifko query
   lookup`: one set of flags and defaults, so a local tune and a query
   with the same flags name the same tune.  Yields FILE and the request
   for its text. *)
let request_term =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let context =
    Arg.(value & opt string "oc" & info [ "c"; "context" ] ~docv:"CTX" ~doc:"oc or l2")
  in
  let n = Arg.(value & opt int 80000 & info [ "n" ] ~doc:"problem size to tune for") in
  let flops =
    Arg.(value & opt float 2.0 & info [ "flops-per-n" ] ~doc:"FLOPs per element for MFLOPS")
  in
  let seed =
    Arg.(
      value & opt int 20050614
      & info [ "seed" ] ~docv:"SEED" ~doc:"workload seed (part of the store key)")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-each-pass" ]
          ~doc:
            "validate every transformation pass of every probed point (lint + \
             translation validation); the tune aborts naming the offending pass")
  in
  let strategy =
    Arg.(
      value & opt string "linesearch"
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "search strategy: $(b,linesearch) (the paper's modified line search, the \
             default) or $(b,surrogate) (model-based search reaching comparable \
             MFLOPS in far fewer probes)")
  in
  let warm =
    Arg.(
      value & flag
      & info [ "warm-start" ]
          ~doc:
            "seed the search with the winning points of the nearest past tunes in the \
             store (--store's journal, or the daemon's); no store or no usable donors: \
             clean cold start")
  in
  let build file machine context n flops_per_n seed check strategy warm_start =
    ( file,
      { Ifko.Serve.Proto.kernel = read_file file; machine; context; n; seed; flops_per_n;
        check; strategy; warm_start } )
  in
  Term.(
    const build $ file $ machine_arg $ context $ n $ flops $ seed $ check $ strategy $ warm)

let tune_cmd =
  let asm = Arg.(value & flag & info [ "S"; "asm" ] ~doc:"print the tuned assembly") in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"PATH"
          ~doc:
            "persistent tuning store — a JSON-lines journal file, or a shard \
             directory such as an $(b,ifko serve) --store-dir while no daemon is \
             writing to it: probe outcomes are journaled as they are computed and \
             repeat probes — including those of a previously killed tune — are \
             answered from it")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "evaluate probe batches on $(docv) domains, the calling one included \
             ($(docv) - 1 workers are spawned); results are bit-identical to \
             --jobs 1")
  in
  let fidelity_arg =
    Arg.(
      value & opt string "full"
      & info [ "fidelity" ] ~docv:"FID"
          ~doc:
            "timing fidelity for every probe: $(b,full) (the bit-identical reference) \
             or $(b,sampled) (page-window steady-state extrapolation; the default \
             point is first timed both ways and the tune silently reverts to full \
             fidelity when the sampled estimate misses the 1% error budget)")
  in
  let run (file, (a : Ifko.Serve.Proto.tune_args)) asm store_path jobs fidelity =
    let cfg, context, strategy = ok_or_exit "tune" (Ifko.Serve.Proto.decode a) in
    let fidelity = ok_or_exit "tune" (Ifko_sim.Timer.fidelity_of_string fidelity) in
    let seed = a.Ifko.Serve.Proto.seed in
    let compiled = lower_file file a.Ifko.Serve.Proto.kernel in
    let spec = generic_spec ~seed compiled in
    let store = Option.map (Ifko.Store.open_ ~seed) store_path in
    let tuned =
      match
        Ifko.tune ~check_each_pass:a.Ifko.Serve.Proto.check ~strategy
          ~warm_start:a.Ifko.Serve.Proto.warm_start ?store ~jobs ~seed ~fidelity ~cfg
          ~context ~spec ~n:a.Ifko.Serve.Proto.n
          ~flops_per_n:a.Ifko.Serve.Proto.flops_per_n ~test:(generic_test compiled spec)
          compiled
      with
      | tuned -> tuned
      | exception Invalid_argument msg -> user_error "tune" msg
    in
    (match store with
    | Some st ->
      Printf.printf "store %s: %d probes answered from the journal, %d computed\n"
        (Ifko.Store.path st) (Ifko.Store.hits st) (Ifko.Store.misses st);
      Ifko.Store.close st
    | None -> ());
    print_string (Ifko.Report.to_string tuned.Ifko.Driver.report);
    Printf.printf "\nFKO default point : %8.1f MFLOPS  (%s)\n"
      tuned.Ifko.Driver.fko_mflops
      (Ifko.Params.to_string tuned.Ifko.Driver.default_params);
    Printf.printf "ifko tuned point  : %8.1f MFLOPS  (%s)\n" tuned.Ifko.Driver.ifko_mflops
      (Ifko.Params.to_string tuned.Ifko.Driver.best_params);
    Printf.printf "speedup %.2fx over FKO in %d evaluations (best found at probe %d)\n"
      (tuned.Ifko.Driver.ifko_mflops /. Float.max 1e-9 tuned.Ifko.Driver.fko_mflops)
      tuned.Ifko.Driver.evaluations tuned.Ifko.Driver.probes_to_best;
    (match (fidelity, tuned.Ifko.Driver.fidelity_used, tuned.Ifko.Driver.calibration_error)
     with
    | Ifko.Timer.Full, _, _ -> ()
    | _, Ifko.Timer.Sampled, Some err ->
      Printf.printf "fidelity: sampled (calibration error %.3f%% of full)\n" (err *. 100.0)
    | _, Ifko.Timer.Full, Some err ->
      Printf.printf "fidelity: full (sampled missed the error budget: %.3f%%)\n"
        (err *. 100.0)
    | _, Ifko.Timer.Full, None ->
      print_endline "fidelity: full (sampled fell back during calibration)"
    | _, Ifko.Timer.Sampled, None -> ());
    List.iter
      (fun (dim, ratio) ->
        if ratio > 1.0001 then Printf.printf "  %-7s %+.1f%%\n" dim ((ratio -. 1.0) *. 100.0))
      tuned.Ifko.Driver.contributions;
    if asm then print_string (Cfg.to_string tuned.Ifko.Driver.best_func)
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"iteratively and empirically tune a HIL kernel")
    Term.(const run $ request_term $ asm $ store_arg $ jobs_arg $ fidelity_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"deterministic fuzz seed")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"number of kernels to generate")
  in
  let max_size_arg =
    Arg.(
      value & opt int 5
      & info [ "max-size" ] ~docv:"K" ~doc:"maximum idioms per generated loop body")
  in
  let points_arg =
    Arg.(
      value & opt int 3
      & info [ "points-per-kernel" ] ~docv:"P" ~doc:"parameter points probed per kernel")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"write shrunk reproducers into $(docv) (content-addressed file names)")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-each-pass" ]
          ~doc:
            "additionally validate every pipeline pass of every probed point (lint + \
             translation validation) — slower, catches bugs even when the final \
             output happens to agree")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "instead of fuzzing, re-run the reproducer file (or every *.repro in the \
             directory) $(docv) against the current pipeline")
  in
  let cross_check_arg =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "tighten the oracle against the dependence analysis: kernels whose \
             references are proven independent must agree bit-exactly on array \
             contents (the reduction return keeps its ULP budget); a divergence \
             convicts a transform or the independence claim itself")
  in
  let check_fidelity_arg =
    Arg.(
      value & flag
      & info [ "check-fidelity" ]
          ~doc:
            "with --replay: additionally time every reproducer kernel under sampled \
             fidelity and assert the escape-hatch contract — each kernel either \
             matches full fidelity within the 1% error budget or provably falls \
             back to full fidelity (bit-identical cycles, reason reported)")
  in
  (* The escape-hatch contract, checked per reproducer: sampled timing
     must either agree with full fidelity within the error budget or
     have fallen back to it (in which case the cycles are bit-identical
     by construction, which [Timer.calibrate] re-asserts rather than
     assumes). *)
  let fidelity_contract ~cfg path =
    match
      let case = Ifko.Fuzz.Corpus.read path in
      let compiled =
        case.Ifko.Fuzz.Corpus.kernel |> Ifko.Hil.Typecheck.check |> Ifko.Lower.lower
      in
      let func =
        match Ifko.compile_point ~cfg compiled case.Ifko.Fuzz.Corpus.params with
        | func -> func
        | exception _ ->
          (* the recorded point no longer compiles (pipeline evolved);
             the default point still exercises the kernel's shape *)
          Ifko.compile_point ~cfg compiled (Ifko.default_params ~cfg compiled)
      in
      let spec = generic_spec ~seed:0 compiled in
      let cf = Ifko_sim.Exec.compile func in
      (Ifko_sim.Timer.calibrate ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 cf)
        .Ifko_sim.Timer.cal_verdict
    with
    | exception e -> Error (Printf.sprintf "could not time: %s" (Printexc.to_string e))
    | Ifko_sim.Timer.Fell_back r ->
      Ok (Printf.sprintf "fell back to full fidelity (%s)" (Ifko_sim.Timer.fallback_name r))
    | Ifko_sim.Timer.Broken_fallback r ->
      Error
        (Printf.sprintf "fallback (%s) is not bit-identical to full"
           (Ifko_sim.Timer.fallback_name r))
    | Ifko_sim.Timer.Within err -> Ok (Printf.sprintf "%.3f%% error" (err *. 100.0))
    | Ifko_sim.Timer.Exceeds err ->
      Error
        (Printf.sprintf "sampled error %.3f%% exceeds the %.1f%% budget" (err *. 100.0)
           (Ifko_sim.Timer.error_budget *. 100.0))
  in
  let run machine seed count max_size points_per_kernel corpus check_each_pass cross_check
      replay check_fidelity =
    let cfg = ok_or_exit "fuzz" (Ifko_machine.Config.of_name machine) in
    match replay with
    | Some path ->
      let results =
        if Sys.file_exists path && Sys.is_directory path then
          Ifko.Fuzz.replay_dir ~check_each_pass ~cfg path
        else [ (path, Ifko.Fuzz.replay ~check_each_pass ~cfg path) ]
      in
      let failed = ref 0 in
      List.iter
        (fun (p, r) ->
          match r with
          | Ok () -> Printf.printf "ok   %s\n" p
          | Error e ->
            incr failed;
            Printf.printf "FAIL %s: %s\n" p e)
        results;
      Printf.printf "replay: %d reproducers, %d failing\n" (List.length results) !failed;
      if check_fidelity then begin
        let fidelity_failed = ref 0 in
        List.iter
          (fun (p, _) ->
            match fidelity_contract ~cfg p with
            | Ok detail -> Printf.printf "fidelity ok   %s (%s)\n" p detail
            | Error e ->
              incr fidelity_failed;
              Printf.printf "fidelity FAIL %s: %s\n" p e)
          results;
        Printf.printf "fidelity: %d reproducers, %d violating the escape-hatch contract\n"
          (List.length results) !fidelity_failed;
        failed := !failed + !fidelity_failed
      end;
      if !failed > 0 then exit 1
    | None ->
      if check_fidelity then failwith "--check-fidelity requires --replay";
      let stats =
        Ifko.Fuzz.run ~points_per_kernel ~max_size ~check_each_pass ~cross_check ?corpus
          ~log:print_endline ~cfg ~seed ~count ()
      in
      print_endline (Ifko.Fuzz.stats_to_string stats);
      if stats.Ifko.Fuzz.bugs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "differentially fuzz the transformation pipeline: generate random well-typed \
          kernels, probe random parameter points, compare simulated results against \
          the untransformed lowering, shrink and persist any divergence")
    Term.(
      const run $ machine_arg $ seed_arg $ count_arg $ max_size_arg $ points_arg
      $ corpus_arg $ check $ cross_check_arg $ replay_arg $ check_fidelity_arg)

(* ---- sim ---- *)

let sim_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let context =
    Arg.(value & opt string "oc" & info [ "c"; "context" ] ~docv:"CTX" ~doc:"oc or l2")
  in
  let n = Arg.(value & opt int 8192 & info [ "n" ] ~doc:"problem size to simulate") in
  let untimed =
    Arg.(value & flag & info [ "untimed" ] ~doc:"architectural semantics only, no timing model")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "report fast-path coverage, superblock fusion, per-component \
             cycle-attribution counters, and setup-vs-simulate wall-time \
             attribution (arena/env/restore/exec) for a timed run")
  in
  let seed_arg =
    Arg.(value & opt int 20050614 & info [ "seed" ] ~docv:"SEED" ~doc:"workload seed")
  in
  let compare_fidelity =
    Arg.(
      value & flag
      & info [ "compare-fidelity" ]
          ~doc:
            "time the kernel under both full and sampled fidelity and report cycles, \
             relative error and the simulated-work ratio; exit 1 when the sampled \
             estimate neither meets the error budget nor falls back to full fidelity")
  in
  let run file machine sv ur ae wnt pf_dist context n untimed profile seed compare_fidelity =
    if n < 0 then user_error "sim" "n must not be negative";
    let cfg = ok_or_exit "sim" (Ifko_machine.Config.of_name machine) in
    let context = ok_or_exit "sim" (Ifko_sim.Timer.context_of_name context) in
    let compiled = load file in
    let params = point_of_flags ~cfg compiled sv ur ae wnt pf_dist in
    let func = Ifko.compile_point ~cfg compiled params in
    let cf = Ifko_sim.Exec.compile func in
    let spec = generic_spec ~seed compiled in
    Printf.printf "%s: n=%d, %s, %s, %s\n"
      compiled.Ifko.Lower.source.Ifko.Hil.Ast.k_name n cfg.Ifko.Config.name
      (if untimed then "untimed" else Ifko_sim.Timer.context_name context)
      (Ifko.Params.to_string params);
    (* Starts from the timer's own context setup, but keeps the memory
       system around so the profile counters can be reported
       afterwards. *)
    let env = spec.Ifko_sim.Timer.make_env n in
    let ms =
      if untimed then None
      else begin
        let ms = Ifko_machine.Memsys.create cfg in
        Ifko_sim.Timer.prepare ~cfg ~context ms env;
        Some ms
      end
    in
    let r =
      Ifko_sim.Exec.exec
        ?timing:(Option.map (fun ms -> (cfg, ms)) ms)
        ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize cf env
    in
    Printf.printf "  %d instrs, %d uops%s%s\n" r.Ifko_sim.Exec.instr_count
      r.Ifko_sim.Exec.uop_count
      (if untimed then "" else Printf.sprintf ", %.1f cycles" r.Ifko_sim.Exec.cycles)
      (match r.Ifko_sim.Exec.ret with
      | None -> ""
      | Some (Ifko_sim.Exec.Rint i) -> Printf.sprintf ", ret %d" i
      | Some (Ifko_sim.Exec.Rfp f) -> Printf.sprintf ", ret %.17g" f);
    if profile then begin
      let blocks, fused = Ifko_sim.Exec.fusion cf in
      Printf.printf "  profile:\n";
      Printf.printf "    superblocks: %d fused bodies covering %d instrs\n" blocks fused;
      match ms with
      | None -> print_endline "    (memory-system counters require a timed run)"
      | Some ms ->
        let p = Ifko_machine.Memsys.profile ms in
        let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
        Printf.printf "    loads  %d (fast-path %.1f%%)  stores %d (fast-path %.1f%%)\n"
          p.Ifko_machine.Memsys.loads
          (pct p.Ifko_machine.Memsys.fast_loads p.Ifko_machine.Memsys.loads)
          p.Ifko_machine.Memsys.stores
          (pct p.Ifko_machine.Memsys.fast_stores p.Ifko_machine.Memsys.stores);
        Printf.printf "    L1 %d hits / %d misses   L2 %d hits / %d misses\n"
          p.Ifko_machine.Memsys.l1_hits p.Ifko_machine.Memsys.l1_misses
          p.Ifko_machine.Memsys.l2_hits p.Ifko_machine.Memsys.l2_misses;
        Printf.printf
          "    demand misses %d (%.1f cycles total latency)   bus cycles %.1f\n"
          p.Ifko_machine.Memsys.demand_misses p.Ifko_machine.Memsys.demand_cycles
          p.Ifko_machine.Memsys.bus_cycles;
        Printf.printf "    sw prefetch %d issued / %d dropped   hw prefetch %d issued\n"
          p.Ifko_machine.Memsys.sw_pf_issued p.Ifko_machine.Memsys.sw_pf_dropped
          p.Ifko_machine.Memsys.hw_pf_issued
    end;
    (* Setup-vs-simulate wall-time attribution rides the timer, so run
       one timer measurement under the profile instrument (the run
       above executes directly and has no setup floor to attribute). *)
    if profile && not untimed then begin
      Ifko_sim.Timer.profile_reset ();
      Ifko_sim.Timer.profile_enable true;
      ignore (Ifko_sim.Timer.measure_ext ~cfg ~context ~spec ~n cf
              : Ifko_sim.Timer.measurement);
      Ifko_sim.Timer.profile_enable false;
      let a = Ifko_sim.Timer.profile () in
      let per s = 1e6 *. s /. float_of_int (max 1 a.Ifko_sim.Timer.at_measures) in
      Printf.printf
        "    wall-time attribution (%d measurement%s): arena %.1f us, env %.1f us, \
         restore %.1f us, exec %.1f us per measure\n"
        a.Ifko_sim.Timer.at_measures
        (if a.Ifko_sim.Timer.at_measures = 1 then "" else "s")
        (per a.Ifko_sim.Timer.at_arena_s) (per a.Ifko_sim.Timer.at_env_s)
        (per a.Ifko_sim.Timer.at_restore_s) (per a.Ifko_sim.Timer.at_exec_s)
    end;
    if compare_fidelity then begin
      if untimed then failwith "--compare-fidelity requires a timed run (drop --untimed)";
      let cal = Ifko_sim.Timer.calibrate ~cfg ~context ~spec ~n cf in
      let full = cal.Ifko_sim.Timer.cal_full and s = cal.Ifko_sim.Timer.cal_sampled in
      let budget_pct = Ifko_sim.Timer.error_budget *. 100.0 in
      Printf.printf "  fidelity comparison (error budget %.2f%%):\n" budget_pct;
      Printf.printf "    full     %14.1f cycles  (%d elements simulated)\n"
        full.Ifko_sim.Timer.m_cycles full.Ifko_sim.Timer.m_elems;
      let sampled detail =
        Printf.printf "    sampled  %14.1f cycles  (%s)\n" s.Ifko_sim.Timer.m_cycles detail
      in
      let fell_back r = "fell back to full fidelity: " ^ Ifko_sim.Timer.fallback_name r in
      let estimated err =
        Printf.sprintf "%d elements, %.3f%% error, %.1fx less simulated work"
          s.Ifko_sim.Timer.m_elems (err *. 100.0)
          (float_of_int full.Ifko_sim.Timer.m_elems
          /. float_of_int (max 1 s.Ifko_sim.Timer.m_elems))
      in
      match cal.Ifko_sim.Timer.cal_verdict with
      | Ifko_sim.Timer.Within err -> sampled (estimated err)
      | Ifko_sim.Timer.Fell_back r -> sampled (fell_back r)
      | Ifko_sim.Timer.Broken_fallback r ->
        sampled (fell_back r);
        prerr_endline "the fallback is not bit-identical to full fidelity";
        Stdlib.exit 1
      | Ifko_sim.Timer.Exceeds err ->
        sampled (estimated err);
        Printf.eprintf "sampled error %.3f%% exceeds the %.2f%% budget\n" (err *. 100.0)
          budget_pct;
        Stdlib.exit 1
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "run a HIL kernel once on the simulator at a parameter point and print its \
          instruction and uop counts, cycles and return value; --profile reports \
          fast-path coverage, superblock fusion and cycle attribution")
    Term.(
      const run $ file $ machine_arg $ sv_arg $ ur_arg $ ae_arg $ wnt_arg $ pf_arg
      $ context $ n $ untimed $ profile $ seed_arg $ compare_fidelity)

(* ---- store ---- *)

let store_cmd =
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  (* PATH is a journal file or a serve shard directory (store.meta +
     shard-NN.jsonl): one store, where a file is one shard. *)
  let with_store p f =
    if not (Sys.file_exists p) then begin
      Printf.eprintf "%s: no store\n" p;
      Stdlib.exit 1
    end;
    match Ifko.Store.open_ p with
    | exception Invalid_argument msg ->
      prerr_endline msg;
      Stdlib.exit 1
    | st -> Fun.protect ~finally:(fun () -> Ifko.Store.close st) (fun () -> f st)
  in
  let stat =
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "machine-readable output: one JSON object with every field always \
               present ([Diag.to_json] conventions), including a per_shard array of \
               per-journal objects")
    in
    let run p json =
      with_store p (fun st ->
          let s = Ifko.Store.stat st in
          print_string
            (if json then Ifko.Store.stat_json s ^ "\n" else Ifko.Store.stat_to_string s))
    in
    Cmd.v
      (Cmd.info "stat"
         ~doc:"summarize a tuning-store journal or shard directory (never writes to it)")
      Term.(const run $ path_arg $ json)
  in
  let compact =
    Cmd.v
      (Cmd.info "compact"
         ~doc:"rewrite the journal(s) with one record per key (atomic rename)")
      Term.(
        const (fun p ->
            with_store p (fun st ->
                Ifko.Store.compact st;
                print_string (Ifko.Store.stat_to_string (Ifko.Store.stat st))))
        $ path_arg)
  in
  let clear =
    Cmd.v
      (Cmd.info "clear" ~doc:"delete the journal")
      Term.(const Ifko.Store.clear $ path_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"maintain a persistent tuning store")
    [ stat; compact; clear ]

(* ---- serve / query ---- *)

let listen_args =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")
  in
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"TCP port")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port)")
  in
  let listen socket port host =
    match (socket, port) with
    | Some path, None -> `Unix path
    | None, Some port -> `Tcp (host, port)
    | Some _, Some _ -> failwith "--socket and --port are mutually exclusive"
    | None, None -> failwith "one of --socket PATH or --port PORT is required"
  in
  Term.(const listen $ socket $ port $ host)

let serve_cmd =
  let store_dir =
    Arg.(
      value & opt string "ifko-store"
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:"shard-store directory (created on first run)")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "journal shards when creating the store (an existing store keeps its \
             geometry)")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "shared domain pool: every in-flight tune's probe batches run on \
             $(docv) domains, the daemon's own one included ($(docv) - 1 workers \
             are spawned); replies stay bit-identical to --jobs 1")
  in
  let replica =
    Arg.(
      value & flag
      & info [ "replica" ]
          ~doc:
            "share the store directory with other daemons: appends stay safe \
             (single-line O_APPEND writes) and lookup misses re-read the journal \
             tail before being conceded")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-store-bytes" ] ~docv:"BYTES"
          ~doc:"evict oldest entries when the store exceeds $(docv)")
  in
  let max_age =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-store-age" ] ~docv:"SECONDS"
          ~doc:"evict entries not re-journaled within $(docv) seconds")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"no event log on stderr") in
  let run listen store_dir shards jobs replica max_bytes max_age quiet =
    let log =
      if quiet then ignore else fun line -> Printf.eprintf "ifko serve: %s\n%!" line
    in
    Ifko.Serve.Server.run
      { Ifko.Serve.Server.listen; store_dir; shards; jobs; replica; max_bytes;
        max_age; log }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the tuning daemon: newline-delimited JSON over a Unix or TCP socket \
          (tune, lookup, stat, compact, shutdown), concurrent clients multiplexed \
          onto one sharded probe store and one domain pool")
    Term.(
      const run $ listen_args $ store_dir $ shards $ jobs $ replica $ max_bytes
      $ max_age $ quiet)

let query_cmd =
  let fail = user_error "query" in
  let print_reply verb (r : Ifko.Serve.Proto.tune_reply) =
    Printf.printf "%s: %8.1f MFLOPS (fko %.1f, %d evaluations, %s)\nbest: %s\n" verb
      r.Ifko.Serve.Proto.mflops r.Ifko.Serve.Proto.fko_mflops
      r.Ifko.Serve.Proto.evaluations
      (if r.Ifko.Serve.Proto.hit then "cache hit" else "computed")
      r.Ifko.Serve.Proto.best
  in
  let tune =
    let run listen (_, args) =
      Ifko.Serve.Client.with_client listen (fun c ->
          match Ifko.Serve.Client.tune c args with
          | Ok r -> print_reply "tune" r
          | Error msg -> fail msg)
    in
    Cmd.v
      (Cmd.info "tune" ~doc:"tune a HIL kernel on the daemon")
      Term.(const run $ listen_args $ request_term)
  in
  let lookup =
    let run listen (_, args) =
      Ifko.Serve.Client.with_client listen (fun c ->
          match Ifko.Serve.Client.lookup c args with
          | Ok (Some r) -> print_reply "lookup" r
          | Ok None ->
            print_endline "miss";
            Stdlib.exit 1
          | Error msg -> fail msg)
    in
    Cmd.v
      (Cmd.info "lookup"
         ~doc:"query the daemon's result cache (never computes; exit 1 on a miss)")
      Term.(const run $ listen_args $ request_term)
  in
  let stat =
    let run listen =
      Ifko.Serve.Client.with_client listen (fun c ->
          match Ifko.Serve.Client.stat c with
          | Ok fields -> print_endline (Ifko.Serve.Proto.Json.render fields)
          | Error msg -> fail msg)
    in
    Cmd.v (Cmd.info "stat" ~doc:"print the daemon's statistics as JSON")
      Term.(const run $ listen_args)
  in
  let simple name doc op =
    let run listen =
      Ifko.Serve.Client.with_client listen (fun c ->
          match op c with Ok () -> print_endline "ok" | Error msg -> fail msg)
    in
    Cmd.v (Cmd.info name ~doc) Term.(const run $ listen_args)
  in
  Cmd.group
    (Cmd.info "query" ~doc:"talk to a running ifko serve daemon")
    [ tune; lookup; stat;
      simple "compact" "evict per the daemon's bounds and compact every shard"
        Ifko.Serve.Client.compact;
      simple "shutdown" "stop the daemon gracefully" Ifko.Serve.Client.shutdown;
    ]

let () =
  let doc = "iterative floating point kernel optimizer (paper reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ifko" ~doc)
          [ analyze_cmd; compile_cmd; lint_cmd; tune_cmd; fuzz_cmd; sim_cmd; store_cmd;
            serve_cmd; query_cmd ]))
