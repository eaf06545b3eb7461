open Ifko_machine

type tuned = {
  report : Ifko_analysis.Report.t;
  default_params : Ifko_transform.Params.t;
  best_params : Ifko_transform.Params.t;
  fko_mflops : float;
  ifko_mflops : float;
  best_func : Cfg.func;
  contributions : (string * float) list;
  evaluations : int;
  probes_to_best : int;
  fidelity_used : Ifko_sim.Timer.fidelity;
  calibration_error : float option;
}

type strategy = Linesearch | Surrogate

let strategy_to_string = function Linesearch -> "linesearch" | Surrogate -> "surrogate"

let strategy_of_string = function
  | "linesearch" -> Ok Linesearch
  | "surrogate" -> Ok Surrogate
  | s -> Error (Printf.sprintf "unknown strategy %S (expected linesearch or surrogate)" s)

let compile_point ?check ~cfg compiled params =
  let c =
    Ifko_transform.Pipeline.apply ?check ~line_bytes:cfg.Config.prefetchable_line compiled
      params
  in
  c.Ifko_codegen.Lower.func

(* Everything a probe outcome depends on, rendered for content
   addressing: the untransformed lowered LIL plus the array metadata
   the transformations and the prefetch search consume.  Editing the
   kernel source changes this, so stale store entries simply miss. *)
let kernel_fingerprint (compiled : Ifko_codegen.Lower.compiled) =
  let arrays =
    String.concat ";"
      (List.map
         (fun (a : Ifko_codegen.Lower.array_param) ->
           Printf.sprintf "%s:%s%s%s" a.Ifko_codegen.Lower.a_name
             (match a.Ifko_codegen.Lower.a_elem with Instr.S -> "s" | Instr.D -> "d")
             (if a.Ifko_codegen.Lower.a_output then ":out" else "")
             ((if a.Ifko_codegen.Lower.a_noprefetch then ":nopf" else "")
             ^ if a.Ifko_codegen.Lower.a_mayalias then ":alias" else ""))
         compiled.Ifko_codegen.Lower.arrays)
  in
  Printf.sprintf "%s\n%s\n%s"
    compiled.Ifko_codegen.Lower.source.Ifko_hil.Ast.k_name arrays
    (Cfg.to_string compiled.Ifko_codegen.Lower.func)

let record t =
  {
    Tune_record.best = Ifko_transform.Params.canonical t.best_params;
    mflops = t.ifko_mflops;
    fko_mflops = t.fko_mflops;
    evaluations = t.evaluations;
    kernel = Some t.report.Ifko_analysis.Report.kernel_name;
    feat = Some (Tune_record.feat_json (Ifko_analysis.Report.features t.report));
  }

let score = function
  | Ifko_store.Store.Timed { mflops; _ } -> mflops
  | Ifko_store.Store.Test_failed | Ifko_store.Store.Illegal -> neg_infinity

let tune ?(extensions = false) ?(check_each_pass = false) ?(strategy = Linesearch)
    ?(warm_start = false) ?donors ?store ?cache ?pool ?(jobs = 1) ?(seed = 0)
    ?(fidelity = Ifko_sim.Timer.Full) ?codecache ~cfg ~context ~spec ~n ~flops_per_n
    ~test compiled =
  if n <= 0 then invalid_arg "n must be positive";
  let report = Ifko_analysis.Report.analyze compiled in
  let default_params =
    Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
  in
  let check =
    if not check_each_pass then None
    else
      Some (Ifko_transform.Passcheck.of_spec ~line_bytes:cfg.Config.prefetchable_line spec)
  in
  let kernel = kernel_fingerprint compiled in
  let prov =
    Printf.sprintf "%s@%s/%s/n=%d"
      compiled.Ifko_codegen.Lower.source.Ifko_hil.Ast.k_name cfg.Config.name
      (Ifko_sim.Timer.context_name context) n
  in
  (* One warm-state checkpoint cache per tune: every probe point of
     this tune re-derives the same post-warm-up memory state, so the
     in-L2 warm loop runs once and every later probe restores the
     snapshot.  The checkpoint tag carries the workload seed on top of
     the kernel fingerprint: warm states (and the environment masters
     cached with them) embed the seeded workload data. *)
  let tckpt = (Ifko_sim.Ckpt.create ~cfg (), Printf.sprintf "%s|seed=%d" kernel seed) in
  (* Compiled candidates are produced (and their semantic test run)
     exactly once per (kernel, machine, params, check, seed) through
     the single-flight codecache: the calibration point is not
     recompiled by the first probe, the winner is not recompiled —
     unchecked — at the end, and callers that pass a longer-lived
     cache (multi-size sweeps, fidelity comparisons, the serve daemon)
     share candidates across whole tunes. *)
  let codecache = match codecache with Some c -> c | None -> Codecache.create () in
  let candidate params =
    Codecache.find_or_compile codecache
      ~key:
        (Codecache.key ~kernel ~machine:cfg.Config.name
           ~params:(Ifko_transform.Params.canonical params) ~check:check_each_pass ~seed)
      (fun () ->
        match compile_point ?check ~cfg compiled params with
        | exception (Ifko_transform.Passcheck.Pass_failed _ as broken) ->
          raise broken (* fail fast: a transform miscompiled this point *)
        | exception _ -> Codecache.Illegal (* an illegal point is just skipped *)
        | func ->
          if not (test func) then Codecache.Test_failed
          else Codecache.Compiled (func, Ifko_sim.Exec.compile func))
  in
  (* Per-kernel error-budget calibration: before a sampled tune starts,
     the default point is timed both ways ([Timer.calibrate]).  If the
     sampled estimate misses full fidelity by more than the budget, or
     the sampled path already fell back on its own confidence checks,
     the whole tune runs at full fidelity — the tune-level half of the
     bit-identity escape hatch.  (Probes are ranked by these timings,
     so a kernel the linear model cannot capture must not be searched
     with it.) *)
  let fidelity_used, calibration_error =
    match fidelity with
    | Ifko_sim.Timer.Full -> (Ifko_sim.Timer.Full, None)
    | Ifko_sim.Timer.Sampled -> (
      match candidate default_params with
      | Codecache.Illegal | Codecache.Test_failed -> (Ifko_sim.Timer.Full, None)
      | Codecache.Compiled (_, cf) -> (
        match
          (Ifko_sim.Timer.calibrate ~ckpt:tckpt ~cfg ~context ~spec ~n cf)
            .Ifko_sim.Timer.cal_verdict
        with
        | Ifko_sim.Timer.Within err -> (Ifko_sim.Timer.Sampled, Some err)
        | Ifko_sim.Timer.Exceeds err -> (Ifko_sim.Timer.Full, Some err)
        | Ifko_sim.Timer.Fell_back _ | Ifko_sim.Timer.Broken_fallback _ ->
          (Ifko_sim.Timer.Full, None)))
  in
  let compute params =
    match candidate params with
    | Codecache.Illegal -> Ifko_store.Store.Illegal
    | Codecache.Test_failed -> Ifko_store.Store.Test_failed
    | Codecache.Compiled (_, cf) ->
      (* decoded once per candidate (and shared through the codecache);
         the timer reuses the threaded code across extrapolation
         samples *)
      let cycles =
        (Ifko_sim.Timer.measure_ext ~fidelity:fidelity_used ~ckpt:tckpt ~cfg ~context ~spec
           ~n cf)
          .Ifko_sim.Timer.m_cycles
      in
      Ifko_store.Store.Timed
        { cycles; mflops = Ifko_sim.Timer.mflops ~cfg ~flops_per_n ~n ~cycles }
  in
  (* [cache] replaces the store's memoization: tests and the benchmark
     hook it to record or replay every probe outcome. *)
  let cached =
    match cache with
    | Some c -> c
    | None ->
      fun ~key ~params ~prov f -> Ifko_store.Store.cached ?store ~key ~params ~prov f
  in
  (* Without a store nothing else remembers an outcome, and strategies
     probe a point again under another structural [Params.t] with the
     same canonical form: answer those from a per-tune table, computing
     each key once even when two pool domains ask at the same time.  A
     [cache] hook still sees every probe. *)
  let compute =
    match store with
    | Some _ -> fun ~key:_ params -> compute params
    | None ->
      let outcomes = Hashtbl.create 64 and mu = Mutex.create () in
      let flight = Ifko_par.Flight.create () in
      let find key = Mutex.protect mu (fun () -> Hashtbl.find_opt outcomes key) in
      fun ~key params ->
        match find key with
        | Some o -> o
        | None ->
          fst
            (Ifko_par.Flight.run flight ~key (fun () ->
                 match find key with
                 | Some o -> o
                 | None ->
                   let o = compute params in
                   Mutex.protect mu (fun () -> Hashtbl.replace outcomes key o);
                   o))
  in
  let probe params =
    let key =
      Ifko_store.Store.probe_key ~kernel ~machine:cfg.Config.name
        ~context:(Ifko_sim.Timer.context_name context) ~n ~seed ~check:check_each_pass
        ?fidelity:
          (match fidelity_used with
          | Ifko_sim.Timer.Full -> None
          | Ifko_sim.Timer.Sampled -> Some "sampled")
        ~params:(Ifko_transform.Params.canonical params) ()
    in
    score
      (cached ~key ~params:(Ifko_transform.Params.to_string params) ~prov (fun () ->
           compute ~key params))
  in
  (* Warm-start seeds: the nearest past tunes' winners, adapted into
     this kernel's space.  Donors come from the caller or, by default,
     from the store's tune-level entries; no store, no donors — a clean
     cold start, not an error. *)
  let warm =
    if not warm_start then []
    else
      let donors =
        match donors with
        | Some ds -> ds
        | None -> (
          match store with Some st -> Warmstart.donors_of_store st | None -> [])
      in
      Warmstart.seeds ~extensions ~cfg ~report ~init:default_params
        ~feat:(Ifko_analysis.Report.features report) donors
  in
  let make ~init_perf =
    match strategy with
    | Linesearch ->
      Linesearch.strategy ~extensions ~warm ~cfg ~report ~init:default_params ~init_perf
        ()
    | Surrogate ->
      Surrogate.strategy ~extensions ~warm ~seed ~cfg ~report ~init:default_params
        ~init_perf ()
  in
  let search map_batch =
    match map_batch with
    | None -> Strategy.run ~init:default_params ~make probe
    | Some map_batch -> Strategy.run ~map_batch ~init:default_params ~make probe
  in
  let result =
    match pool with
    | Some pool -> search (Some (fun f xs -> Ifko_par.Par.Pool.map pool f xs))
    | None ->
      if jobs <= 1 then search None
      else
        Ifko_par.Par.Pool.with_pool ~jobs (fun pool ->
            search (Some (fun f xs -> Ifko_par.Par.Pool.map pool f xs)))
  in
  let best = result.Strategy.best in
  let best_func =
    (* cache hit when any probe of this run compiled the winner; a
       store-answered run compiles it here once, under the same
       per-pass checking regime *)
    match candidate best with
    | Codecache.Compiled (func, _) -> func
    | Codecache.Illegal | Codecache.Test_failed -> compile_point ?check ~cfg compiled best
  in
  let tuned =
    {
      report;
      default_params;
      best_params = best;
      fko_mflops = result.Strategy.start_perf;
      ifko_mflops = result.Strategy.best_perf;
      best_func;
      contributions = result.Strategy.contributions;
      evaluations = result.Strategy.evaluations;
      probes_to_best = result.Strategy.probes_to_best;
      fidelity_used;
      calibration_error;
    }
  in
  (* Journal the tune record so later tunes of similar kernels can
     warm-start from it and the serve daemon can answer the same
     request from it. *)
  Option.iter
    (fun st ->
      Tune_record.add st ~prov (record tuned)
        ~key:
          (Tune_record.key ~strategy:(strategy_to_string strategy) ~kernel
             ~machine:cfg.Config.name ~context:(Ifko_sim.Timer.context_name context) ~n
             ~seed ~check:check_each_pass ~flops_per_n))
    store;
  tuned
