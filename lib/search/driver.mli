(** The ifko driver: analysis, iterative search, timers and testers
    wired together (the paper's Figure 1).

    For each probed parameter point the driver (1) invokes the FKO
    pipeline, (2) runs the tester against the reference results —
    points that compute wrong answers are discarded outright — and
    (3) times the survivor in the requested machine/context, feeding
    MFLOPS back to the modified line search. *)

(** Which search strategy drives the tune.  [Linesearch] (the default)
    is the paper's modified line search, bit-identical to the
    pre-strategy sweep; [Surrogate] is the model-based searcher
    ({!Surrogate}), reaching comparable MFLOPS in far fewer probes. *)
type strategy = Linesearch | Surrogate

val strategy_to_string : strategy -> string

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_to_string}; [Error] names the bad input (for
    CLI/protocol validation). *)

type tuned = {
  report : Ifko_analysis.Report.t;
  default_params : Ifko_transform.Params.t;
  best_params : Ifko_transform.Params.t;
  fko_mflops : float;  (** the default (un-searched) FKO point *)
  ifko_mflops : float;  (** the searched point *)
  best_func : Cfg.func;  (** fully compiled best kernel *)
  contributions : (string * float) list;  (** Figure-7 decomposition *)
  evaluations : int;
  probes_to_best : int;
      (** 1-based evaluation index at which [ifko_mflops] was first
          measured — the probes-to-best metric strategies race on *)
  fidelity_used : Ifko_sim.Timer.fidelity;
      (** the fidelity probes actually ran at: [Sampled] only when it
          was requested {e and} passed this kernel's calibration *)
  calibration_error : float option;
      (** relative sampled-vs-full cycle error of the default point
          (present only when a sampled tune reached calibration) *)
}

val compile_point :
  ?check:Ifko_transform.Passcheck.t ->
  cfg:Ifko_machine.Config.t ->
  Ifko_codegen.Lower.compiled ->
  Ifko_transform.Params.t ->
  Cfg.func
(** One FKO invocation at an explicit parameter point.  [check]
    enables per-pass lint + translation validation
    ({!Ifko_transform.Pipeline.apply}). *)

val kernel_fingerprint : Ifko_codegen.Lower.compiled -> string
(** The canonical rendering of a lowered kernel (name, array metadata,
    LIL text) that probe store keys digest: any source edit that could
    change a probe outcome changes this string. *)

val tune_key :
  ?extensions:bool ->
  ?check_each_pass:bool ->
  ?strategy:strategy ->
  ?seed:int ->
  ?fidelity:Ifko_sim.Timer.fidelity ->
  cfg:Ifko_machine.Config.t ->
  context:Ifko_sim.Timer.context ->
  n:int ->
  flops_per_n:float ->
  string ->
  string
(** The key {!tune} journals its {!record} under, and the one key the
    serve daemon answers a request from.  Labels and defaults are
    {!tune}'s; the last argument is the {!kernel_fingerprint}.  It holds
    every input of the record: kernel, machine, context, [n], [seed],
    [check_each_pass], [flops_per_n], and, only when not the default,
    strategy, {e requested} fidelity (the daemon keys a request before
    it runs) and [extensions].  So default keys are the ones earlier
    builds minted, and a sampled or extended tune never answers a
    default request.  [warm_start] is left out: it changes where the
    search starts, not what it measures, and its donors are store state
    no request names, so warm and cold requests share one record. *)

val record : tuned -> Tune_record.t
(** The tune record of a finished tune: what {!tune} journals, and what
    the serve daemon replies with. *)

val tune :
  ?extensions:bool ->
  ?check_each_pass:bool ->
  ?strategy:strategy ->
  ?warm_start:bool ->
  ?donors:Warmstart.donor list ->
  ?store:Ifko_store.Store.t ->
  ?cache:
    (key:string ->
    params:string ->
    prov:string ->
    (unit -> Ifko_store.Store.outcome) ->
    Ifko_store.Store.outcome) ->
  ?pool:Ifko_par.Par.Pool.t ->
  ?jobs:int ->
  ?seed:int ->
  ?fidelity:Ifko_sim.Timer.fidelity ->
  ?codecache:Codecache.t ->
  cfg:Ifko_machine.Config.t ->
  context:Ifko_sim.Timer.context ->
  spec:Ifko_sim.Timer.spec ->
  n:int ->
  flops_per_n:float ->
  test:(Cfg.func -> bool) ->
  Ifko_codegen.Lower.compiled ->
  tuned
(** Run the full iterative and empirical compilation of a lowered
    kernel for problem size [n] in the given machine and context.
    Raises [Invalid_argument "n must be positive"] when [n <= 0].
    [extensions] also searches the future-work transformations (block
    fetch, CISC indexing); defaults to the paper's published FKO.

    [check_each_pass] runs the lint suite and translation validation
    after every transformation pass of every probed point: instead of
    silently discarding a miscompiled point (or worse, timing it), the
    tune fails fast with {!Ifko_transform.Passcheck.Pass_failed}
    naming the offending pass.  Without it, the pipeline runs once
    per prefetch shape ({!Ifko_transform.Pipeline.shape}) and each
    point is that output with its prefetches patched
    ({!Ifko_transform.Pipeline.instantiate}): the same code, byte for
    byte, as {!compile_point} gives the point.

    [strategy] selects the searcher (default [Linesearch]; omitting it
    is bit-identical to the pre-strategy driver).  [warm_start] seeds
    the chosen strategy's opening batch with the winners of the
    nearest past tunes ({!Warmstart.seeds}): donors come from
    [?donors] when given, otherwise from [store]'s tune-level entries;
    with neither, the tune cold-starts cleanly.  A completed tune with
    a [store] journals its {!record} under {!tune_key}
    ({!Tune_record.add}, unless the key already holds one): it feeds
    future warm starts, and the serve daemon answers repeat requests
    from it.

    [store] journals every probe outcome in a persistent
    content-addressed store and answers repeat probes from it, so a
    killed tune resumes without re-paying completed evaluations and a
    second identical tune costs only hash lookups.  Behind the store, a
    per-tune {!Ifko_par.Memo} answers a repeated probe key (strategies
    probe canonical duplicates of earlier points), so each distinct key
    is timed once at any [jobs], store or none; [evaluations] and
    [probes_to_best] still count every probe.  Probes go through
    {!Ifko_store.Store.cached}, which is single-flight: concurrent
    tunes sharing a store compute each probe once.  This is the one
    store path — the CLI passes a journal file or a daemon directory,
    and the serve daemon passes its sharded store.  [seed] must be the
    workload seed baked into [spec]/[test] — it is part of the store
    key, so results from differently seeded workloads never alias.

    [jobs] evaluates each line-search sweep's candidates concurrently
    on a domain pool.  Probes are mutually independent and tie-breaking
    stays sequential first-wins, so [~jobs:4] returns bit-identical
    [best_params], [ifko_mflops] and [evaluations] to [~jobs:1].

    [pool] substitutes an externally owned domain pool for the
    [jobs]-spawned one (which is then not created; [jobs] is ignored) —
    the serve daemon shares one pool across every in-flight tune, so
    concurrent requests' probe compilations batch onto the same
    workers.  [cache] replaces the [store] memoization of probe
    outcomes with an arbitrary hook; only tests and the benchmark use
    it, to record or replay probes.  Neither affects results: probes
    are pure, so any combination of [store]/[cache]/[pool]/[jobs] is
    bit-identical to a sequential, storeless tune.

    [fidelity] selects the timing fidelity for every probe (default
    [Full], bit-identical to the historical behavior).  Requesting
    [Sampled] first calibrates: the default point is timed both ways,
    and unless {!Ifko_sim.Timer.calibrate} finds the sampled estimate
    within {!Ifko_sim.Timer.error_budget} of full fidelity, the whole
    tune runs at full fidelity.  [fidelity_used]/[calibration_error] report the outcome,
    and sampled probe outcomes and tune records are stored under
    fidelity-tagged keys so they never answer full-fidelity lookups.

    Each tune keeps its own in-memory warm-state checkpoint cache
    ({!Ifko_sim.Ckpt}), so the in-L2 warm-up runs once per tune and
    every later probe restores the snapshot — observably identical,
    just cheaper.

    [codecache] shares compiled candidates (transform + semantic test
    + decode, keyed by kernel/machine/params/check/seed) across tunes
    — the daemon passes one so concurrent tunes of a kernel compile
    each candidate once; by default the cache is per-tune, which still
    deduplicates the calibration point, the first probe and the
    winner's final compilation.  Like [cache]/[pool], it never affects
    results. *)
