(* Tune operations, hooked tunes and their per-layer replay.

   A tune operation is one [Driver.tune] call as a user makes it.  In a
   traced run the same call is made once more with the hooks the driver
   already exposes ([?cache], [?codecache]): the [?cache] hook records
   every probe outcome under its store key.  The replay then re-runs
   that tune outside the driver, one public call at a time under its
   own span: [Report.analyze], the warm-start donor scan, [Strategy.run]
   answered from the recorded outcomes (so probes cost nothing there),
   and, for every point the strategy probed, [Driver.compile_point],
   the tester, [Exec.compile] and [Timer.measure_ext] with a fresh
   checkpoint cache.  The replay must reproduce the tune bit for bit —
   winner, MFLOPS bits, evaluations, probes-to-best and every probe's
   cycles — or the trace is refused. *)

open Ifko_blas
open Ifko_machine
module Driver = Ifko_search.Driver
module Store = Ifko_store.Store
module Timer = Ifko_sim.Timer
module Params = Ifko_transform.Params
module Codecache = Ifko_search.Codecache

type tune_spec = {
  id : Defs.kernel_id;
  compiled : Ifko_codegen.Lower.compiled;
  cfg : Config.t;
  context : Timer.context;
  n : int;
  seed : int;
  strategy : Driver.strategy;
  fidelity : Timer.fidelity;
  warm_start : bool;
  jobs : int;
}

let flops_per_n t = Defs.flops_per_n t.id.Defs.routine

let tune ?store ?cache ?codecache t =
  Driver.tune ~strategy:t.strategy ~warm_start:t.warm_start ?store ?cache ?codecache
    ~jobs:t.jobs ~seed:t.seed ~fidelity:t.fidelity ~cfg:t.cfg ~context:t.context
    ~spec:(Workload.timer_spec t.id ~seed:t.seed)
    ~n:t.n ~flops_per_n:(flops_per_n t)
    ~test:(Check.reference t.id ~seed:t.seed)
    t.compiled

type hooked = {
  tuned : Driver.tuned;
  memo : (string, Store.outcome) Hashtbl.t;  (** probe key -> outcome *)
  codecache : Codecache.stats;
}

(* The tune with its hooks in place.  Probes may run on pool domains,
   so each probe span names the enclosing span as its parent. *)
let hooked_tune ?store t =
  let memo = Hashtbl.create 128 and mu = Mutex.create () in
  let under = Trace.here () in
  let cache ~key ~params ~prov f =
    Trace.span ~under "search.probe" (fun () ->
        let o =
          Store.cached ?store ~key ~params ~prov (fun () -> Trace.span "search.compute" f)
        in
        Mutex.lock mu;
        Hashtbl.replace memo key o;
        Mutex.unlock mu;
        o)
  in
  let codecache = Codecache.create () in
  let tuned = tune ?store ~cache ~codecache t in
  { tuned; memo; codecache = Codecache.stats codecache }

(* Counters the replay adds up over every operation of a run; the
   time-based per-layer metrics come from span self times instead. *)
type counters = {
  mutable ops : int;
  mutable illegal : int;
  mutable test_failed : int;
  mutable timer_elems : float;
  mutable sampled : int;
  mutable fallbacks : int;
  mutable exec_s : float;
  mutable env_s : float;
  mutable restore_s : float;
  mutable arena_s : float;
  mutable ckpt_hits : int;
  mutable ckpt_lookups : int;
  mutable evaluations : int;
  mutable probes_to_best : int;
  mutable timed : int;
  mutable cc_hits : int;
  mutable cc_lookups : int;
  mutable warm_seeds : int;
  mutable mismatches : string list;
}

let counters () =
  { ops = 0; illegal = 0; test_failed = 0; timer_elems = 0.0; sampled = 0; fallbacks = 0;
    exec_s = 0.0; env_s = 0.0; restore_s = 0.0; arena_s = 0.0; ckpt_hits = 0;
    ckpt_lookups = 0; evaluations = 0; probes_to_best = 0; timed = 0; cc_hits = 0;
    cc_lookups = 0; warm_seeds = 0; mismatches = [] }

let mismatch c fmt = Printf.ksprintf (fun s -> c.mismatches <- s :: c.mismatches) fmt
let bits = Int64.bits_of_float

let score = function
  | Store.Timed { mflops; _ } -> mflops
  | Store.Test_failed | Store.Illegal -> neg_infinity

let same_outcome a b =
  match (a, b) with
  | Store.Timed x, Store.Timed y -> bits x.cycles = bits y.cycles && bits x.mflops = bits y.mflops
  | Store.Test_failed, Store.Test_failed | Store.Illegal, Store.Illegal -> true
  | _ -> false

let outcome_name = function
  | Store.Timed { cycles; _ } -> Printf.sprintf "timed %h" cycles
  | Store.Test_failed -> "test-failed"
  | Store.Illegal -> "illegal"

(* Does a tune result equal another bit for bit? *)
let same_tuned (a : Driver.tuned) (b : Driver.tuned) =
  Params.canonical a.Driver.best_params = Params.canonical b.Driver.best_params
  && bits a.Driver.ifko_mflops = bits b.Driver.ifko_mflops
  && bits a.Driver.fko_mflops = bits b.Driver.fko_mflops
  && a.Driver.evaluations = b.Driver.evaluations
  && a.Driver.probes_to_best = b.Driver.probes_to_best

(* Replay [h], the hooked run of [t], layer by layer; disagreements are
   added to [c.mismatches].  [donors] re-runs the warm-start donor scan
   the tune made (it is timed here).  The caller opens the root span. *)
let replay ?(donors = fun () -> []) c t (h : hooked) =
  let label = Printf.sprintf "%s seed %d" (Defs.name t.id) t.seed in
  let cfg = t.cfg and compiled = t.compiled and tuned = h.tuned in
  c.ops <- c.ops + 1;
  if t.jobs > 1 then
    Trace.span "par.pool" (fun () ->
        Ifko_par.Par.Pool.with_pool ~jobs:t.jobs (fun (_ : Ifko_par.Par.Pool.t) -> ()));
  let report =
    Trace.span "analysis.report" (fun () -> Ifko_analysis.Report.analyze compiled)
  in
  let init = Params.default ~line_bytes:cfg.Config.prefetchable_line report in
  let kernel =
    Trace.span "codegen.fingerprint" (fun () -> Driver.kernel_fingerprint compiled)
  in
  let warm =
    if not t.warm_start then []
    else
      Trace.span "search.warmstart" (fun () ->
          Ifko_search.Warmstart.seeds ~cfg ~report ~init
            ~feat:(Ifko_analysis.Report.features report)
            (donors ()))
  in
  c.warm_seeds <- c.warm_seeds + List.length warm;
  (* the strategy, with every probe answered from the recorded
     outcomes under the key the driver computed for it *)
  let fidelity = tuned.Driver.fidelity_used in
  let key p =
    Store.probe_key ~kernel ~machine:cfg.Config.name
      ~context:(Timer.context_name t.context) ~n:t.n ~seed:t.seed ~check:false
      ?fidelity:(match fidelity with Timer.Full -> None | Timer.Sampled -> Some "sampled")
      ~params:(Params.canonical p) ()
  in
  let probed = ref [] in
  let probe p =
    match Hashtbl.find_opt h.memo (key p) with
    | Some o ->
      probed := (p, o) :: !probed;
      score o
    | None ->
      mismatch c "%s: replay probed %s, which the tune never did" label
        (Params.canonical p);
      neg_infinity
  in
  let make ~init_perf =
    match t.strategy with
    | Driver.Linesearch ->
      Ifko_search.Linesearch.strategy ~warm ~cfg ~report ~init ~init_perf ()
    | Driver.Surrogate ->
      Ifko_search.Surrogate.strategy ~warm ~seed:t.seed ~cfg ~report ~init ~init_perf ()
  in
  let r =
    Trace.span "search.strategy" (fun () -> Ifko_search.Strategy.run ~init ~make probe)
  in
  let s = r.Ifko_search.Strategy.best in
  if
    not
      (Params.canonical s = Params.canonical tuned.Driver.best_params
      && bits r.Ifko_search.Strategy.best_perf = bits tuned.Driver.ifko_mflops
      && bits r.Ifko_search.Strategy.start_perf = bits tuned.Driver.fko_mflops
      && r.Ifko_search.Strategy.evaluations = tuned.Driver.evaluations
      && r.Ifko_search.Strategy.probes_to_best = tuned.Driver.probes_to_best)
  then mismatch c "%s: strategy replay differs from the tune" label;
  c.evaluations <- c.evaluations + tuned.Driver.evaluations;
  c.probes_to_best <- c.probes_to_best + tuned.Driver.probes_to_best;
  c.cc_hits <- c.cc_hits + h.codecache.Codecache.hits;
  c.cc_lookups <-
    c.cc_lookups + h.codecache.Codecache.hits
    + h.codecache.Codecache.misses;
  (* every probed point through the layers in evaluation order, as
     the driver ran it: each distinct point transformed, tested and
     decoded once (the driver's codecache; the strategy may probe
     one point twice), every probe timed, on a fresh checkpoint
     cache *)
  let ckpt = Ifko_sim.Ckpt.create ~cfg () in
  let tckpt = (ckpt, Printf.sprintf "%s|seed=%d" kernel t.seed) in
  let spec = Workload.timer_spec t.id ~seed:t.seed in
  let measure ~fidelity cf =
    Timer.measure_ext ~fidelity ~ckpt:tckpt ~cfg ~context:t.context ~spec ~n:t.n cf
  in
  let candidates = Hashtbl.create 64 in
  let candidate p =
    let k = Params.canonical p in
    match Hashtbl.find_opt candidates k with
    | Some r -> r
    | None ->
      let r =
        match
          Trace.span "transform.pipeline" (fun () ->
              match Driver.compile_point ~cfg compiled p with
              | f -> Some f
              | exception _ -> None)
        with
        | None ->
          c.illegal <- c.illegal + 1;
          Codecache.Illegal
        | Some func when not (Check.reference t.id ~seed:t.seed func) ->
          c.test_failed <- c.test_failed + 1;
          Codecache.Test_failed
        | Some func ->
          Codecache.Compiled
            (func, Trace.span "sim.exec_compile" (fun () -> Ifko_sim.Exec.compile func))
      in
      Hashtbl.add candidates k r;
      r
  in
  let time cf =
    Timer.profile_reset ();
    Timer.profile_enable true;
    let m = Trace.span "sim.timer" (fun () -> measure ~fidelity cf) in
    Timer.profile_enable false;
    let a = Timer.profile () in
    c.exec_s <- c.exec_s +. a.Timer.at_exec_s;
    c.env_s <- c.env_s +. a.Timer.at_env_s;
    c.restore_s <- c.restore_s +. a.Timer.at_restore_s;
    c.arena_s <- c.arena_s +. a.Timer.at_arena_s;
    c.timer_elems <- c.timer_elems +. float_of_int m.Timer.m_elems;
    if m.Timer.m_fidelity = Timer.Sampled then c.sampled <- c.sampled + 1;
    if m.Timer.m_fallback <> None then c.fallbacks <- c.fallbacks + 1;
    c.timed <- c.timed + 1;
    let cycles = m.Timer.m_cycles in
    Store.Timed
      { cycles; mflops = Timer.mflops ~cfg ~flops_per_n:(flops_per_n t) ~n:t.n ~cycles }
  in
  (* a sampled tune first times its default point both ways *)
  (if t.fidelity = Timer.Sampled then
     match candidate init with
     | Codecache.Compiled (_, cf) ->
       Trace.span "sim.calibration" (fun () ->
           ignore (measure ~fidelity:Timer.Full cf);
           ignore (measure ~fidelity:Timer.Sampled cf))
     | Codecache.Illegal | Codecache.Test_failed -> ());
  List.iteri
    (fun i (p, recorded) ->
      let outcome =
        match candidate p with
        | Codecache.Illegal -> Store.Illegal
        | Codecache.Test_failed -> Store.Test_failed
        | Codecache.Compiled (_, cf) -> time cf
      in
      if not (same_outcome outcome recorded) then
        mismatch c "%s: probe %d (%s) replayed as %s, recorded %s" label (i + 1)
          (Params.canonical p) (outcome_name outcome) (outcome_name recorded))
    (List.rev !probed);
  let st = Ifko_sim.Ckpt.stats ckpt in
  c.ckpt_hits <- c.ckpt_hits + st.Ifko_sim.Ckpt.hits;
  c.ckpt_lookups <-
    c.ckpt_lookups + st.Ifko_sim.Ckpt.hits + st.Ifko_sim.Ckpt.misses
    + st.Ifko_sim.Ckpt.disk_loads

(* ---------- one row of the paper reproduction ---------- *)

(* Which public call produced each method's number of an [Eval] row. *)
type row = {
  row_mflops : (string * float) list;  (** gcc, icc, icc+prof, ATLAS, FKO, ifko *)
  row_candidate : string;
  row_verified : bool;
  row_tuned : Driver.tuned;
}

let row_of_result (r : Ifko_eval.Eval.kernel_result) =
  { row_mflops =
      List.map (fun (m, v) -> (Ifko_eval.Eval.method_name m, v)) r.Ifko_eval.Eval.mflops;
    row_candidate = r.Ifko_eval.Eval.atlas_candidate;
    row_verified = r.Ifko_eval.Eval.verified;
    row_tuned = r.Ifko_eval.Eval.tuned }

let same_row a b =
  List.length a.row_mflops = List.length b.row_mflops
  && List.for_all2
       (fun (m, x) (m', y) -> m = m' && bits x = bits y)
       a.row_mflops b.row_mflops
  && a.row_candidate = b.row_candidate
  && a.row_verified = b.row_verified
  && same_tuned a.row_tuned b.row_tuned

(* One [Eval] row composed from its public parts the way
   [Eval.run_kernel] composes it — the three compiler models, ATLAS's
   search, and the ifko tune, each method's kernel checked — with the
   tune hooked.  Returns the row and the hooked tune for [replay]. *)
let composed_row t =
  let cfg = t.cfg and context = t.context and n = t.n and seed = t.seed and id = t.id in
  let spec = Workload.timer_spec id ~seed in
  let compiled_for_cc =
    if id.Defs.routine = Defs.Iamax then Hil_sources.compile_straightforward id
    else t.compiled
  in
  let verified = ref true in
  let check func = if not (Check.reference id ~seed func) then verified := false in
  let mflops_of cycles = Timer.mflops ~cfg ~flops_per_n:(flops_per_n t) ~n ~cycles in
  let models =
    List.map2
      (fun meth m ->
        Trace.span "baselines.model" (fun () ->
            let func = Ifko_baselines.Compiler_model.compile m ~cfg ~context compiled_for_cc in
            check func;
            (Ifko_eval.Eval.method_name meth,
             mflops_of (Timer.measure ~cfg ~context ~spec ~n func))))
      Ifko_eval.Eval.[ Gcc_ref; Icc_ref; Icc_prof ]
      Ifko_baselines.Compiler_model.all
  in
  let atlas =
    Trace.span "baselines.atlas" (fun () ->
        Ifko_baselines.Atlas_search.select ~cfg ~context ~n ~seed id)
  in
  check atlas.Ifko_baselines.Atlas_search.func;
  let h = Trace.span "eval.tune" (fun () -> hooked_tune t) in
  check h.tuned.Driver.best_func;
  let row =
    { row_mflops =
        models
        @ Ifko_eval.Eval.
            [ (method_name Atlas, atlas.Ifko_baselines.Atlas_search.mflops);
              (method_name Fko, h.tuned.Driver.fko_mflops);
              (method_name Ifko, h.tuned.Driver.ifko_mflops) ];
      row_candidate = atlas.Ifko_baselines.Atlas_search.candidate;
      row_verified = !verified;
      row_tuned = h.tuned }
  in
  (row, h)
