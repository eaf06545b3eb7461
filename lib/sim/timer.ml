open Ifko_machine

type context = Out_of_cache | In_l2

let context_name = function Out_of_cache -> "out-of-cache" | In_l2 -> "in-L2"

let context_of_name = function
  | "oc" -> Ok Out_of_cache
  | "l2" -> Ok In_l2
  | other -> Error (Printf.sprintf "unknown context %S (oc|l2)" other)

type spec = { make_env : int -> Env.t; ret_fsize : Instr.fsize }

type fidelity = Full | Sampled

let fidelity_name = function Full -> "full" | Sampled -> "sampled"

let fidelity_of_string = function
  | "full" -> Ok Full
  | "sampled" -> Ok Sampled
  | other -> Error (Printf.sprintf "unknown fidelity %S (full|sampled)" other)

type fallback =
  | No_array_arguments
  | Tiny_n
  | In_l2_context
  | Non_increasing_cycles
  | No_steady_state

let fallback_name = function
  | No_array_arguments -> "no-array-arguments"
  | Tiny_n -> "tiny-n"
  | In_l2_context -> "in-l2-context"
  | Non_increasing_cycles -> "non-increasing-cycles"
  | No_steady_state -> "no-steady-state"

type measurement = {
  m_cycles : float;
  m_fidelity : fidelity;  (** the fidelity that actually produced the cycles *)
  m_fallback : fallback option;
      (** why a [Sampled] request fell back to full fidelity, if it did *)
  m_elems : int;  (** elements simulated (the work proxy) *)
}

(* Setup-vs-simulate wall-time attribution.  The sampled fidelity's
   value proposition is wall-clock per measurement, and its budget is
   dominated by fixed setup (machine acquire, environment materialize,
   warm-state restore) rather than simulation — this instrument makes
   that split visible in `bench --profile` / `ifko sim --profile` so a
   floor regression shows up as numbers, not vibes.  Off by default:
   when disabled the clock reads are skipped entirely.  Accumulation is
   mutex-guarded (measurements run concurrently on the probe pool). *)
type attribution = {
  at_arena_s : float;  (** taking machines from the pool and putting them back *)
  at_env_s : float;  (** building, materializing and scrubbing environments *)
  at_restore_s : float;  (** snapshot capture/restore and warm-state plumbing *)
  at_exec_s : float;  (** inside [Exec.exec] — the actual simulation *)
  at_measures : int;  (** measurements attributed *)
}

let attribution_zero =
  { at_arena_s = 0.0; at_env_s = 0.0; at_restore_s = 0.0; at_exec_s = 0.0; at_measures = 0 }

let prof_on = ref false
let prof_mutex = Mutex.create ()
let prof_acc = ref attribution_zero

let profile_enable b = prof_on := b

let profile_reset () =
  Mutex.lock prof_mutex;
  prof_acc := attribution_zero;
  Mutex.unlock prof_mutex

let profile () =
  Mutex.lock prof_mutex;
  let v = !prof_acc in
  Mutex.unlock prof_mutex;
  v

(* One measurement's wall time, per bucket.  [timed] charges [f]'s self
   time — its elapsed time minus whatever nested [timed] calls charged
   meanwhile — so the sampled warm-up's exec inside the warm-state
   restore is counted once. *)
let b_arena = 0
let b_env = 1
let b_restore = 2
let b_exec = 3

let timed tally bucket f =
  if not !prof_on then f ()
  else begin
    let inner () = Array.fold_left ( +. ) 0.0 tally in
    let t0 = Unix.gettimeofday () and inner0 = inner () in
    let v = f () in
    tally.(bucket) <- tally.(bucket) +. (Unix.gettimeofday () -. t0 -. (inner () -. inner0));
    v
  end

(* Run [f] on a fresh tally and fold it into the accumulator as exactly
   one measurement, however many simulations [f] ran. *)
let profiled f =
  let tally = Array.make 4 0.0 in
  let v = f tally in
  if !prof_on then begin
    Mutex.lock prof_mutex;
    let a = !prof_acc in
    prof_acc :=
      {
        at_arena_s = a.at_arena_s +. tally.(b_arena);
        at_env_s = a.at_env_s +. tally.(b_env);
        at_restore_s = a.at_restore_s +. tally.(b_restore);
        at_exec_s = a.at_exec_s +. tally.(b_exec);
        at_measures = a.at_measures + 1;
      };
    Mutex.unlock prof_mutex
  end;
  v

(* The one definition of a timing context's starting state: caches
   flushed and, in L2, every line of [env]'s arrays installed in L2. *)
let prepare ~cfg ~context ms env =
  Memsys.reset ms ~flush:true;
  match context with
  | Out_of_cache -> ()
  | In_l2 ->
    Env.iter_array_lines env ~line:cfg.Config.l2.Config.line (fun addr ->
        Memsys.warm_l2 ms ~addr)

(* Machines are borrowed from a pool keyed by their whole [Config.t],
   compared structurally, so two configs share instances exactly when
   every parameter agrees.  A Memsys.t for a 1 MB L2 is ~300 KB of arrays: building
   one per measurement would dominate the sampled path's fixed floor.
   The pool does not clean a returned machine: every timer path begins
   by resetting ([prepare]) or restoring into it, which it must do even
   on a fresh one to pick its context, and [Memsys.reset ~flush] and
   [Memsys.restore] are bit-identical to fresh construction.  So a
   machine left mid-simulation by a trap is safe to return too. *)
let max_pooled_machines = 32

let machines : (Config.t, Memsys.t) Ifko_par.Freelist.t =
  Ifko_par.Freelist.create ~limit:max_pooled_machines ()

let borrow_machine cfg =
  match Ifko_par.Freelist.take machines cfg with
  | Some ms -> ms
  | None -> Memsys.create cfg

let return_machine ms = Ifko_par.Freelist.put machines (Memsys.config ms) ms

(* One charged window: a timed run of [cf] over [env].  Out of cache it
   is charged the writeback debt it created — the debt after the run
   minus the debt before it, which is 0.0 on a freshly prepared
   (flushed) machine and the warm-up's leftover on a resumed window; for
   working sets beyond L2 those writebacks happen inside the timed
   window anyway, and charging them uniformly gives the steady-state
   slope.  In L2 the working set stays resident: raw cycles. *)
let charged ~cfg ~context ~spec ms cf env =
  match context with
  | In_l2 -> (Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.ret_fsize cf env).Exec.cycles
  | Out_of_cache ->
    let debt () = Memsys.pending_writeback_cost ms in
    let before = debt () in
    let r = Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.ret_fsize cf env in
    r.Exec.cycles +. debt () -. before

(* One simulation of the whole problem at [n].  The machine is borrowed
   from the machine pool and the environment's buffer from the
   zeroed-buffer pool; [prepare] puts them into a known state, so
   both are bit-identical to fresh construction.  With [ckpt], the in-L2
   context is restored from (or captured into) the checkpoint cache
   instead of re-installed — observably identical either way.  Out of
   cache the flushed state IS the checkpoint: there is nothing cheaper
   to restore, so [ckpt] is not consulted. *)
let run_once tally ?ckpt ~cfg ~context ~spec ~n cf =
  let env = timed tally b_env (fun () -> spec.make_env n) in
  let ms = timed tally b_arena (fun () -> borrow_machine cfg) in
  Fun.protect
    ~finally:(fun () ->
      timed tally b_arena (fun () -> return_machine ms);
      timed tally b_env (fun () -> Env.release env))
    (fun () ->
      timed tally b_restore (fun () ->
          match (context, ckpt) with
          | In_l2, Some (c, kernel) ->
            let key = Ckpt.key c ~kernel ~context:(context_name In_l2) ~n in
            ignore
              (Ckpt.with_state c ~key ms ~warm:(fun ms -> prepare ~cfg ~context ms env)
                : bool)
          | Out_of_cache, _ | In_l2, None -> prepare ~cfg ~context ms env);
      timed tally b_exec (fun () -> charged ~cfg ~context ~spec ms cf env))

let exact ~cfg ~context ~spec ~n func =
  profiled (fun tally -> run_once tally ~cfg ~context ~spec ~n (Exec.compile func))

(* Problem sizes for the steady-state extrapolation: multiples of the
   number of elements in a 4 KiB page for either precision, so page
   effects (hardware-prefetcher retraining) appear in both samples at
   the same per-element rate. *)
let sample_lo = 4096
let sample_hi = 8192

(* Full fidelity: one run of the whole problem in L2 or when it is
   small; out of cache beyond [sample_hi], two runs and a linear
   extrapolation from their steady-state slope.  Returns the cycles and
   the elements simulated. *)
let full tally ?ckpt ~cfg ~context ~spec ~n cf =
  let once n = run_once tally ?ckpt ~cfg ~context ~spec ~n cf in
  if context = In_l2 || n <= sample_hi then (once n, n)
  else begin
    let c_lo = once sample_lo and c_hi = once sample_hi in
    let rate = (c_hi -. c_lo) /. float_of_int (sample_hi - sample_lo) in
    (c_hi +. (rate *. float_of_int (n - sample_hi)), sample_lo + sample_hi)
  end

(* Sampled fidelity simulates short windows instead of the full
   extrapolation pair:

     - a {e warm-up} window of [warm_pages] pages, which drives the
       memory system to steady state (trained prefetch streams,
       saturated bus backlog, populated MSHRs) — run once per (kernel,
       machine, context) and shared across every probe point and every
       problem size through the [Ckpt] cache;
     - {e detailed} windows that continue the warm-up as one long run
       (restore + [Memsys.rebase] + [Env.advance]) and yield the steady
       per-element rate;
     - a {e cold} window of one page, anchoring the candidate's own
       start-up intercept (prologue, cold-start latencies).

   A resumed window restarts with an empty CPU pipeline — and, when
   the warm state was created by a *different* candidate (probe points
   of one tune share the warm-up), without this candidate's own
   prefetch streams in flight — so its raw cycles overshoot the steady
   rate by a code-dependent resume transient.  The transient is
   cancelled exactly the way the full path cancels cold-start cost:
   two resumed windows of [win_pages] and [rate_pages] pages restart
   from the *same* restored state running the *same* code, so their
   prefixes are cycle-identical (the simulator is deterministic) and
   the difference [c2 - c1] prices exactly the trailing
   [rate_pages - win_pages] pages at the candidate's own steady rate —
   whatever state it resumed from and whoever created that state.  The
   short window's excess over that rate, [tr = c1 - rate * n_win], is
   the transient; it is memoized per (warm state, code digest) in the
   [Ckpt], so later measurements of the same candidate (other problem
   sizes, later probes) need only the short window: [c_win = c1' - tr].
   At the memoized values this equals the miss path's [c1 - tr]
   bit-for-bit.

   All windows are measured in pages of the kernel's widest array
   element, so every window is a whole-page multiple for every array
   (element sizes are powers of two), and the rate span is an even
   page count so period-two page alternation (write-allocate phase
   effects) averages out; the span is several pages long because the
   steady rate itself has page-scale structure (prefetch retraining at
   every page crossing) that a short span samples too coarsely.  The
   estimate is [c_cold + rate * (n - lo)].  Per-probe simulated work
   against [sample_lo + sample_hi] for the full path: [lo + n_win]
   elements once the candidate's transient is known,
   [lo + n_win + n_rate] the first time a candidate is seen, plus the
   warm-up when the snapshot itself is fresh — [m_elems] reports what
   each call actually ran. *)
let page_bytes = 4096
let warm_pages = 5
let win_pages = 2
let rate_pages = 10

(* A pristine image of the spec's environment at [m_n] elements, shared
   through the checkpoint cache per (kernel, size) when one is
   available.  Every window environment is materialized from a master,
   so per-copy binding-table iteration order is identical in all of
   them — the in-L2 install order depends on it. *)
let master ?ckpt spec m_n =
  let build () =
    let e = spec.make_env m_n in
    let m = Env.capture e in
    Env.release e;
    m
  in
  match ckpt with
  | Some (c, kernel) -> Ckpt.master_memo c ~key:(Printf.sprintf "master:%s:%d" kernel m_n) build
  | None -> build ()

(* (elements per page of the widest array element, bytes of array data
   per element) — the sampled path's whole dependence on the kernel's
   operand shapes, read off the bindings of a tiny master (memoized per
   kernel when a checkpoint cache is available). *)
let geometry ?ckpt spec =
  List.fold_left
    (fun (pe, bpe) (_, b) ->
      match b with
      | Env.Array_arg { fsize; _ } ->
        let bytes = Instr.fsize_bytes fsize in
        (max pe (page_bytes / bytes), bpe + bytes)
      | Env.Int_arg _ | Env.Fp_arg _ -> (pe, bpe))
    (0, 0)
    (Env.master_bindings (master ?ckpt spec 8))

(* The warm-state key is independent of the target [n]: the window
   layout depends only on the kernel's page geometry, so one warm-up
   serves every probe point and every problem size of a tune.  The
   context string distinguishes the out-of-cache scheme from the
   cache-resident in-L2 scheme — their warm states are different
   objects. *)
let sampled_ckpt_context ~context ~n_warm ~n_rate =
  match context with
  | Out_of_cache -> Printf.sprintf "out-of-cache-sampled:warm=%d:rate=%d" n_warm n_rate
  | In_l2 -> Printf.sprintf "in-l2-sampled:warm=%d:rate=%d" n_warm n_rate

(* The sampled windows on one borrowed machine, [pe] elements to the
   page.  Returns the cold window's cycles, the transient-corrected
   short window's cycles and the elements simulated.  Every window
   environment spans warm-up + the longest window, so the arrays sit at
   identical addresses in all of them — the warm state's tags line up
   with the windows, and the two resumed windows share a cycle-identical
   prefix. *)
let windows tally ?ckpt ~cfg ~context ~spec ~pe cf =
  let n_warm = warm_pages * pe and n_win = win_pages * pe and n_rate = rate_pages * pe in
  let span = n_warm + n_rate in
  let master_lo = master ?ckpt spec pe and master_span = master ?ckpt spec span in
  (* keyed by the warm state and the candidate's code — NOT by n *)
  let snap_key c kernel =
    Ckpt.key c ~kernel ~context:(sampled_ckpt_context ~context ~n_warm ~n_rate) ~n:span
  in
  let transient_key c kernel = snap_key c kernel ^ ":" ^ Exec.digest cf in
  let materialize m = timed tally b_env (fun () -> Env.materialize m) in
  let release e = timed tally b_env (fun () -> Env.release e) in
  let ms = timed tally b_arena (fun () -> borrow_machine cfg) in
  let run env = timed tally b_exec (fun () -> charged ~cfg ~context ~spec ms cf env) in
  (* a resumed window continues the warm state, charged only for the
     writeback debt it adds on top of the warm-up's *)
  let window ~elems =
    let env = materialize master_span in
    Env.advance env ~elems:n_warm;
    Env.set_counts env elems;
    let c = run env in
    release env;
    c
  in
  (* the scheme's steady state: the context's own starting state
     (flushed, or the span's lines resident in L2), then [n_warm]
     elements on top for pipeline/stream steady state *)
  let warm ms =
    let env = materialize master_span in
    Env.set_counts env n_warm;
    prepare ~cfg ~context ms env;
    timed tally b_exec (fun () ->
        ignore (Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.ret_fsize cf env : Exec.result));
    Memsys.rebase ms;
    release env
  in
  let body () =
    (* the candidate's own first page under the context's cold state *)
    let c_cold =
      let env = materialize master_lo in
      prepare ~cfg ~context ms env;
      let c = run env in
      release env;
      c
    in
    let warmed =
      timed tally b_restore (fun () ->
          match ckpt with
          | None ->
            warm ms;
            true
          | Some (c, kernel) -> Ckpt.with_state c ~key:(snap_key c kernel) ms ~warm)
    in
    let elems = pe + if warmed then n_warm else 0 in
    match
      Option.bind ckpt (fun (c, kernel) ->
          Ckpt.find_transient c ~key:(transient_key c kernel))
    with
    | Some tr -> (c_cold, window ~elems:n_win -. tr, elems + n_win)
    | None ->
      (* First sight of this candidate over this warm state: the short
         and the rate window from private copies of it.  Their shared
         prefix cancels in [c2 - c1]; the transient is whatever the
         short window cost beyond that rate.  [c1 - tr] — not
         [rate * n_win] — so the hit path reproduces it bit-for-bit. *)
      let s = timed tally b_restore (fun () -> Memsys.snapshot ms) in
      let c1 = window ~elems:n_win in
      timed tally b_restore (fun () -> Memsys.restore ms s);
      let c2 = window ~elems:n_rate in
      let rate = (c2 -. c1) /. float_of_int (n_rate - n_win) in
      let tr = c1 -. (rate *. float_of_int n_win) in
      Option.iter (fun (c, kernel) -> Ckpt.set_transient c ~key:(transient_key c kernel) tr) ckpt;
      (c_cold, c1 -. tr, elems + n_win + n_rate)
  in
  Fun.protect ~finally:(fun () -> timed tally b_arena (fun () -> return_machine ms)) body

(* Sampled fidelity, or the escape hatch that refuses it.  The in-L2
   context is served by the cache-resident window scheme as long as the
   full working set fits in L2 — beyond that the full in-L2 measurement
   is itself a capacity-thrashing run the steady-hit window cannot
   represent.  The steady rate and the cold first page agree within a
   small factor for anything the linear model can represent: the cold
   page adds start-up cost, while a saturated steady state can out-cost
   an idle-bus cold page by a bounded margin; outside that band the
   windows did not measure the regime the kernel actually runs in. *)
let sampled tally ?ckpt ~cfg ~context ~spec ~n cf =
  let pe, bytes_per_elem = geometry ?ckpt spec in
  if pe <= 0 then Error No_array_arguments
  else if n < 2 * (warm_pages + rate_pages) * pe then Error Tiny_n
  else if context = In_l2 && n * bytes_per_elem > cfg.Config.l2.Config.size then
    Error In_l2_context
  else begin
    let c_cold, c_win, elems = windows tally ?ckpt ~cfg ~context ~spec ~pe cf in
    if not (c_cold > 0.0 && c_win > 0.0) then Error Non_increasing_cycles
    else begin
      let rate = c_win /. float_of_int (win_pages * pe) in
      let q = rate *. float_of_int pe /. c_cold in
      if q < 0.3 || q > 2.5 then Error No_steady_state
      else Ok (c_cold +. (rate *. float_of_int (n - pe)), elems)
    end
  end

let measure_ext ?(fidelity = Full) ?ckpt ~cfg ~context ~spec ~n cf =
  profiled (fun tally ->
      let of_full fallback =
        let m_cycles, m_elems = full tally ?ckpt ~cfg ~context ~spec ~n cf in
        { m_cycles; m_fidelity = Full; m_fallback = fallback; m_elems }
      in
      match fidelity with
      | Full -> of_full None
      | Sampled -> (
        match sampled tally ?ckpt ~cfg ~context ~spec ~n cf with
        | Ok (m_cycles, m_elems) -> { m_cycles; m_fidelity = Sampled; m_fallback = None; m_elems }
        | Error reason -> of_full (Some reason)))

let measure ?fidelity ?ckpt ~cfg ~context ~spec ~n func =
  (measure_ext ?fidelity ?ckpt ~cfg ~context ~spec ~n (Exec.compile func)).m_cycles

let error_budget = 0.01

type verdict =
  | Within of float
  | Exceeds of float
  | Fell_back of fallback
  | Broken_fallback of fallback

type calibration = { cal_full : measurement; cal_sampled : measurement; cal_verdict : verdict }

let calibrate ?ckpt ~cfg ~context ~spec ~n cf =
  let cal_full = measure_ext ?ckpt ~cfg ~context ~spec ~n cf in
  let cal_sampled = measure_ext ~fidelity:Sampled ?ckpt ~cfg ~context ~spec ~n cf in
  let cal_verdict =
    match cal_sampled.m_fallback with
    | Some r -> if cal_sampled.m_cycles = cal_full.m_cycles then Fell_back r else Broken_fallback r
    | None ->
      let err =
        Float.abs (cal_sampled.m_cycles -. cal_full.m_cycles) /. Float.max 1e-9 cal_full.m_cycles
      in
      if err <= error_budget then Within err else Exceeds err
  in
  { cal_full; cal_sampled; cal_verdict }

let mflops ~cfg ~flops_per_n ~n ~cycles =
  Ifko_util.Stats.mflops
    ~flops:(flops_per_n *. float_of_int n)
    ~cycles ~ghz:cfg.Config.ghz
