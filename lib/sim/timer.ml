open Ifko_machine

type context = Out_of_cache | In_l2

let context_name = function Out_of_cache -> "out-of-cache" | In_l2 -> "in-L2"

type spec = { make_env : int -> Env.t; ret_fsize : Instr.fsize }

type fidelity = Full | Sampled

let fidelity_name = function Full -> "full" | Sampled -> "sampled"

let fidelity_of_string = function
  | "full" -> Some Full
  | "sampled" -> Some Sampled
  | _ -> None

type measurement = {
  m_cycles : float;
  m_fidelity : fidelity;  (** the fidelity that actually produced the cycles *)
  m_fallback : string option;
      (** why a [Sampled] request fell back to full fidelity, if it did *)
  m_elems : int;  (** elements simulated per repetition (the work proxy) *)
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
  at_arena_s : float;  (** acquiring/releasing pooled machines *)
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

let[@inline] clk () = if !prof_on then Unix.gettimeofday () else 0.0

let prof_add ~arena ~env ~restore ~exec =
  if !prof_on then begin
    Mutex.lock prof_mutex;
    let a = !prof_acc in
    prof_acc :=
      {
        at_arena_s = a.at_arena_s +. arena;
        at_env_s = a.at_env_s +. env;
        at_restore_s = a.at_restore_s +. restore;
        at_exec_s = a.at_exec_s +. exec;
        at_measures = a.at_measures + 1;
      };
    Mutex.unlock prof_mutex
  end

(* One simulation of pre-decoded code: the kernel is compiled once per
   candidate (by [measure]/[exact]) and reused across contexts, sample
   sizes and reps.  The machine is borrowed from the geometry-keyed
   arena pool (and put into a known state by the reset/restore below —
   the pool's contract) and the environment's backing buffer comes
   from the zeroed-buffer pool; both are bit-identical to fresh
   construction.  With [ckpt], the in-L2 warm-up state is restored
   from (or captured into) the checkpoint cache instead of re-running
   the warm loop — observably identical either way. *)
let run_once ?ckpt ~cfg ~context ~spec ~n cf =
  let t0 = clk () in
  let env = spec.make_env n in
  let t1 = clk () in
  let ms = Arena.acquire cfg in
  let t2 = clk () in
  let cleanup () =
    Arena.release ms;
    Env.release env
  in
  match
    (match context with
    | Out_of_cache ->
      (* The flushed-cache state IS the out-of-cache checkpoint: there
         is nothing cheaper to restore, so [ckpt] is not consulted. *)
      Memsys.reset ms ~flush:true
    | In_l2 ->
      let warm ms =
        Memsys.reset ms ~flush:true;
        Env.iter_array_lines env ~line:cfg.Config.l2.Config.line (fun addr ->
            Memsys.warm_l2 ms ~addr);
        0.0
      in
      (match ckpt with
      | None -> ignore (warm ms)
      | Some (c, kernel) ->
        let key = Ckpt.key c ~kernel ~context:(context_name In_l2) ~n in
        ignore (Ckpt.with_state c ~key ms ~warm : float * bool)));
    let t3 = clk () in
    let result = Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.ret_fsize cf env in
    let t4 = clk () in
    let cycles =
      match context with
      | Out_of_cache -> result.Exec.cycles +. Memsys.pending_writeback_cost ms
      | In_l2 -> result.Exec.cycles
    in
    (t3, t4, cycles)
  with
  | exception e ->
    cleanup ();
    raise e
  | t3, t4, cycles ->
    cleanup ();
    let t5 = clk () in
    prof_add ~arena:(t2 -. t1) ~env:(t1 -. t0 +. (t5 -. t4)) ~restore:(t3 -. t2)
      ~exec:(t4 -. t3);
    cycles

let exact ~cfg ~context ~spec ~n func = run_once ~cfg ~context ~spec ~n (Exec.compile func)

(* Problem sizes for the steady-state extrapolation: multiples of the
   number of elements in a 4 KiB page for either precision, so page
   effects (hardware-prefetcher retraining) appear in both samples at
   the same per-element rate. *)
let sample_lo = 4096
let sample_hi = 8192

(* Sampled fidelity simulates short windows instead of the full
   extrapolation pair:

     - a {e warm-up} window of [sampled_warm_pages] pages, which drives
       the memory system to steady state (trained prefetch streams,
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
   two resumed windows of [sampled_win_pages] and [sampled_rate_pages]
   pages restart from the *same* restored state running the *same*
   code, so their prefixes are cycle-identical (the simulator is
   deterministic) and the difference [c2 - c1] prices exactly the
   trailing [sampled_rate_pages - sampled_win_pages] pages at the
   candidate's own steady rate — whatever state it resumed from and
   whoever created that state.  The short window's excess over that
   rate, [tr = c1 - rate * n_win], is the transient; it is memoized
   per (warm state, code digest) in the [Ckpt], so later measurements
   of the same candidate (reps, other problem sizes) need only the
   short window: [c_win = c1' - tr].  At the memoized values this
   equals the miss path's [c1 - tr] bit-for-bit.

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
let sampled_warm_pages = 5
let sampled_win_pages = 2
let sampled_rate_pages = 10

(* (elements per page of the widest array element, bytes of array data
   per element) — the sampled path's whole dependence on the kernel's
   operand shapes, derivable from any tiny environment.  Costs an env
   build, so the per-kernel result is memoized in the checkpoint cache
   when one is available. *)
let sampled_geometry_raw spec =
  let env = spec.make_env 8 in
  let g =
    List.fold_left
      (fun (pe, bpe) (_, b) ->
        match b with
        | Env.Array_arg { fsize; _ } ->
          (max pe (page_bytes / Instr.fsize_bytes fsize), bpe + Instr.fsize_bytes fsize)
        | _ -> (pe, bpe))
      (0, 0) (Env.bindings env)
  in
  Env.release env;
  g

let sampled_geometry ?ckpt spec =
  match ckpt with
  | Some (c, kernel) ->
    let packed =
      Ckpt.int_memo c
        ~key:("sampled-geometry:" ^ kernel)
        (fun () ->
          let pe, bpe = sampled_geometry_raw spec in
          (* pe <= page_bytes, bpe a few dozen bytes: both fit a pack *)
          (pe lsl 20) lor bpe)
    in
    (packed lsr 20, packed land ((1 lsl 20) - 1))
  | None -> sampled_geometry_raw spec

let sampled_window_lo spec = fst (sampled_geometry_raw spec)

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

let measure_ext ?(reps = 1) ?(fidelity = Full) ?ckpt ~cfg ~context ~spec ~n cf =
  let once n = run_once ?ckpt ~cfg ~context ~spec ~n cf in
  let full_rep () =
    match context with
    | In_l2 -> (once n, n)
    | Out_of_cache ->
      if n <= sample_hi then (once n, n)
      else begin
        let c_lo = once sample_lo and c_hi = once sample_hi in
        let rate = (c_hi -. c_lo) /. float_of_int (sample_hi - sample_lo) in
        (c_hi +. (rate *. float_of_int (n - sample_hi)), sample_lo + sample_hi)
      end
  in
  let full ?fallback () =
    let c0, elems = full_rep () in
    let rec repeat best k =
      if k = 0 then best else repeat (Float.min best (fst (full_rep ()))) (k - 1)
    in
    {
      m_cycles = repeat c0 (max 0 (reps - 1));
      m_fidelity = Full;
      m_fallback = fallback;
      m_elems = elems;
    }
  in
  match fidelity with
  | Full -> full ()
  | Sampled -> (
    let pe, bytes_per_elem = sampled_geometry ?ckpt spec in
    let lo = pe in
    let n_warm = sampled_warm_pages * pe in
    let n_win = sampled_win_pages * pe in
    let n_rate = sampled_rate_pages * pe in
    (* Confidence checks — the bit-identity escape hatch.  Any failure
       means the steady-state model is not trustworthy for this
       measurement, and it silently reverts to full fidelity with the
       reason recorded.  The in-L2 context is served by the
       cache-resident window scheme below as long as the full working
       set actually fits in L2 — beyond that the "in-L2" full
       measurement is itself a capacity-thrashing run that the
       steady-hit window cannot represent, so it falls back. *)
    let span = n_warm + n_rate in
    if pe <= 0 then full ~fallback:"no-array-arguments" ()
    else if n < 2 * span then full ~fallback:"tiny-n" ()
    else if context = In_l2 && n * bytes_per_elem > cfg.Config.l2.Config.size then
      full ~fallback:"in-l2-context" ()
    else begin
      let l2_line = cfg.Config.l2.Config.line in
      (* Every environment spans warm-up + the longest window so the
         arrays sit at identical addresses in all of them — the warm
         state's tags line up with the windows, and the two windows
         share a cycle-identical prefix.  The spec's env is built once
         and captured as a pristine master (per (kernel, size), shared
         through the checkpoint cache when one is available); each use
         below materializes a copy into a pooled zeroed buffer, which
         is byte-identical to rebuilding — [Env.advance] consumes a
         copy, and the warm-up mutates its own copy's output arrays.
         Everything (including the no-ckpt path) goes through masters
         so per-copy binding-table iteration order is identical in all
         of them — the in-L2 warm loop's install order depends on
         it. *)
      let build_master m_n () =
        let e = spec.make_env m_n in
        let m = Env.capture e in
        Env.release e;
        m
      in
      let masters =
        lazy
          (match ckpt with
          | Some (c, kernel) ->
            ( Ckpt.master_memo c
                ~key:(Printf.sprintf "master:%s:%d" kernel lo)
                (build_master lo),
              Ckpt.master_memo c
                ~key:(Printf.sprintf "master:%s:%d" kernel span)
                (build_master span) )
          | None -> (build_master lo (), build_master span ()))
      in
      (* The transient memo is keyed by the warm state and the
         candidate's compiled code — NOT by n, so it serves every
         problem size of a tune, like the snapshot itself. *)
      let snap_key c kernel =
        Ckpt.key c ~kernel ~context:(sampled_ckpt_context ~context ~n_warm ~n_rate) ~n:span
      in
      let code_digest = Exec.digest cf in
      let sampled_rep () =
        let master_lo, master_span = Lazy.force masters in
        (* per-rep wall-time attribution, folded into the global
           accumulator once at the end *)
        let a_arena = ref 0.0
        and a_env = ref 0.0
        and a_restore = ref 0.0
        and a_exec = ref 0.0 in
        let t0 = clk () in
        (* one borrowed memory system serves every window: the cold
           window runs on the flushed state (exactly [run_once]'s
           setup), then the warm state is restored over it *)
        let ms = Arena.acquire cfg in
        a_arena := clk () -. t0;
        let materialize m =
          let t = clk () in
          let e = Env.materialize m in
          a_env := !a_env +. (clk () -. t);
          e
        in
        let release e =
          let t = clk () in
          Env.release e;
          a_env := !a_env +. (clk () -. t)
        in
        let exec_in env =
          let t = clk () in
          let r = Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.ret_fsize cf env in
          a_exec := !a_exec +. (clk () -. t);
          r
        in
        (* A resumed window continues the warm state; the restored
           state carries the warm-up's dirty lines, so the out-of-cache
           scheme charges the window only for the writeback debt it
           adds.  The in-L2 scheme uses raw cycles like the in-L2 full
           path (which never charges writebacks: the working set stays
           resident). *)
        let window ms ~elems =
          let env = materialize master_span in
          Env.advance env ~elems:n_warm;
          Env.set_counts env elems;
          let c =
            match context with
            | Out_of_cache ->
              let wb0 = Memsys.pending_writeback_cost ms in
              let r = exec_in env in
              r.Exec.cycles +. Memsys.pending_writeback_cost ms -. wb0
            | In_l2 ->
              let r = exec_in env in
              r.Exec.cycles
          in
          release env;
          c
        in
        (* Warm-up: drive the memory system to the scheme's steady
           state.  Out-of-cache: run [n_warm] elements from a flushed
           state (trained prefetch streams, saturated bus).  In-L2:
           install the span environment's lines first — the window's
           working set is then resident, exactly as the full in-L2
           path's whole working set is — and run [n_warm] elements on
           top for pipeline/stream steady state. *)
        let warm ms =
          let wenv = materialize master_span in
          Env.set_counts wenv n_warm;
          Memsys.reset ms ~flush:true;
          (match context with
          | Out_of_cache -> ()
          | In_l2 ->
            Env.iter_array_lines wenv ~line:l2_line (fun addr -> Memsys.warm_l2 ms ~addr));
          ignore (exec_in wenv);
          Memsys.rebase ms;
          release wenv;
          0.0
        in
        let body () =
          let elems = ref lo in
          (* Cold intercept window: the candidate's own first page,
             under the scheme's own cold state (flushed caches
             out-of-cache; resident lines but cold pipeline in-L2). *)
          let c_cold =
            let env = materialize master_lo in
            Memsys.reset ms ~flush:true;
            (match context with
            | Out_of_cache -> ()
            | In_l2 ->
              Env.iter_array_lines env ~line:l2_line (fun addr -> Memsys.warm_l2 ms ~addr));
            let c =
              match context with
              | Out_of_cache ->
                let r = exec_in env in
                r.Exec.cycles +. Memsys.pending_writeback_cost ms
              | In_l2 -> (exec_in env).Exec.cycles
            in
            release env;
            c
          in
          let t = clk () in
          let sub0 = !a_exec +. !a_env in
          (match ckpt with
          | None ->
            ignore (warm ms : float);
            elems := !elems + n_warm
          | Some (c, kernel) ->
            let _, warmed = Ckpt.with_state c ~key:(snap_key c kernel) ms ~warm in
            if warmed then elems := !elems + n_warm);
          (* the warm closure's own exec/env time is already counted in
             those buckets; keep only the remainder as restore time *)
          a_restore := !a_restore +. (clk () -. t) -. (!a_exec +. !a_env -. sub0);
          let transient =
            match ckpt with
            | Some (c, kernel) ->
              Ckpt.find_transient c ~key:(snap_key c kernel ^ ":" ^ code_digest)
            | None -> None
          in
          let c_win =
            match transient with
            | Some tr ->
              elems := !elems + n_win;
              window ms ~elems:n_win -. tr
            | None ->
              (* First sight of this candidate over this warm state:
                 run the short window and the longer rate window from
                 private copies of it.  Their shared prefix cancels in
                 [c2 - c1], leaving the steady rate over
                 [n_rate - n_win] elements; the transient is whatever
                 the short window cost beyond that rate. *)
              let ts = clk () in
              let s = Memsys.snapshot ms in
              a_restore := !a_restore +. (clk () -. ts);
              let c1 = window ms ~elems:n_win in
              let ts = clk () in
              Memsys.restore ms s;
              a_restore := !a_restore +. (clk () -. ts);
              let c2 = window ms ~elems:n_rate in
              elems := !elems + n_win + n_rate;
              let rate = (c2 -. c1) /. float_of_int (n_rate - n_win) in
              let tr = c1 -. (rate *. float_of_int n_win) in
              (match ckpt with
              | Some (c, kernel) ->
                Ckpt.set_transient c
                  ~key:(snap_key c kernel ^ ":" ^ code_digest)
                  tr
              | None -> ());
              (* computed as [c1 - tr] — not [rate * n_win] — so the
                 hit path's float arithmetic reproduces it
                 bit-for-bit *)
              c1 -. tr
          in
          if not (c_cold > 0.0 && c_win > 0.0) then Error "non-increasing-cycles"
          else begin
            let rate = c_win /. float_of_int n_win in
            (* The steady rate and the cold first page agree within a
               small factor for anything the linear model can
               represent: the cold page adds start-up cost, while a
               saturated steady state can out-cost an idle-bus cold
               page by a bounded margin.  Outside that band the window
               did not measure the regime the kernel actually runs
               in. *)
            let q = rate *. float_of_int lo /. c_cold in
            if q < 0.3 || q > 2.5 then Error "no-steady-state"
            else Ok (c_cold +. (rate *. float_of_int (n - lo)), !elems)
          end
        in
        match body () with
        | exception e ->
          Arena.release ms;
          raise e
        | v ->
          let t = clk () in
          Arena.release ms;
          a_arena := !a_arena +. (clk () -. t);
          prof_add ~arena:!a_arena ~env:!a_env ~restore:!a_restore ~exec:!a_exec;
          v
      in
      match sampled_rep () with
      | Error reason -> full ~fallback:reason ()
      | Ok (c0, e0) -> (
        let rec repeat best k =
          if k = 0 then Ok best
          else
            match sampled_rep () with
            | Error _ as e -> e
            | Ok (c, _) -> repeat (Float.min best c) (k - 1)
        in
        match repeat c0 (max 0 (reps - 1)) with
        | Error reason -> full ~fallback:reason ()
        | Ok c -> { m_cycles = c; m_fidelity = Sampled; m_fallback = None; m_elems = e0 })
    end)

let measure_compiled ?reps ?fidelity ?ckpt ~cfg ~context ~spec ~n cf =
  (measure_ext ?reps ?fidelity ?ckpt ~cfg ~context ~spec ~n cf).m_cycles

let measure ?reps ?fidelity ?ckpt ~cfg ~context ~spec ~n func =
  measure_compiled ?reps ?fidelity ?ckpt ~cfg ~context ~spec ~n (Exec.compile func)

let mflops ~cfg ~flops_per_n ~n ~cycles =
  Ifko_util.Stats.mflops
    ~flops:(flops_per_n *. float_of_int n)
    ~cycles ~ghz:cfg.Config.ghz
