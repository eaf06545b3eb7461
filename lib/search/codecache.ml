(* Memo of compiled probe candidates.

   Producing a runnable candidate is three expensive steps — transform
   pipeline ([Pipeline.apply]), semantic test (reference-vs-candidate
   execution over several sizes), and decode ([Exec.compile]) — and
   the tuner repeats them for identical (kernel, params) pairs: the
   calibration point is recompiled by the first probe, a multi-size
   sweep recompiles every shared point per size, `--compare-fidelity`
   compiles each candidate once per fidelity, and concurrent serve
   tunes of one kernel compile the whole search trajectory once per
   tune.  The decoded closures are immutable (per-run state lives
   inside [Exec.exec]), so one compilation is safely shared across
   domains and across tunes.

   Keys must capture everything the outcome depends on: the kernel
   fingerprint, the machine (the pipeline consumes its line size), the
   canonical params, the per-pass-check flag, and the workload seed
   (the semantic test runs seeded workloads).  The provided compute
   function must be a pure function of that key — the same contract as
   the probe store's.  A compute that raises (a [Passcheck.Pass_failed]
   must fail the tune) is never cached ({!Ifko_par.Memo}). *)

type result =
  | Illegal
  | Test_failed
  | Compiled of Cfg.func * Ifko_sim.Exec.compiled

type t = (string, result) Ifko_par.Memo.t

type stats = Ifko_par.Memo.stats = { hits : int; misses : int; held : int }

(* a backstop for daemon lifetimes, far above any one tune's candidate
   count *)
let create () = Ifko_par.Memo.create ~limit:4096 ()

let key ~kernel ~machine ~params ~check ~seed =
  Ifko_store.Store.digest
    [
      "codecache";
      kernel;
      machine;
      params;
      (if check then "check" else "nocheck");
      string_of_int seed;
    ]

let find_or_compile t ~key f = Ifko_par.Memo.get t key f
let stats = Ifko_par.Memo.stats
