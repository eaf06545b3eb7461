(* Single-flight memo of compiled probe candidates.

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
   the probe store's.

   Single-flight ({!Ifko_par.Flight}): concurrent misses on one key run
   the compute once, with the other callers blocking until the result
   lands.  A compute that raises (a [Passcheck.Pass_failed] must fail
   the tune, never be cached) reaches its own caller only, and a waiter
   takes the key over. *)

type result =
  | Illegal
  | Test_failed
  | Compiled of Cfg.func * Ifko_sim.Exec.compiled

type t = {
  tbl : (string, result) Hashtbl.t;  (* finished compilations *)
  mutex : Mutex.t;
  flight : result Ifko_par.Flight.t;
  mutable n_hit : int;
  mutable n_miss : int;
}

type stats = { hits : int; misses : int }

(* The table's bound: a backstop for daemon lifetimes, far above any
   one tune's candidate count. *)
let max_entries = 4096

let create () =
  {
    tbl = Hashtbl.create 64;
    mutex = Mutex.create ();
    flight = Ifko_par.Flight.create ();
    n_hit = 0;
    n_miss = 0;
  }

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

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let lookup t key =
  locked t (fun () ->
      let r = Hashtbl.find_opt t.tbl key in
      if Option.is_some r then t.n_hit <- t.n_hit + 1;
      r)

(* Every call counts exactly one hit or miss.  In-flight keys live in
   the flight table, so the cap only ever drops finished entries. *)
let find_or_compile t ~key f =
  match lookup t key with
  | Some r -> r
  | None ->
    let r, joined =
      Ifko_par.Flight.run t.flight ~key (fun () ->
          (* a flight that landed between the lookup and here *)
          match lookup t key with
          | Some r -> r
          | None ->
            locked t (fun () -> t.n_miss <- t.n_miss + 1);
            let r = f () in
            locked t (fun () ->
                if Hashtbl.length t.tbl >= max_entries then Hashtbl.reset t.tbl;
                Hashtbl.replace t.tbl key r);
            r)
    in
    if joined then locked t (fun () -> t.n_hit <- t.n_hit + 1);
    r

let stats t = locked t (fun () -> { hits = t.n_hit; misses = t.n_miss })
