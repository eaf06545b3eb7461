(* The three tune workloads (serve_hot lives in Serve_hot) and the
   measurement loops they share.

   All load is closed loop from one caller: an operation starts when
   the previous one has returned.  A pass runs every kind of operation
   once (each kernel, or each evaluation row), in a fixed order. *)

open Ifko_blas
open Ifko_machine
module Driver = Ifko_search.Driver
module Store = Ifko_store.Store
module Timer = Ifko_sim.Timer

type opts = {
  seed : int;
  seconds : float;
  tmp : string;  (** scratch directory inside the checkout *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  spans : Trace.span list;  (** traced runs only *)
}

let now = Unix.gettimeofday

(* An untraced run measures at least this many operations, so that its
   p90 has ten samples beyond it, and whole passes, so that every run
   times the same mix of operations. *)
let min_ops = 100
let setup_reps = 3

(* Operation [i] of a run on seed [seed] runs on workload seed
   [1000 * seed + i]: no two operations, of one run or of runs on
   different seeds, share an input (runs stay under 1000 operations),
   and a run averages over as many inputs as it has operations — a
   surrogate search's length depends on its seed. *)
let op_seed ~seed i = (1000 * seed) + i

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* How a workload's set-up is timed.  A set-up of seconds is made
   [setup_reps] times before the operations ([Before], with the median
   time).  A set-up of a millisecond would time only the host's speed
   in that instant (it switches between speeds every few seconds), so it
   is made once more after every operation ([Between]) and setup_s is
   the median, over five stretches of the run, of the stretch's mean. *)
type setup = Before of float | Between of (unit -> unit)

let setups ?(teardown = ignore) f =
  let rec go k times prev =
    Option.iter teardown prev;
    let dt, s = timed f in
    if k = setup_reps then (s, Before (Stats.median (dt :: times)))
    else go (k + 1) (dt :: times) (Some s)
  in
  go 1 [] None

let stretches = 5

let setup_s = function
  | Before t, _ -> t
  | Between _, samples ->
    let a = Array.of_list (List.rev samples) in
    let cut k = k * Array.length a / stretches in
    Stats.median
      (List.init stretches (fun k ->
           Stats.mean (Array.to_list (Array.sub a (cut k) (cut (k + 1) - cut k)))))

(* Peak resident set of a process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> nan
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
                kb /. 1024.0)
          | _ -> find ()
        in
        find ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let copy_file src dst =
  let data = Metrics.read_file src in
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let failure what e =
  Printf.eprintf "e2e: %s: %s\n%!" what (Printexc.to_string e);
  false

let lower_all () = List.map (fun id -> (id, Hil_sources.compile id)) Defs.all
let kernel i = List.nth Defs.all (i mod List.length Defs.all)

(* ---------- untraced ---------- *)

type op_out = { ok : bool; mflops : float list (** winners, for the pass-0 geomean *) }

(* Run [op] on operation indices 0, 1, ... for at least [o.seconds] and
   [min_ops] operations, to the end of a pass.  [op i] returns the
   operation's wall time (the checks that follow it excluded) and its
   outcome. *)
let untraced o ~per_pass ~setup op =
  let walls = ref [] and failed = ref 0 and geo = ref [] and i = ref 0 in
  let resetups = ref [] in
  let t0 = now () in
  while now () -. t0 < o.seconds || !i < min_ops || !i mod per_pass <> 0 do
    let s0 = now () in
    let wall, out =
      try op !i
      with e -> (now () -. s0, { ok = failure (Printf.sprintf "op %d" !i) e; mflops = [] })
    in
    walls := wall :: !walls;
    if not out.ok then incr failed;
    if !i < per_pass then geo := out.mflops @ !geo;
    (match setup with Between f -> resetups := fst (timed f) :: !resetups | Before _ -> ());
    incr i
  done;
  let a = Stats.sorted !walls in
  { correct = !failed = 0;
    attempted = !i;
    failed = !failed;
    metrics =
      [ ("setup_s", setup_s (setup, !resetups));
        ("ops_per_s", float_of_int !i /. List.fold_left ( +. ) 0.0 !walls);
        ("op_p50_ms", 1e3 *. Stats.percentile a 50.0);
        ("op_p90_ms", 1e3 *. Stats.percentile a 90.0);
        ("tuned_mflops_geomean", Stats.geomean !geo);
        ("peak_rss_mb", vm_hwm_mb "self") ];
    spans = [] }

(* ---------- traced ---------- *)

let gc_words () =
  let g = Gc.quick_stat () in
  ( float_of_int g.Gc.minor_collections,
    float_of_int g.Gc.major_collections,
    g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words )

(* Parse and lower every BLAS kernel under spans: the per-kernel front
   end every workload pays in set-up (and the daemon per request). *)
let trace_frontend () =
  for _ = 1 to 20 do
    List.iter
      (fun id ->
        Trace.op_span 0 "frontend" (fun () ->
            let checked =
              Trace.span "hil.parse" (fun () ->
                  Ifko_hil.Typecheck.check (Ifko_hil.Parser.parse_kernel (Hil_sources.source id)))
            in
            Trace.span "codegen.lower" (fun () ->
                ignore (Driver.kernel_fingerprint (Ifko_codegen.Lower.lower checked)))))
      Defs.all
  done

(* Traced operations, until [o.seconds] have passed and at least
   [min_traced] ran.  Operation [i] runs twice on the same inputs:
   [plain i] untraced, as a user runs it, and [hooked i] under spans;
   [agree] holds the two to the same output, [ok] checks the plain
   output, and [replay] attributes the hooked run to the layers.  The
   two runs swap order every other operation, so neither always runs
   on the warmer heap; [before i] (untimed) precedes each. *)
let traced o ~min_traced ~jobs ~(c : Replay.counters) ?(extra = fun () -> [])
    ?(before = ignore) ~plain ~hooked ~agree ~ok ~replay () =
  Trace.on := true;
  Trace.reset ();
  trace_frontend ();
  let ratios = ref [] and failed = ref 0 and i = ref 0 in
  let minor = ref 0.0 and major = ref 0.0 and alloc = ref 0.0 in
  let run_plain i =
    before i;
    Trace.on := false;
    let m0, j0, w0 = gc_words () in
    let r = timed (fun () -> plain i) in
    let m1, j1, w1 = gc_words () in
    Trace.on := true;
    minor := !minor +. m1 -. m0;
    major := !major +. j1 -. j0;
    alloc := !alloc +. w1 -. w0;
    r
  in
  let run_hooked i =
    before i;
    timed (fun () -> Trace.op_span i "op" (fun () -> hooked i))
  in
  let t0 = now () in
  while now () -. t0 < o.seconds || !i < min_traced do
    let k = !i in
    let good =
      try
        let (pw, p), (hw, h) =
          if k mod 2 = 0 then
            let p = run_plain k in
            (p, run_hooked k)
          else
            let h = run_hooked k in
            (run_plain k, h)
        in
        ratios := (hw /. pw) :: !ratios;
        let known = List.length c.Replay.mismatches in
        if not (agree p h) then
          Replay.mismatch c "op %d: the hooked run differs from the plain one" k;
        Trace.op_span k "replay" (fun () -> replay k h);
        ok k p && List.length c.Replay.mismatches = known
      with e ->
        Trace.on := true;
        failure (Printf.sprintf "traced op %d" k) e
    in
    if not good then incr failed;
    incr i
  done;
  Trace.on := false;
  let n = float_of_int (max 1 !i) in
  let spans = Trace.collect () in
  let metrics =
    Layers.metrics ~c ~jobs
      ~overhead_pct:(100.0 *. (Stats.median !ratios -. 1.0))
      spans
      ~extra:
        (extra ()
        @ [ ("runtime.minor_gcs_per_op", !minor /. n);
            ("runtime.major_gcs_per_op", !major /. n);
            ("runtime.alloc_mb_per_op", !alloc *. float_of_int (Sys.word_size / 8) /. 1e6 /. n) ])
  in
  let mismatches = List.rev c.Replay.mismatches in
  List.iter (fun m -> Printf.eprintf "e2e: replay mismatch: %s\n%!" m) mismatches;
  { correct = !failed = 0 && mismatches = [];
    attempted = !i;
    failed = !failed;
    metrics;
    spans }

(* The tune's winner against the reference. *)
let winner_ok (t : Replay.tune_spec) (tuned : Driver.tuned) =
  Check.reference t.Replay.id ~seed:t.Replay.seed tuned.Driver.best_func

(* One untraced tune operation: its wall time and checked outcome. *)
let tune_op t f =
  let wall, tuned = timed f in
  (wall, { ok = winner_ok t tuned; mflops = [ tuned.Driver.ifko_mflops ] })

(* ---------- repro: the paper's own experiment ---------- *)

let studies =
  [ (Config.p4e, Timer.Out_of_cache, 80000);
    (Config.opteron, Timer.Out_of_cache, 80000);
    (Config.p4e, Timer.In_l2, 1024);
    (Config.opteron, Timer.In_l2, 1024) ]

(* The seven double-precision kernels in all four studies, kernel by
   kernel so that any prefix of a pass mixes the studies.  (All fourteen
   would make a pass of 11 s: fewer than three passes fit in a run, and
   a row's median over passes is what filters host noise.) *)
let repro_rows =
  Array.of_list
    (List.concat_map
       (fun id -> List.map (fun s -> (id, s)) studies)
       (List.filter (fun id -> id.Defs.prec = Instr.D) Defs.all))

let repro_spec lowered i ~seed =
  let id, (cfg, context, n) = repro_rows.(i mod Array.length repro_rows) in
  { Replay.id; compiled = List.assoc id lowered; cfg; context; n; seed;
    strategy = Driver.Linesearch; fidelity = Timer.Full; warm_start = false; jobs = 1 }

let repro_row (t : Replay.tune_spec) =
  timed (fun () ->
      match
        (Ifko_eval.Eval.run_study ~kernels:[ t.Replay.id ] ~cfg:t.Replay.cfg
           ~context:t.Replay.context ~n:t.Replay.n ~seed:t.Replay.seed ())
          .Ifko_eval.Eval.results
      with
      | [ r ] -> r
      | _ -> failwith "run_study returned other than one row")

let row_ok t (r : Ifko_eval.Eval.kernel_result) =
  r.Ifko_eval.Eval.verified && winner_ok t r.Ifko_eval.Eval.tuned

let repro o ~trace =
  let per_pass = Array.length repro_rows in
  let spec lowered i = repro_spec lowered i ~seed:(op_seed ~seed:o.seed i) in
  if not trace then
    let lowered = lower_all () in
    untraced o ~per_pass ~setup:(Between (fun () -> ignore (lower_all ()))) (fun i ->
        let t = spec lowered i in
        let wall, r = repro_row t in
        ( wall,
          { ok = row_ok t r;
            mflops = [ List.assoc Ifko_eval.Eval.Ifko r.Ifko_eval.Eval.mflops ] } ))
  else
    let lowered = lower_all () in
    let c = Replay.counters () in
    traced o ~min_traced:(per_pass / 2) ~jobs:1 ~c
      ~plain:(fun i -> snd (repro_row (spec lowered i)))
      ~hooked:(fun i -> Replay.composed_row (spec lowered i))
      ~agree:(fun r (row, _) -> Replay.same_row (Replay.row_of_result r) row)
      ~ok:(fun i r -> row_ok (spec lowered i) r)
      ~replay:(fun i (_, h) -> Replay.replay c (spec lowered i) h)
      ()

(* ---------- tune_fast: surrogate + sampled + warm start + store ---------- *)

let fast_n = 80000
let donor_n = 4000

(* The journal a returning user's store holds: line-search tunes of the
   double-precision kernels at a smaller N.  Its tune-level entries are
   what warm starts draw donors from. *)
let build_donors o ~path lowered =
  let st = Store.open_ ~seed:o.seed path in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      List.iter
        (fun id ->
          if id.Defs.prec = Instr.D then
            ignore
              (Replay.tune ~store:st
                 { Replay.id; compiled = List.assoc id lowered; cfg = Config.p4e;
                   context = Timer.Out_of_cache; n = donor_n; seed = o.seed;
                   strategy = Driver.Linesearch; fidelity = Timer.Full; warm_start = false;
                   jobs = 1 }
                : Driver.tuned))
        Defs.all)

let tune_fast o ~trace =
  let per_pass = List.length Defs.all in
  let donors = Filename.concat o.tmp "donors.jsonl" in
  let journal = Filename.concat o.tmp "tune.jsonl" in
  let setup () =
    let lowered = lower_all () in
    if Sys.file_exists donors then Sys.remove donors;
    build_donors o ~path:donors lowered;
    lowered
  in
  let spec lowered i =
    { Replay.id = kernel i; compiled = List.assoc (kernel i) lowered; cfg = Config.p4e;
      context = Timer.Out_of_cache; n = fast_n; seed = op_seed ~seed:o.seed i;
      strategy = Driver.Surrogate; fidelity = Timer.Sampled; warm_start = true; jobs = 1 }
  in
  (* each operation opens its own copy of the donor journal, as a fresh
     `ifko tune --store` run would *)
  let fresh_journal () = copy_file donors journal in
  let open_tune_close t =
    let st = Store.open_ ~seed:t.Replay.seed journal in
    let tuned = Replay.tune ~store:st t in
    Store.close st;
    tuned
  in
  if not trace then
    let lowered, setup = setups setup in
    untraced o ~per_pass ~setup (fun i ->
        let t = spec lowered i in
        fresh_journal ();
        tune_op t (fun () -> open_tune_close t))
  else
    let lowered = setup () in
    let donor_store = Store.open_ ~seed:o.seed donors in
    let c = Replay.counters () in
    let appends = ref 0 and bytes = ref 0 and hits = ref 0 and lookups = ref 0 in
    let extra () =
      let n = float_of_int (max 1 c.Replay.ops) in
      [ ("store.appends_per_op", float_of_int !appends /. n);
        ("store.bytes_per_op", float_of_int !bytes /. n);
        ("store.hit_frac", Stats.ratio (float_of_int !hits) (float_of_int !lookups)) ]
    in
    traced o ~min_traced:per_pass ~jobs:1 ~c ~extra
      ~before:(fun _ -> fresh_journal ())
      ~plain:(fun i -> open_tune_close (spec lowered i))
      ~hooked:(fun i ->
        let t = spec lowered i in
        let st = Trace.span "store.open" (fun () -> Store.open_ ~seed:t.Replay.seed journal) in
        let e0 = Store.entries st and b0 = Store.bytes st in
        let h = Replay.hooked_tune ~store:st t in
        appends := !appends + Store.entries st - e0;
        bytes := !bytes + Store.bytes st - b0;
        hits := !hits + Store.hits st;
        lookups := !lookups + Store.hits st + Store.misses st;
        Trace.span "store.close" (fun () -> Store.close st);
        h)
      ~agree:(fun tuned h -> Replay.same_tuned tuned h.Replay.tuned)
      ~ok:(fun i tuned -> winner_ok (spec lowered i) tuned)
      ~replay:(fun i h ->
        Replay.replay c (spec lowered i) h ~donors:(fun () ->
            Ifko_search.Warmstart.donors_of_store donor_store))
      ()

(* ---------- tune_par: in-L2 tunes on a two-domain pool ---------- *)

let par_jobs = 2

let tune_par o ~trace =
  let per_pass = List.length Defs.all in
  let spec lowered i =
    { Replay.id = kernel i; compiled = List.assoc (kernel i) lowered; cfg = Config.p4e;
      context = Timer.In_l2; n = 1024; seed = op_seed ~seed:o.seed i;
      strategy = Driver.Linesearch; fidelity = Timer.Full; warm_start = false; jobs = par_jobs }
  in
  if not trace then
    let lowered = lower_all () in
    untraced o ~per_pass ~setup:(Between (fun () -> ignore (lower_all ()))) (fun i ->
        let t = spec lowered i in
        tune_op t (fun () -> Replay.tune t))
  else
    let lowered = lower_all () in
    let c = Replay.counters () in
    traced o ~min_traced:per_pass ~jobs:par_jobs ~c
      ~plain:(fun i -> Replay.tune (spec lowered i))
      ~hooked:(fun i -> Replay.hooked_tune (spec lowered i))
      ~agree:(fun tuned h -> Replay.same_tuned tuned h.Replay.tuned)
      ~ok:(fun i tuned -> winner_ok (spec lowered i) tuned)
      ~replay:(fun i h -> Replay.replay c (spec lowered i) h)
      ()
