(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json declares the same names (a test holds the two equal)
   and adds the regression bound of each end-to-end metric. *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better }

let workloads = [ "repro"; "tune_fast"; "tune_par"; "serve_hot" ]

let m name unit better = { name; unit; better }

(* What a user of the tool sees, reported by every workload of an
   untraced run. *)
let end_to_end =
  [ m "setup_s" "s" Lower;
    m "ops_per_s" "ops/s" Higher;
    m "op_p50_ms" "ms" Lower;
    m "op_p90_ms" "ms" Lower;
    m "tuned_mflops_geomean" "MFLOPS" Higher;
    m "peak_rss_mb" "MB" Lower ]

(* Where an operation's time goes, reported by every workload of a
   traced run (0 where a layer does not take part in the workload). *)
let per_layer =
  [ m "hil.parse_us" "us/kernel" Lower;
    m "codegen.lower_us" "us/kernel" Lower;
    m "analysis.report_ms" "ms/op" Lower;
    m "transform.pipeline_ms" "ms/op" Lower;
    m "transform.calls" "count/op" Lower;
    m "transform.illegal_frac" "ratio" Lower;
    m "sim.verify_ms" "ms/op" Lower;
    m "sim.verify_calls" "count/op" Lower;
    m "sim.verify_env_ms" "ms/op" Lower;
    m "sim.verify_expect_ms" "ms/op" Lower;
    m "sim.test_failed_frac" "ratio" Lower;
    m "sim.exec_compile_ms" "ms/op" Lower;
    m "sim.exec_compile_calls" "count/op" Lower;
    m "sim.timer_ms" "ms/op" Lower;
    m "sim.timer_calls" "count/op" Lower;
    m "sim.timer_us_per_call" "us" Lower;
    m "sim.elems_per_call" "elems" Lower;
    m "sim.sampled_frac" "ratio" Higher;
    m "sim.fallbacks" "count/op" Lower;
    m "sim.exec_ms" "ms/op" Lower;
    m "sim.env_ms" "ms/op" Lower;
    m "sim.restore_ms" "ms/op" Lower;
    m "machine.arena_ms" "ms/op" Lower;
    m "sim.calibration_ms" "ms/op" Lower;
    m "sim.ckpt_hit_frac" "ratio" Higher;
    m "search.strategy_ms" "ms/op" Lower;
    m "search.evaluations" "count/op" Lower;
    m "search.probes_to_best" "count/op" Lower;
    m "search.timed_frac" "ratio" Higher;
    m "search.probe_ms" "ms/probe" Lower;
    m "search.codecache_hit_frac" "ratio" Higher;
    m "search.warmstart_ms" "ms/op" Lower;
    m "search.warm_seeds" "count/op" Higher;
    m "store.open_ms" "ms/op" Lower;
    m "store.cached_us" "us/probe" Lower;
    m "store.appends_per_op" "count/op" Lower;
    m "store.bytes_per_op" "bytes/op" Lower;
    m "store.hit_frac" "ratio" Higher;
    m "par.pool_ms" "ms/op" Lower;
    m "par.overlap" "ratio" Higher;
    m "par.probe_inflation" "ratio" Lower;
    m "runtime.minor_gcs_per_op" "count/op" Lower;
    m "runtime.major_gcs_per_op" "count/op" Lower;
    m "runtime.alloc_mb_per_op" "MB/op" Lower;
    m "serve.rtt_p50_us" "us" Lower;
    m "serve.rtt_p99_us" "us" Lower;
    m "serve.proto_us" "us/req" Lower;
    m "serve.transport_us" "us/req" Lower;
    m "serve.frontend_us" "us/req" Lower;
    m "serve.lookup_us" "us/req" Lower;
    m "serve.queue_us" "us/req" Lower;
    m "serve.residual_us" "us/req" Lower;
    m "serve.hit_frac" "ratio" Higher;
    m "serve.joins" "count" Lower;
    m "serve.errors" "count" Lower;
    m "baselines.atlas_ms" "ms/op" Lower;
    m "baselines.model_ms" "ms/op" Lower;
    m "eval.tune_share" "ratio" Lower;
    m "trace.ops" "count" Higher;
    m "trace.coverage" "ratio" Higher;
    m "trace.overhead_pct" "%" Lower ]

let find name = List.find (fun x -> x.name = name) (end_to_end @ per_layer)

let better_name = function Higher -> "higher" | Lower -> "lower"

(* ---------- BENCHMARK.json ---------- *)

module J = Ifko_store.Store.Json

type declared = {
  workloads : string list;
  e2e : (metric * float) list;  (** with its bound *)
  layers : metric list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The store's JSON reader takes one line; a pretty-printed file is one
   line once its line breaks are blanks. *)
let parse_json text =
  J.parse (String.map (function '\n' | '\r' -> ' ' | c -> c) text)

let load_declared path =
  let fields = parse_json (read_file path) in
  let list k = match List.assoc_opt k fields with Some (J.A l) -> l | _ -> [] in
  let obj = function J.O f -> f | _ -> failwith (path ^ ": expected an object") in
  let metric f =
    match (J.str f "name", J.str f "unit", J.str f "better") with
    | Some name, Some unit, Some b ->
      { name; unit; better = (if b = "higher" then Higher else Lower) }
    | _ -> failwith (path ^ ": a metric lacks name, unit or better")
  in
  { workloads =
      List.filter_map (fun w -> J.str (obj w) "name") (list "workloads");
    e2e =
      List.map
        (fun v ->
          let f = obj v in
          (metric f, Option.value ~default:0.0 (J.num f "bound")))
        (list "end_to_end");
    layers = List.map (fun v -> metric (obj v)) (list "per_layer") }
