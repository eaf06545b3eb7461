(* Per-layer metrics of a traced tune workload, from the spans of its
   hooked operations and their replays plus the replay's counters.

   Each traced operation [op] leaves two span trees: the hooked run
   (root "op") and its replay (root "replay").  A span counts towards a
   layer when the replay made it, or when the hooked run made it
   outside any probe computation (the store calls around a tune, an
   evaluation row's baselines and checks, the store side of the
   [?cache] hook) — work the replay does not redo.  Layer times are
   self times, so the counted spans partition the work without double
   counting, and [trace.coverage] compares their sum with the hooked
   operations' wall time. *)

let probe_layers =
  [ "transform.pipeline"; "sim.verify"; "sim.verify_env"; "sim.verify_expect";
    "sim.exec_compile"; "sim.timer" ]

(* Spans that only frame other spans, never a layer's own work. *)
let frames = [ "op"; "replay"; "eval.tune"; "search.compute"; "frontend" ]

type sums = {
  self : (string, float) Hashtbl.t;  (** counted self time by span name *)
  replayed : (string, float) Hashtbl.t;  (** the replay trees' share of [self] *)
  dur : (string, float) Hashtbl.t;  (** total duration by span name, all spans *)
  count : (string, int) Hashtbl.t;  (** counted spans by name *)
  all : (string, int) Hashtbl.t;  (** all spans by name *)
  mutable counted : float;  (** sum of counted self times *)
  mutable busy : float;  (** hooked wall, plus probe time run in parallel *)
  mutable root_wall : float;  (** hooked wall *)
  mutable probe_wall : float;  (** [search.probe] durations *)
  mutable probe_misses : int;  (** probes that computed *)
  mutable probe_miss_wall : float;
}

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
let cnt s k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt s.count k))
let all_count s k = Option.value ~default:0 (Hashtbl.find_opt s.all k)

let sum_spans spans =
  let s =
    { self = Hashtbl.create 32; replayed = Hashtbl.create 32; dur = Hashtbl.create 32;
      count = Hashtbl.create 32; all = Hashtbl.create 32;
      counted = 0.0; busy = 0.0; root_wall = 0.0; probe_wall = 0.0; probe_misses = 0;
      probe_miss_wall = 0.0 }
  in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  (* the root of a span, and whether it lies inside a probe computation *)
  let rec place (sp : Trace.span) =
    match Hashtbl.find_opt by_id sp.Trace.parent with
    | None -> (sp.Trace.name, false)
    | Some p ->
      let root, inside = place p in
      (root, inside || p.Trace.name = "search.compute")
  in
  let computed = Hashtbl.create 256 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.name = "search.compute" then Hashtbl.replace computed sp.Trace.parent ())
    spans;
  List.iter
    (fun ((sp : Trace.span), self) ->
      let name = sp.Trace.name and d = sp.Trace.t1 -. sp.Trace.t0 in
      add s.dur name d;
      bump s.all name;
      let root, inside = place sp in
      if name = "op" && sp.Trace.parent = 0 then s.root_wall <- s.root_wall +. d;
      if name = "search.probe" then begin
        s.probe_wall <- s.probe_wall +. d;
        if Hashtbl.mem computed sp.Trace.id then begin
          s.probe_misses <- s.probe_misses + 1;
          s.probe_miss_wall <- s.probe_miss_wall +. d
        end
      end;
      if (root = "replay" || root = "op") && (not inside) && not (List.mem name frames) then begin
        add s.self name self;
        if root = "replay" then add s.replayed name self;
        bump s.count name;
        s.counted <- s.counted +. self
      end)
    (Trace.self_times spans);
  (* busy time of the hooked ops: wall plus the part of probe time that
     ran in parallel with other probes of the same op *)
  let probes = Hashtbl.create 64 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.name = "search.probe" then begin
        let l =
          match Hashtbl.find_opt probes sp.Trace.op with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add probes sp.Trace.op l;
            l
        in
        l := (sp.Trace.t0, sp.Trace.t1) :: !l
      end)
    spans;
  Hashtbl.iter
    (fun _ l ->
      let total = List.fold_left (fun a (x, y) -> a +. (y -. x)) 0.0 !l in
      s.busy <- s.busy +. total -. Trace.covered ~t0:neg_infinity ~t1:infinity !l)
    probes;
  s.busy <- s.busy +. s.root_wall;
  s

(* Parse and lower run per kernel, outside any operation. *)
let frontend s =
  let per_kernel name = 1e6 *. Stats.ratio (get s.dur name) (float_of_int (all_count s name)) in
  [ ("hil.parse_us", per_kernel "hil.parse"); ("codegen.lower_us", per_kernel "codegen.lower") ]

(* The metrics, as (name, value), per replayed operation where the
   unit says so; [extra] supplies the ones a workload measures itself. *)
let metrics ~(c : Replay.counters) ~jobs ~overhead_pct ~extra spans =
  let s = sum_spans spans in
  let n = float_of_int (max 1 c.Replay.ops) in
  let ms name = 1e3 *. get s.self name /. n in
  let per_op name = cnt s name /. n in
  let replay_probe = List.fold_left (fun a k -> a +. get s.replayed k) 0.0 probe_layers in
  let compute_wall = get s.dur "search.compute" in
  (* on a parallel op the probe layers ran inflated by contention:
     count them at the wall time they really took *)
  let counted = if jobs > 1 then s.counted -. replay_probe +. compute_wall else s.counted in
  let calls k = cnt s k in
  let tested = calls "transform.pipeline" -. float_of_int c.Replay.illegal in
  frontend s
  @ [ ("analysis.report_ms", ms "analysis.report");
    ("transform.pipeline_ms", ms "transform.pipeline");
    ("transform.calls", per_op "transform.pipeline");
    ("transform.illegal_frac",
     Stats.ratio (float_of_int c.Replay.illegal) (calls "transform.pipeline"));
    ("sim.verify_ms", ms "sim.verify");
    ("sim.verify_calls", per_op "sim.verify");
    ("sim.verify_env_ms", ms "sim.verify_env");
    ("sim.verify_expect_ms", ms "sim.verify_expect");
    ("sim.test_failed_frac", Stats.ratio (float_of_int c.Replay.test_failed) tested);
    ("sim.exec_compile_ms", ms "sim.exec_compile");
    ("sim.exec_compile_calls", per_op "sim.exec_compile");
    ("sim.timer_ms", ms "sim.timer");
    ("sim.timer_calls", per_op "sim.timer");
    ("sim.timer_us_per_call", 1e6 *. Stats.ratio (get s.self "sim.timer") (calls "sim.timer"));
    ("sim.elems_per_call", Stats.ratio c.Replay.timer_elems (calls "sim.timer"));
    ("sim.sampled_frac", Stats.ratio (float_of_int c.Replay.sampled) (calls "sim.timer"));
    ("sim.fallbacks", float_of_int c.Replay.fallbacks /. n);
    ("sim.exec_ms", 1e3 *. c.Replay.exec_s /. n);
    ("sim.env_ms", 1e3 *. c.Replay.env_s /. n);
    ("sim.restore_ms", 1e3 *. c.Replay.restore_s /. n);
    ("machine.arena_ms", 1e3 *. c.Replay.arena_s /. n);
    ("sim.calibration_ms", ms "sim.calibration");
    ("sim.ckpt_hit_frac",
     Stats.ratio (float_of_int c.Replay.ckpt_hits) (float_of_int c.Replay.ckpt_lookups));
    ("search.strategy_ms", ms "search.strategy");
    ("search.evaluations", float_of_int c.Replay.evaluations /. n);
    ("search.probes_to_best", float_of_int c.Replay.probes_to_best /. n);
    ("search.timed_frac",
     Stats.ratio (float_of_int c.Replay.timed) (float_of_int c.Replay.evaluations));
    ("search.probe_ms", 1e3 *. Stats.ratio s.probe_miss_wall (float_of_int s.probe_misses));
    ("search.codecache_hit_frac",
     Stats.ratio (float_of_int c.Replay.cc_hits) (float_of_int c.Replay.cc_lookups));
    ("search.warmstart_ms", ms "search.warmstart");
    ("search.warm_seeds", float_of_int c.Replay.warm_seeds /. n);
    ("store.open_ms", ms "store.open");
    ("store.cached_us", 1e6 *. Stats.ratio (get s.self "search.probe") (calls "search.probe"));
    ("par.pool_ms", ms "par.pool");
    ("par.overlap", Stats.ratio s.probe_wall s.root_wall);
    ("par.probe_inflation", Stats.ratio compute_wall replay_probe);
    ("baselines.atlas_ms", ms "baselines.atlas");
    ("baselines.model_ms", ms "baselines.model");
    ("eval.tune_share", Stats.ratio (get s.dur "eval.tune") s.root_wall);
    ("trace.ops", float_of_int c.Replay.ops);
    ("trace.coverage", Stats.ratio counted s.busy);
    ("trace.overhead_pct", overhead_pct) ]
  @ extra
