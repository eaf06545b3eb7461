(* serve_hot: warm requests to an `ifko serve` daemon.

   The daemon is a separate process, forked before this process starts
   any thread or domain, so that it does not share an OCaml runtime lock
   with the load generator.  Set-up starts it on a Unix socket (jobs 1,
   4 shards, fresh store directory) and tunes every work point once.
   The measured phase is closed loop from [clients] connections on as
   many threads: zipf(1.1) over the work points, 70% lookups and 30%
   tunes, so every request is answered from the daemon's result cache. *)

open Ifko_blas
module Server = Ifko_serve.Server
module Client = Ifko_serve.Client
module Proto = Ifko_serve.Proto
module Shard_store = Ifko_serve.Shard_store
module Json = Ifko_store.Store.Json
module Driver = Ifko_search.Driver

let clients = 2
let shards = 4
let lookup_share = 0.7
let check_every = 100 (* replies whose winner is re-checked: 1% *)
let zipf_s = 1.1
let now = Unix.gettimeofday

(* ---------- the daemon process ---------- *)

type daemon = { pid : int; listen : Server.listen; store_dir : string }

let live : daemon list ref = ref []

let reap pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* Kill every daemon still running and wait for it: the benchmark's
   exit path, whatever the exit. *)
let kill_all () =
  let ds = !live in
  live := [];
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid ~timeout:5.0)
    ds

let spawn ~dir =
  let listen = `Unix (Filename.concat dir "daemon.sock") in
  let store_dir = Filename.concat dir "store" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let parent = Unix.getppid () in
        (* a daemon whose benchmark died (even by SIGKILL) exits too *)
        ignore
          (Thread.create
             (fun () ->
               while Unix.getppid () = parent do
                 Thread.delay 0.2
               done;
               Unix._exit 3)
             ());
        Server.run { (Server.default_config ~store_dir listen) with Server.jobs = 1; shards };
        0
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    let d = { pid; listen; store_dir } in
    live := d :: !live;
    let deadline = now () +. 30.0 in
    let rec wait () =
      match Client.connect listen with
      | c -> Client.close c
      | exception Unix.Unix_error _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
        | 0, _ -> failwith "serve_hot: the daemon did not start listening"
        | _ ->
          live := List.filter (fun x -> x != d) !live;
          failwith "serve_hot: the daemon exited at start")
    in
    wait ();
    d

(* Graceful stop, killing the daemon if it does not exit in time. *)
let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Client.with_client d.listen (fun c -> ignore (Client.shutdown c)) with _ -> ());
    reap d.pid ~timeout:5.0
  end

let stat d =
  match Client.with_client d.listen Client.stat with
  | Ok fields -> fields
  | Error e -> failwith ("serve_hot: stat: " ^ e)

let stat_num fields path =
  let rec go fields = function
    | [ k ] -> Option.value ~default:0.0 (Json.num fields k)
    | k :: rest -> ( match List.assoc_opt k fields with Some (Json.O f) -> go f rest | _ -> 0.0)
    | [] -> 0.0
  in
  go fields path

(* ---------- work points and requests ---------- *)

(* Every BLAS kernel at each N, P4E, out of cache, line search, in zipf
   rank order.  One N keeps the three set-ups of a run near 12 s: a
   cold tune through the daemon costs about 0.3 s. *)
let ns = [ 400 ]

let points ~seed =
  Array.of_list
    (List.concat_map
       (fun id ->
         List.map
           (fun n ->
             ( id,
               { (Proto.default_args ~kernel:(Hil_sources.source id)) with
                 Proto.n;
                 seed;
                 flops_per_n = Defs.flops_per_n id.Defs.routine } ))
           ns)
       Defs.all)

let zipf_cdf k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let pick cdf rng =
  let x = Ifko_util.Rng.uniform rng in
  let rec find i = if i >= Array.length cdf - 1 || x < cdf.(i) then i else find (i + 1) in
  find 0

let same_reply (a : Proto.tune_reply) (b : Proto.tune_reply) =
  a.Proto.best = b.Proto.best
  && Int64.bits_of_float a.Proto.mflops = Int64.bits_of_float b.Proto.mflops
  && Int64.bits_of_float a.Proto.fko_mflops = Int64.bits_of_float b.Proto.fko_mflops
  && a.Proto.evaluations = b.Proto.evaluations

(* ---------- set-up ---------- *)

type state = {
  d : daemon;
  dir : string;
  pts : (Defs.kernel_id * Proto.tune_args) array;
  replies : Proto.tune_reply array;  (** the prefill's reply per point *)
}

let setup_count = ref 0

let setup (o : Workloads.opts) () =
  incr setup_count;
  let dir = Filename.concat o.Workloads.tmp (Printf.sprintf "serve%d" !setup_count) in
  Sys.mkdir dir 0o700;
  let d = spawn ~dir in
  let pts = points ~seed:o.Workloads.seed in
  let replies =
    Client.with_client d.listen (fun c ->
        Array.map
          (fun (_, a) ->
            match Client.tune c a with
            | Ok r -> r
            | Error e -> failwith ("serve_hot: prefill tune: " ^ e))
          pts)
  in
  { d; dir; pts; replies }

let teardown s =
  stop s.d;
  Workloads.rm_rf s.dir

(* ---------- the measured phase ---------- *)

type log = {
  mutable lat : float array;  (** round trips, seconds *)
  mutable t0s : float array;  (** send times *)
  mutable n : int;
  mutable hits : int;
  mutable errors : int;
  mutable wrong : int;  (** replies that differ from the prefill's *)
  mutable mix : (int * bool) list;  (** (point, is-tune), newest first *)
  mutable sampled : int list;  (** points of the replies to re-check *)
  mutable recorded : (float * float) list;  (** spans of traced requests *)
}

let push log t0 dt =
  if log.n = Array.length log.lat then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.0) in
    log.lat <- grow log.lat;
    log.t0s <- grow log.t0s
  end;
  log.lat.(log.n) <- dt;
  log.t0s.(log.n) <- t0;
  log.n <- log.n + 1

(* A traced run alternates 0.2 s slices without and with a span
   recorded per request, so the overhead compares neighbouring slices
   and drift in the host or the daemon cancels. *)
let slice_s = 0.2

let client s ~seed ~start ~deadline ~traced ci =
  let rng = Ifko_util.Rng.create (seed + (7919 * (ci + 1))) in
  let cdf = zipf_cdf (Array.length s.pts) in
  let log =
    { lat = Array.make 65536 0.0; t0s = Array.make 65536 0.0; n = 0; hits = 0; errors = 0;
      wrong = 0; mix = []; sampled = []; recorded = [] }
  in
  (try
     Client.with_client s.d.listen (fun c ->
         while now () < deadline do
           let k = pick cdf rng in
           let tune = Ifko_util.Rng.uniform rng >= lookup_share in
           let a = snd s.pts.(k) in
           let t0 = now () in
           let r =
             if tune then Result.map Option.some (Client.tune c a) else Client.lookup c a
           in
           let t1 = now () in
           push log t0 (t1 -. t0);
           if traced && int_of_float ((t0 -. start) /. slice_s) mod 2 = 1 then
             log.recorded <- (t0, t1) :: log.recorded;
           log.mix <- (k, tune) :: log.mix;
           match r with
           | Ok (Some r) ->
             if r.Proto.hit then log.hits <- log.hits + 1;
             if not (same_reply r s.replies.(k)) then log.wrong <- log.wrong + 1;
             if log.n mod check_every = 0 then log.sampled <- k :: log.sampled
           | Ok None -> log.wrong <- log.wrong + 1
           | Error _ -> log.errors <- log.errors + 1
         done)
   with e ->
     Printf.eprintf "e2e: serve_hot client %d: %s\n%!" ci (Printexc.to_string e);
     log.errors <- log.errors + 1);
  log

(* Run [f ci] on [n] threads at once. *)
let on_clients ?(n = clients) f =
  let out = Array.make n None in
  let threads = Array.init n (fun ci -> Thread.create (fun () -> out.(ci) <- Some (f ci)) ()) in
  Array.iter Thread.join threads;
  Array.to_list (Array.map Option.get out)

let phase ?(traced = false) ?n s ~seed ~seconds =
  let start = now () in
  let deadline = start +. seconds in
  let logs = on_clients ?n (client s ~seed ~start ~deadline ~traced) in
  (now () -. start, start, logs)

let lats logs = List.concat_map (fun l -> Array.to_list (Array.sub l.lat 0 l.n)) logs
let total f logs = List.fold_left (fun a l -> a + f l) 0 logs

(* ---------- output checks ---------- *)

(* A sampled reply's winner, compiled from the reply alone and checked
   against the reference; one check per distinct point suffices, since
   every reply of a point was compared with the prefill's bit for bit. *)
let reference_checks s logs =
  let checked = Hashtbl.create 32 in
  let bad = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun k ->
          let ok =
            match Hashtbl.find_opt checked k with
            | Some ok -> ok
            | None ->
              let id, a = s.pts.(k) in
              let ok =
                match
                  Driver.compile_point ~cfg:Ifko_machine.Config.p4e (Hil_sources.compile id)
                    (Ifko_transform.Params.of_canonical s.replies.(k).Proto.best)
                with
                | func -> Check.reference id ~seed:a.Proto.seed func
                | exception _ -> false
              in
              Hashtbl.replace checked k ok;
              ok
          in
          if not ok then incr bad)
        l.sampled)
    logs;
  !bad

(* The two hottest points' replies against a local, storeless tune. *)
let identity_failures s =
  let local (a : Proto.tune_args) =
    let compiled =
      a.Proto.kernel |> Ifko_hil.Parser.parse_kernel |> Ifko_hil.Typecheck.check
      |> Ifko_codegen.Lower.lower
    in
    let spec = Ifko_search.Generic.spec ~seed:a.Proto.seed compiled in
    let t =
      Driver.tune ~seed:a.Proto.seed ~cfg:Ifko_machine.Config.p4e
        ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:a.Proto.n
        ~flops_per_n:a.Proto.flops_per_n
        ~test:(Ifko_search.Generic.test compiled spec)
        compiled
    in
    { Proto.best = Ifko_transform.Params.canonical t.Driver.best_params;
      mflops = t.Driver.ifko_mflops;
      fko_mflops = t.Driver.fko_mflops;
      evaluations = t.Driver.evaluations;
      hit = false }
  in
  List.length
    (List.filter (fun k -> not (same_reply (local (snd s.pts.(k))) s.replies.(k))) [ 0; 1 ])

let geomean_mflops s =
  Stats.geomean (Array.to_list (Array.map (fun r -> r.Proto.mflops) s.replies))

(* ---------- untraced ---------- *)

let run (o : Workloads.opts) =
  let s, setup = Workloads.setups ~teardown (setup o) in
  Fun.protect
    ~finally:(fun () -> teardown s)
    (fun () ->
      let wall, _, logs = phase s ~seed:o.Workloads.seed ~seconds:o.Workloads.seconds in
      let rss = Workloads.vm_hwm_mb (string_of_int s.d.pid) in
      let requests = total (fun l -> l.n) logs in
      let failed =
        total (fun l -> l.errors + l.wrong) logs + reference_checks s logs + identity_failures s
      in
      let a = Stats.sorted (lats logs) in
      { Workloads.correct = failed = 0;
        attempted = max 1 requests;
        failed;
        metrics =
          [ ("setup_s", Workloads.setup_s (setup, []));
            ("ops_per_s", float_of_int requests /. wall);
            ("op_p50_ms", 1e3 *. Stats.percentile a 50.0);
            ("op_p90_ms", 1e3 *. Stats.percentile a 90.0);
            ("tuned_mflops_geomean", geomean_mflops s);
            ("peak_rss_mb", rss) ];
        spans = [] })

(* ---------- traced ---------- *)

(* Round trips grouped by the [width]-second slice of the phase they
   were sent in; the last slice, cut short by the deadline, is left out. *)
let slices ~start ~width logs =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun l ->
      for j = 0 to l.n - 1 do
        Hashtbl.add tbl (int_of_float ((l.t0s.(j) -. start) /. width)) l.lat.(j)
      done)
    logs;
  let last = Hashtbl.fold (fun k _ m -> max k m) tbl 0 in
  List.init last (fun k -> Stats.sorted (Hashtbl.find_all tbl k))

(* The daemon's store, copied so lookups can be timed in-process
   without touching the live one. *)
let copy_store s =
  let dst = Filename.concat s.dir "store-copy" in
  Sys.mkdir dst 0o700;
  Array.iter
    (fun f ->
      let src = Filename.concat s.d.store_dir f in
      if not (Sys.is_directory src) then Workloads.copy_file src (Filename.concat dst f))
    (Sys.readdir s.d.store_dir);
  dst

(* Mean time per request of [f] over the sampled request mix, each
   call under a span [name]. *)
let per_request name mix f =
  let t0 = now () in
  List.iter (fun x -> Trace.op_span 0 name (fun () -> f x)) mix;
  1e6 *. (now () -. t0) /. float_of_int (max 1 (List.length mix))

(* A request the daemon refuses before any work: an unknown machine. *)
let null_request s = { (snd s.pts.(0)) with Proto.machine = "none" }

(* Mean round trip of [null_request], from one client: the transport,
   the daemon's connection thread and the protocol work of a refusal. *)
let null_rtt_us s ~requests =
  let a = null_request s in
  Client.with_client s.d.listen (fun c ->
      let t0 = now () in
      for _ = 1 to requests do
        ignore (Client.lookup c a)
      done;
      1e6 *. (now () -. t0) /. float_of_int requests)

(* Render and parse of one request line and its reply line, as the
   client and the daemon each do once per request. *)
let codec req reply =
  ignore (Proto.parse_request (Proto.render_request { Proto.req_id = "1"; request = req }));
  ignore (Proto.parse_response (Proto.render_response { Proto.resp_id = "1"; reply }))

(* Tracing overhead: the median, over neighbouring (plain, traced)
   slice pairs, of the ratio of their median round trips. *)
let slice_overhead_pct ~start logs =
  let med =
    Array.of_list
      (List.map (fun a -> Stats.percentile a 50.0) (slices ~start ~width:slice_s logs))
  in
  let pairs = List.init (Array.length med / 2) (fun p -> med.((2 * p) + 1) /. med.(2 * p)) in
  100.0 *. (Stats.median pairs -. 1.0)

let run_traced (o : Workloads.opts) =
  let s = setup o () in
  Fun.protect
    ~finally:(fun () -> teardown s)
    (fun () ->
      Trace.on := true;
      Trace.reset ();
      Workloads.trace_frontend ();
      let before = stat s.d in
      let _, start, logs =
        phase ~traced:true s ~seed:o.Workloads.seed ~seconds:o.Workloads.seconds
      in
      let after = stat s.d in
      List.iteri
        (fun ci l ->
          List.iteri
            (fun j (t0, t1) -> Trace.record ~op:((ci * 10_000_000) + j + 1) "request" t0 t1)
            l.recorded)
        logs;
      (* the layers a warm request crosses, timed in-process over (up
         to) 20000 requests of the measured mix *)
      let mix = List.filteri (fun i _ -> i < 20000) (List.concat_map (fun l -> l.mix) logs) in
      let args k = snd s.pts.(k) in
      let proto_us =
        per_request "serve.proto" mix (fun (k, tune) ->
            let a = args k in
            codec
              (if tune then Proto.Tune a else Proto.Lookup a)
              (Proto.Tuned ((if tune then "tune" else "lookup"), s.replies.(k))))
      in
      let key_of (a : Proto.tune_args) =
        let compiled =
          a.Proto.kernel |> Ifko_hil.Parser.parse_kernel |> Ifko_hil.Typecheck.check
          |> Ifko_codegen.Lower.lower
        in
        Ifko_store.Store.tune_key ~kernel:(Driver.kernel_fingerprint compiled)
          ~machine:Ifko_machine.Config.p4e.Ifko_machine.Config.name
          ~context:(Ifko_sim.Timer.context_name Ifko_sim.Timer.Out_of_cache)
          ~n:a.Proto.n ~seed:a.Proto.seed ~check:a.Proto.check ~flops_per_n:a.Proto.flops_per_n ()
      in
      let frontend_us = per_request "serve.frontend" mix (fun (k, _) -> ignore (key_of (args k))) in
      let keys = Array.map (fun (_, a) -> key_of a) s.pts in
      let copy = Shard_store.open_ (copy_store s) in
      (* the daemon decodes the reply from the entry's JSON *)
      let lookup_us =
        per_request "serve.lookup" mix (fun (k, _) ->
            match Shard_store.find_entry copy ~key:keys.(k) with
            | Some (_, params, _) -> ignore (Json.parse params)
            | None -> ())
      in
      let found = Array.for_all (fun key -> Shard_store.find_entry copy ~key <> None) keys in
      Shard_store.close copy;
      let null_codec_us =
        per_request "serve.proto_null" (List.init 10000 Fun.id) (fun _ ->
            codec (Proto.Lookup (null_request s)) (Proto.Failed "unknown machine \"none\""))
      in
      Trace.on := false;
      let transport_us = null_rtt_us s ~requests:10000 -. null_codec_us in
      (* the same mix from one client, so no request waits for the other
         connection's: its round trip is what the parts must explain *)
      let _, _, alone = phase ~n:1 s ~seed:o.Workloads.seed ~seconds:2.0 in
      let alone_us = 1e6 *. Stats.mean (lats alone) in
      let spans = Trace.collect () in
      let l = lats logs in
      let a = Stats.sorted l in
      let mean_us = 1e6 *. Stats.mean l in
      let requests = total (fun l -> l.n) logs in
      let failed =
        total (fun l -> l.errors + l.wrong) (logs @ alone)
        + reference_checks s logs
        + if found then 0 else 1
      in
      let explained = transport_us +. proto_us +. frontend_us +. lookup_us in
      { Workloads.correct = failed = 0;
        attempted = max 1 requests;
        failed;
        metrics =
          [ ("serve.rtt_p50_us", 1e6 *. Stats.percentile a 50.0);
            ("serve.rtt_p99_us", 1e6 *. Stats.percentile a 99.0);
            ("serve.proto_us", proto_us);
            ("serve.transport_us", transport_us);
            ("serve.frontend_us", frontend_us);
            ("serve.lookup_us", lookup_us);
            ("serve.queue_us", mean_us -. alone_us);
            ("serve.residual_us", alone_us -. explained);
            ("serve.hit_frac",
             Stats.ratio (float_of_int (total (fun l -> l.hits) logs)) (float_of_int requests));
            ("serve.joins",
             stat_num after [ "store"; "inflight_joins" ]
             -. stat_num before [ "store"; "inflight_joins" ]);
            ("serve.errors",
             stat_num after [ "server"; "errors" ] -. stat_num before [ "server"; "errors" ]);
            ("trace.ops", float_of_int (total (fun l -> List.length l.recorded) logs));
            ("trace.coverage", Stats.ratio explained alone_us);
            ("trace.overhead_pct", slice_overhead_pct ~start logs) ]
          @ Layers.frontend (Layers.sum_spans spans);
        spans })
