(* End-to-end benchmark of ifko: what a user pays to tune kernels, run
   the paper's experiment and query the tuning daemon, and, in a traced
   run, which layer the time goes to.

   Usage (from the repository root; bench/e2e/run.sh builds first):
     main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--json OUT]
     main.exe --compare A.json... -- B.json...   (bounds from ./BENCHMARK.json)

   Workloads: repro, tune_fast, tune_par, serve_hot (default: all, each
   in its own process).  The last line of a single workload's output is
   one JSON object: correct, attempted, failed and the metrics (the
   end-to-end ones, or with --trace 1 the per-layer ones).  The exit
   status is non-zero when any output failed its check. *)

open Ifko_e2e
module J = Ifko_store.Store.Json

let workloads = Metrics.workloads
let out_dir = ".bench_e2e"

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-dir DIR] [--json OUT]\n\
    \       main.exe --compare A.json... -- B.json...";
  exit 2

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* ---------- one workload, in this process ---------- *)

let run_workload name (o : Workloads.opts) ~trace =
  match name with
  | "repro" -> Workloads.repro o ~trace
  | "tune_fast" -> Workloads.tune_fast o ~trace
  | "tune_par" -> Workloads.tune_par o ~trace
  | "serve_hot" -> if trace then Serve_hot.run_traced o else Serve_hot.run o
  | w -> failwith ("unknown workload " ^ w)

(* Every declared metric in declaration order; a layer a workload does
   not use reads 0. *)
let complete ~trace values =
  let declared = if trace then Metrics.per_layer else Metrics.end_to_end in
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun (m : Metrics.metric) -> m.Metrics.name = k) declared) then
        failwith ("undeclared metric " ^ k))
    values;
  List.map
    (fun (m : Metrics.metric) ->
      let v = Option.value ~default:0.0 (List.assoc_opt m.Metrics.name values) in
      (m, if Float.is_finite v then v else 0.0))
    declared

let metrics_json ms =
  J.O
    (List.map
       (fun ((m : Metrics.metric), v) ->
         (m.Metrics.name, J.O [ ("value", J.N v); ("unit", J.S m.Metrics.unit) ]))
       ms)

let result_fields (r : Workloads.result) ms =
  [ ("correct", J.B r.Workloads.correct);
    ("attempted", J.N (float_of_int r.Workloads.attempted));
    ("failed", J.N (float_of_int r.Workloads.failed));
    ("metrics", metrics_json ms) ]

(* Merge this workload's per-layer metrics into DIR/layers.json. *)
let update_layers dir name ms =
  let path = Filename.concat dir "layers.json" in
  let others =
    match Metrics.parse_json (Metrics.read_file path) with
    | fields -> List.remove_assoc name fields
    | exception _ -> []
  in
  write_file path (J.render (others @ [ (name, metrics_json ms) ]) ^ "\n")

let single name ~seed ~seconds ~trace ~trace_dir ~json =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  at_exit (fun () ->
      Serve_hot.kill_all ();
      Workloads.rm_rf tmp);
  let o = { Workloads.seed; seconds; tmp } in
  let r = run_workload name o ~trace in
  let ms = complete ~trace r.Workloads.metrics in
  Printf.printf "%s (seed %d, %s): %d attempted, %d failed\n" name seed
    (if trace then "traced" else "untraced")
    r.Workloads.attempted r.Workloads.failed;
  List.iter
    (fun ((m : Metrics.metric), v) ->
      Printf.printf "  %-28s %14.4f %s\n" m.Metrics.name v m.Metrics.unit)
    ms;
  if not trace then begin
    (* the tail reported must have at least ten samples beyond it *)
    let n = r.Workloads.attempted in
    Printf.printf "  op_p90_ms: %d of %d samples lie beyond it\n" (Stats.beyond ~n 90.0) n;
    match Stats.tail_percentile n with
    | Some p when p >= 90.0 -> ()
    | _ -> Printf.eprintf "e2e: warning: %d samples are too few for a p90\n%!" n
  end;
  if trace then begin
    (match List.assoc_opt "trace.coverage" r.Workloads.metrics with
    | Some c when c < 0.85 || c > 1.15 ->
      Printf.eprintf
        "e2e: warning: trace.coverage %.3f is outside [0.85, 1.15]: the layers do not account \
         for the operations' time\n%!"
        c
    | _ -> ());
    mkdir_p trace_dir;
    Trace.write_jsonl (Filename.concat trace_dir (name ^ ".spans.jsonl")) r.Workloads.spans;
    update_layers trace_dir name ms;
    Printf.printf "  spans and layers.json written to %s\n" trace_dir
  end;
  Option.iter
    (fun path ->
      write_file path
        (J.render
           [ ( "runs",
               J.A
                 [ J.O
                     ([ ("workload", J.S name);
                        ("seed", J.N (float_of_int seed));
                        ("seconds", J.N seconds);
                        ("trace", J.B trace) ]
                     @ result_fields r ms) ] ) ]
        ^ "\n"))
    json;
  print_endline (J.render (result_fields r ms));
  if not r.Workloads.correct then exit 1

(* ---------- every workload, one process each ---------- *)

let all ~seed ~seconds ~trace ~trace_dir ~json =
  let tmp = Filename.concat out_dir (Printf.sprintf "all-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  at_exit (fun () -> Workloads.rm_rf tmp);
  let runs =
    List.map
      (fun w ->
        let out = Filename.concat tmp (w ^ ".json") in
        let args =
          [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
             "--trace-dir"; trace_dir; "--json"; out |]
        in
        flush_all ();
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
        in
        let rec wait () =
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED code -> code
          | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        let code = wait () in
        let run =
          match Metrics.parse_json (Metrics.read_file out) with
          | fields -> (
            match List.assoc_opt "runs" fields with Some (J.A [ r ]) -> Some r | _ -> None)
          | exception _ -> None
        in
        (w, code, run))
      workloads
  in
  Printf.printf "\n%-10s %s\n" "workload" "metrics";
  List.iter
    (fun (w, code, run) ->
      match run with
      | None -> Printf.printf "%-10s no result (exit %d)\n" w code
      | Some r ->
        let c = Compare.run_of_json r in
        Printf.printf "%-10s %s%s\n" w
          (String.concat "  "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%.4g %s" k v (Metrics.find k).Metrics.unit)
                c.Compare.values))
          (if code = 0 then "" else Printf.sprintf "  [exit %d]" code))
    runs;
  Option.iter
    (fun path ->
      write_file path
        (J.render [ ("runs", J.A (List.filter_map (fun (_, _, r) -> r) runs)) ] ^ "\n"))
    json;
  if List.exists (fun (_, code, run) -> code <> 0 || run = None) runs then exit 1

(* ---------- command line ---------- *)

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "--compare" :: rest ->
    let rec split acc = function
      | "--" :: b -> (List.rev acc, b)
      | x :: xs -> split (x :: acc) xs
      | [] -> usage ()
    in
    let a, b = split [] rest in
    if a = [] || b = [] then usage ();
    exit (if Compare.run ~benchmark:"BENCHMARK.json" a b then 0 else 1)
  | _ ->
    let workload = ref "all" and seed = ref 20050614 and seconds = ref 20.0 in
    let trace = ref false and trace_dir = ref (Filename.concat out_dir "trace") in
    let json = ref None in
    let rec parse = function
      | "--workload" :: w :: xs -> workload := w; parse xs
      | "--seed" :: n :: xs -> seed := int_of_string n; parse xs
      | "--seconds" :: s :: xs -> seconds := float_of_string s; parse xs
      | "--trace" :: t :: xs ->
        trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
        parse xs
      | "--trace-dir" :: d :: xs -> trace_dir := d; parse xs
      | "--json" :: p :: xs -> json := Some p; parse xs
      | [] -> ()
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    if !workload = "all" then
      all ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_dir:!trace_dir ~json:!json
    else if List.mem !workload workloads then
      single !workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_dir:!trace_dir
        ~json:!json
    else usage ()
