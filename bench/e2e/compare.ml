(* Compare two sets of benchmark runs, A (the parent) and B (the
   change), metric by metric and workload by workload, with the bounds
   BENCHMARK.json fixes.

   - improved: B wins at least nine tenths of the (A_i, B_i) pairs,
     ties counting for neither, and the medians differ by more than A's
     inter-quartile distance;
   - unresolved: either side's spread (inter-quartile distance over the
     median) is wider than the bound, unless every B run beats every A
     run;
   - regressed: B's median is worse than A's by more than the bound;
   - otherwise within the bound. *)

module J = Ifko_store.Store.Json

type run = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  values : (string * float) list;
}

let run_of_json v =
  let f = match v with J.O f -> f | _ -> raise J.Bad in
  let values =
    match List.assoc_opt "metrics" f with
    | Some (J.O ms) ->
      List.filter_map
        (fun (k, m) ->
          match m with
          | J.O mf -> Option.map (fun x -> (k, x)) (J.num mf "value")
          | _ -> None)
        ms
    | _ -> []
  in
  { workload = Option.value ~default:"?" (J.str f "workload");
    seed = int_of_float (Option.value ~default:0.0 (J.num f "seed"));
    trace = Option.value ~default:false (J.bool f "trace");
    correct = Option.value ~default:false (J.bool f "correct");
    values }

(* The runs a results file (written with --json) holds. *)
let load path =
  match Metrics.parse_json (Metrics.read_file path) with
  | fields -> (
    match List.assoc_opt "runs" fields with
    | Some (J.A runs) -> List.map run_of_json runs
    | _ -> failwith (path ^ ": no \"runs\" array"))
  | exception J.Bad -> failwith (path ^ ": not a results file")

type verdict = Improved | Within | Regressed | Unresolved | Too_few

let verdict_name = function
  | Improved -> "improved"
  | Within -> "within bound"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Too_few -> "too few runs"

(* The verdict on samples [a] (the parent) and [b] (the change) of a
   metric whose better direction is [dir]. *)
let judge ~(dir : Metrics.better) ~bound a b =
  (* is [x] strictly better than [y]? *)
  let better x y = match dir with Metrics.Higher -> x > y | Metrics.Lower -> x < y in
  if List.length a < 2 || List.length b < 2 then Too_few
  else
    let q1a, ma, q3a = Stats.quartiles a and mb = Stats.median b in
    let pairs = List.filteri (fun i _ -> i < List.length b) a in
    let wins =
      List.length (List.filteri (fun i x -> better (List.nth b i) x) pairs)
    in
    let worse_by =
      Stats.ratio (match dir with Metrics.Lower -> mb -. ma | Metrics.Higher -> ma -. mb)
        (Float.abs ma)
    in
    let dominates = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
    if 10 * wins >= 9 * List.length pairs && better mb ma && Float.abs (mb -. ma) > q3a -. q1a
    then Improved
    else if (Stats.spread a > bound || Stats.spread b > bound) && not dominates then Unresolved
    else if worse_by > bound then Regressed
    else Within

(* Print the comparison; returns false when anything regressed or
   could not be resolved. *)
let run ~benchmark a_files b_files =
  let declared = Metrics.load_declared benchmark in
  let runs files = List.concat_map load files |> List.filter (fun r -> not r.trace) in
  let a = runs a_files and b = runs b_files in
  let incorrect = List.filter (fun r -> not r.correct) (a @ b) in
  List.iter
    (fun r -> Printf.printf "incorrect run: %s seed %d\n" r.workload r.seed)
    incorrect;
  let workloads =
    List.filter
      (fun w -> List.exists (fun r -> r.workload = w) (a @ b))
      declared.Metrics.workloads
  in
  Printf.printf "%-10s %-21s %-7s | %-31s | %-31s | %7s %6s | %s\n" "workload" "metric" "unit"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "change" "bound" "verdict";
  let ok = ref (incorrect = []) in
  List.iter
    (fun w ->
      List.iter
        (fun ((m : Metrics.metric), bound) ->
          let values side =
            List.filter_map
              (fun r -> if r.workload = w then List.assoc_opt m.Metrics.name r.values else None)
              side
          in
          let va = values a and vb = values b in
          let show vs =
            if List.length vs < 2 then Printf.sprintf "(n=%d)" (List.length vs)
            else
              let q1, med, q3 = Stats.quartiles vs in
              Printf.sprintf "%.4g [%.4g, %.4g] (%d)" med q1 q3 (List.length vs)
          in
          let v = judge ~dir:m.Metrics.better ~bound va vb in
          if v = Regressed || v = Unresolved || v = Too_few then ok := false;
          let change =
            if va = [] || vb = [] then nan
            else 100.0 *. Stats.ratio (Stats.median vb -. Stats.median va) (Stats.median va)
          in
          Printf.printf "%-10s %-21s %-7s | %-31s | %-31s | %+6.2f%% %5.1f%% | %s\n" w
            m.Metrics.name m.Metrics.unit (show va) (show vb) change (100.0 *. bound)
            (verdict_name v))
        declared.Metrics.e2e)
    workloads;
  !ok
