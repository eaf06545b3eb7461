open Ifko_transform

type donor = {
  d_kernel : string;
  d_feat : (string * float) list;
  d_params : Params.t;
  d_mflops : float;
}

(* A tune record becomes a donor only if it carries the full learned
   payload: a parseable winning point, the kernel name and the analysis
   fingerprint.  Records journaled before the fingerprint existed (or
   corrupted ones) simply yield [None] — the natural invalidation rule:
   no fingerprint, no warm start. *)
let donor_of_record (r : Tune_record.t) =
  match (r.Tune_record.kernel, Tune_record.features r) with
  | Some kernel, Some feat -> (
    match Params.of_canonical r.Tune_record.best with
    | exception Failure _ -> None
    | p -> Some { d_kernel = kernel; d_feat = feat; d_params = p; d_mflops = r.Tune_record.mflops })
  | _ -> None

let donors_of_store st =
  List.rev
    (Tune_record.fold st ~init:[] ~f:(fun acc r ->
         match donor_of_record r with Some d -> d :: acc | None -> acc))

(* Scale-free squared distance over the union of feature names: each
   dimension's difference is normalized by its own magnitude, so
   max_unroll (~128) cannot drown out a legality bit, and vectors from
   different fingerprint versions still compare over the names they
   share (absent names read as 0). *)
let distance a b =
  let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.fold_left
    (fun acc k ->
      let va = Option.value (List.assoc_opt k a) ~default:0.0 in
      let vb = Option.value (List.assoc_opt k b) ~default:0.0 in
      let d = (va -. vb) /. (1.0 +. Float.abs va +. Float.abs vb) in
      acc +. (d *. d))
    0.0 names

(* Re-express a donor's winning point in the target kernel's space:
   every scalar axis keeps the donor's value when the target's space
   holds it and falls back to the target default otherwise (so an axis
   the target's legality oracles pruned always does); prefetch settings
   remap positionally onto the target's arrays (the donor's array names
   mean nothing here), with distances snapped to the target machine's
   grid — an adapted seed is always a point the pipeline will accept. *)
let adapt ?(extensions = false) ~cfg ~report ~init (d : donor) =
  let p = d.d_params in
  let axes = Space.axes ~extensions ~cfg ~report () in
  let values name = (Space.axis axes name).Space.ax_values in
  let snap acc ax =
    let v = ax.Space.ax_get p in
    if List.mem v ax.Space.ax_values then ax.Space.ax_set acc v else acc
  in
  let scalar =
    List.fold_left snap init
      (List.map (Space.axis axes) [ "SV"; "WNT"; "UR"; "AE"; "BF"; "CISC" ])
  in
  let nearest v = function
    | [] -> 0.0
    | d0 :: rest ->
      List.fold_left
        (fun best c -> if Float.abs (c -. v) < Float.abs (best -. v) then c else best)
        d0 rest
  in
  let donor_pf = List.map snd p.Params.prefetch in
  let prefetch =
    List.mapi
      (fun i (name, (dflt : Params.pf_param)) ->
        match List.nth_opt donor_pf i with
        | Some (s : Params.pf_param) ->
          let code = float_of_int (Space.pf_ins_code s.Params.pf_ins) in
          let pf_ins =
            if List.mem code (values ("PF_INS:" ^ name)) then s.Params.pf_ins
            else dflt.Params.pf_ins
          in
          let dist = nearest (float_of_int s.Params.pf_dist) (values ("PF_DST:" ^ name)) in
          (name, { Params.pf_ins; pf_dist = (if pf_ins = None then 0 else int_of_float dist) })
        | None -> (name, dflt))
      init.Params.prefetch
  in
  { scalar with Params.prefetch }

let seeds ?(extensions = false) ?(k = 2) ~cfg ~report ~init ~feat donors =
  let ranked =
    List.sort
      (fun ((da : float), a) (db, b) ->
        match compare da db with
        | 0 -> (
          match compare a.d_kernel b.d_kernel with
          | 0 -> compare (Params.canonical a.d_params) (Params.canonical b.d_params)
          | c -> c)
        | c -> c)
      (List.map (fun d -> (distance feat d.d_feat, d)) donors)
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (_, d) ->
      let p = adapt ~extensions ~cfg ~report ~init d in
      let c = Params.canonical p in
      if Hashtbl.mem seen c then None
      else begin
        Hashtbl.replace seen c ();
        Some p
      end)
    (take k ranked)
