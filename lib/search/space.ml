(** The optimization space the iterative search explores.

    The analysis phase (together with any user mark-up) establishes the
    space: vectorizability gates SV, detected accumulators gate AE, the
    prefetch-target arrays each get an (instruction, distance) pair,
    and the machine's line size anchors the distance grid.

    The space exists in one form, {!axes}: one {!axis} record per
    tunable dimension, with its legal values in search order, its
    legality-pruned flag and its numeric encode/decode on a point.
    Every strategy reads it — the line search's sweeps, the surrogate's
    feature vectors and candidate pool, the warm-start adapter's
    snapping.  The raw {e grids} and per-kernel candidate lists below
    are only what {!axes} is built from; the fuzzer's
    {!Ifko_fuzz.Sample} widens the same grids with invalid-adjacent
    boundary values the pipeline must reject cleanly. *)

open Ifko_machine

(* ---- raw value grids (one definition of the space) ---- *)

(** Unroll factors worth probing, before the per-kernel legality and
    max-unroll gating. *)
let unroll_grid = [ 1; 2; 3; 4; 5; 8; 12; 16; 24; 32; 64; 128 ]

(** Accumulator counts ([0] = off), before the has-accumulators gate. *)
let ae_grid = [ 0; 2; 3; 4; 5; 6; 8 ]

(** Prefetch-distance grid in line-size multiples (paper Table 3). *)
let pf_dist_ks = [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 20; 24; 30; 32 ]

(** Prefetch instruction flavours, before the per-machine gate. *)
let pf_kind_grid = [ Instr.Nta; Instr.T0; Instr.T1; Instr.W ]

(** Block-fetch block sizes ([0] = off) under the extended search. *)
let bf_grid = [ 0; 2048; 4096; 8192 ]

(* ---- per-kernel / per-machine candidate lists ---- *)

(** Candidate unroll factors, bounded by the reported maximum safe
    unrolling and pruned entirely when the legality oracle would refuse
    the transform anyway (probing refused points wastes simulator
    time — the pipeline compiles them unchanged). *)
let unroll_candidates (report : Ifko_analysis.Report.t) =
  if report.Ifko_analysis.Report.legal_unroll <> Ok () then [ 1 ]
  else List.filter (fun u -> u <= report.Ifko_analysis.Report.max_unroll) unroll_grid

(** Candidate accumulator counts ([0] = off); pointless without any
    accumulator. *)
let ae_candidates (report : Ifko_analysis.Report.t) =
  if report.Ifko_analysis.Report.accumulators = [] then [ 0 ] else ae_grid

(** Prefetch instruction flavours available on the machine ([W] is the
    3DNow! prefetch, absent on the P4E-like machine). *)
let pf_ins_candidates (cfg : Config.t) =
  let base = [ None; Some Instr.Nta; Some Instr.T0; Some Instr.T1 ] in
  if cfg.Config.name = "Opteron" then base @ [ Some Instr.W ] else base

(** Prefetch distance grid in bytes: multiples of the prefetchable line
    size up to 2 KiB and a few beyond, as in the paper's Table 3. *)
let pf_dist_candidates (cfg : Config.t) =
  let line = cfg.Config.prefetchable_line in
  List.sort_uniq compare
    (List.filter_map
       (fun k ->
         let d = k * line in
         if d <= 4096 then Some d else None)
       pf_dist_ks)

let wnt_candidates (report : Ifko_analysis.Report.t) =
  if
    report.Ifko_analysis.Report.output_arrays = []
    || report.Ifko_analysis.Report.legal_wnt <> Ok ()
  then [ false ]
  else [ false; true ]

let sv_candidates (report : Ifko_analysis.Report.t) =
  if
    report.Ifko_analysis.Report.vectorizable
    && report.Ifko_analysis.Report.legal_sv = Ok ()
  then [ true; false ]
  else [ false ]

(* ---- extension dimensions (paper future work; see Params) ---- *)

(** Block-fetch block sizes tried when the extended search is enabled. *)
let bf_candidates ~extensions (report : Ifko_analysis.Report.t) =
  if extensions && report.Ifko_analysis.Report.prefetch_arrays <> [] then bf_grid
  else [ 0 ]

(** CISC two-array indexing on/off under the extended search. *)
let cisc_candidates ~extensions (report : Ifko_analysis.Report.t) =
  if extensions && List.length report.Ifko_analysis.Report.prefetch_arrays >= 2 then
    [ false; true ]
  else [ false ]

(* ---- point surgery for the per-array axes ---- *)

module Params = Ifko_transform.Params

let set_pf_dist (p : Params.t) name dist =
  {
    p with
    Params.prefetch =
      List.map
        (fun (a, (s : Params.pf_param)) ->
          if a = name then (a, { s with Params.pf_dist = dist }) else (a, s))
        p.Params.prefetch;
  }

let set_pf_ins (p : Params.t) name ins =
  {
    p with
    Params.prefetch =
      List.map
        (fun (a, (s : Params.pf_param)) ->
          if a = name then (a, { s with Params.pf_ins = ins }) else (a, s))
        p.Params.prefetch;
  }

(* ---- the space as data ---- *)

(** Numeric encoding of the prefetch-instruction dimension (an ordinal
    feature: none < weakest < ... < strongest locality hint). *)
let pf_ins_code = function
  | None -> 0
  | Some Instr.Nta -> 1
  | Some Instr.T0 -> 2
  | Some Instr.T1 -> 3
  | Some Instr.W -> 4

let pf_ins_of_code = function
  | 1 -> Some Instr.Nta
  | 2 -> Some Instr.T0
  | 3 -> Some Instr.T1
  | 4 -> Some Instr.W
  | _ -> None

type axis = {
  ax_name : string;
      (** ["SV"], ["UR"], ["AE"], ["WNT"], ["BF"], ["CISC"],
          ["PF_INS:<array>"] or ["PF_DST:<array>"] *)
  ax_values : float list;  (** encoded legal candidates, in search order *)
  ax_min : float;
  ax_max : float;
  ax_pruned : bool;
      (** the legality oracles / analysis collapsed this axis to its
          sole default value — nothing to search *)
  ax_get : Params.t -> float;
  ax_set : Params.t -> float -> Params.t;
}

(** Every tunable dimension of this (kernel, machine) pair as data:
    domains, pruned flags and numeric encode/decode.  The per-array
    axes follow [report]'s prefetch arrays; [BF] and [CISC] hold only
    their off value unless [extensions]. *)
let axes ?(extensions = false) ~(cfg : Config.t) ~(report : Ifko_analysis.Report.t) () =
  let axis name values get set =
    {
      ax_name = name;
      ax_values = values;
      ax_min = List.fold_left Float.min infinity values;
      ax_max = List.fold_left Float.max neg_infinity values;
      ax_pruned = List.length (List.sort_uniq compare values) <= 1;
      ax_get = get;
      ax_set = set;
    }
  in
  let of_ints l = List.map float_of_int l in
  let of_bools l = List.map (fun b -> if b then 1.0 else 0.0) l in
  let as_bool v = v >= 0.5 in
  let scalar =
    [ axis "SV"
        (of_bools (sv_candidates report))
        (fun p -> if p.Params.sv then 1.0 else 0.0)
        (fun p v -> { p with Params.sv = as_bool v });
      axis "WNT"
        (of_bools (wnt_candidates report))
        (fun p -> if p.Params.wnt then 1.0 else 0.0)
        (fun p v -> { p with Params.wnt = as_bool v });
      axis "UR"
        (of_ints (unroll_candidates report))
        (fun p -> float_of_int p.Params.unroll)
        (fun p v -> { p with Params.unroll = int_of_float v });
      axis "AE"
        (of_ints (ae_candidates report))
        (fun p -> float_of_int p.Params.ae)
        (fun p v -> { p with Params.ae = int_of_float v });
      axis "BF"
        (of_ints (bf_candidates ~extensions report))
        (fun p -> float_of_int p.Params.bf)
        (fun p v -> { p with Params.bf = int_of_float v });
      axis "CISC"
        (of_bools (cisc_candidates ~extensions report))
        (fun p -> if p.Params.cisc then 1.0 else 0.0)
        (fun p v -> { p with Params.cisc = as_bool v });
    ]
  in
  let per_array =
    List.concat_map
      (fun (m : Ifko_analysis.Ptrinfo.moving) ->
        let name = m.Ifko_analysis.Ptrinfo.array.Ifko_codegen.Lower.a_name in
        let get_pf p = List.assoc_opt name p.Params.prefetch in
        [ axis ("PF_INS:" ^ name)
            (of_ints (List.map pf_ins_code (pf_ins_candidates cfg)))
            (fun p ->
              match get_pf p with
              | Some s -> float_of_int (pf_ins_code s.Params.pf_ins)
              | None -> 0.0)
            (fun p v -> set_pf_ins p name (pf_ins_of_code (int_of_float v)));
          axis ("PF_DST:" ^ name)
            (of_ints (pf_dist_candidates cfg))
            (fun p ->
              match get_pf p with
              | Some s -> float_of_int s.Params.pf_dist
              | None -> 0.0)
            (fun p v -> set_pf_dist p name (int_of_float v));
        ])
      report.Ifko_analysis.Report.prefetch_arrays
  in
  scalar @ per_array

(** The axis called [name] among [axes]; [Not_found] names a dimension
    this space does not have. *)
let axis axes name = List.find (fun ax -> ax.ax_name = name) axes
