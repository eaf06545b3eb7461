open Ifko_transform

(* The search as data: a plan of per-dimension groups, each a sequence
   of sweeps.  A sweep receives the current incumbent and yields the
   variant batch to measure — the incumbent advances between sweeps, so
   later sweeps of a group see earlier winners, exactly like the old
   one-array-at-a-time prefetch walk.  [Begin]/[End] bracket a tuned
   dimension for the per-dimension contribution accounting. *)
type op =
  | Begin of string
  | Sweep of (Params.t -> Params.t list)
  | End

let plan ?(extensions = false) ?(warm = []) ~cfg ~report ~init () =
  let arrays = List.map fst init.Params.prefetch in
  let group name sweeps = (Begin name :: List.map (fun f -> Sweep f) sweeps) @ [ End ] in
  (* Warm-start points (winners of nearest-neighbor past tunes) are an
     extra opening sweep: they can only advance the incumbent.  An
     empty list leaves the plan — and the probe sequence — exactly as
     before the strategy refactor. *)
  (if warm = [] then [] else group "WARM" [ (fun _ -> warm) ])
  (* SV: confirm the default choice (cheap: two points). *)
  @ group "SV"
      [ (fun cur ->
          List.map (fun sv -> { cur with Params.sv = sv }) (Space.sv_candidates report));
      ]
  (* WNT *)
  @ group "WNT"
      [ (fun cur ->
          List.map (fun wnt -> { cur with Params.wnt }) (Space.wnt_candidates report));
      ]
  (* Prefetch distance, one array at a time (including "no prefetch"
     via the instruction dimension below). *)
  @ group "PF DST"
      (List.map
         (fun name cur ->
           List.map (Space.set_pf_dist cur name) (Space.pf_dist_candidates cfg))
         arrays)
  (* Prefetch instruction flavour per array. *)
  @ group "PF INS"
      (List.map
         (fun name cur ->
           List.map (Space.set_pf_ins cur name) (Space.pf_ins_candidates cfg))
         arrays)
  (* Unrolling. *)
  @ group "UR"
      [ (fun cur ->
          List.map
            (fun u -> { cur with Params.unroll = u })
            (Space.unroll_candidates report));
      ]
  (* Accumulator expansion. *)
  @ group "AE"
      [ (fun cur ->
          List.map (fun ae -> { cur with Params.ae = ae }) (Space.ae_candidates report));
      ]
  (* Extension dimensions (paper future work), when enabled. *)
  @ (if not extensions then []
     else
       group "BF"
         [ (fun cur ->
             List.map
               (fun bf -> { cur with Params.bf = bf })
               (Space.bf_candidates ~extensions report));
         ]
       @ group "CISC"
           [ (fun cur ->
               List.map
                 (fun cisc -> { cur with Params.cisc })
                 (Space.cisc_candidates ~extensions report));
           ])
  (* Restricted 2-D refinement over the known UR x AE interaction. *)
  @ group "UR*AE"
      [ (fun cur ->
          let u0 = cur.Params.unroll in
          let urs =
            List.sort_uniq compare
              (List.filter
                 (fun u -> u >= 1 && u <= report.Ifko_analysis.Report.max_unroll)
                 [ u0 / 2; u0; u0 * 2 ])
          in
          let aes = List.filter (fun a -> a = 0 || a >= 2) (Space.ae_candidates report) in
          List.concat_map
            (fun u ->
              List.map (fun ae -> { cur with Params.unroll = u; Params.ae = ae }) aes)
            urs);
      ]
  (* Re-polish the prefetch pair after the computational shape settled
     (a second, shorter pass — the "defacto expert system / search
     hybrid" the paper describes): UR and AE change how many issue
     slots prefetch costs, so both the instruction (including "none")
     and the distance are revisited. *)
  @ group "PF2"
      (List.concat_map
         (fun name ->
           [ (fun cur ->
               List.map (Space.set_pf_ins cur name) (Space.pf_ins_candidates cfg));
             (fun cur ->
               List.map (Space.set_pf_dist cur name) (Space.pf_dist_candidates cfg));
           ])
         arrays)

(* The modified line search as a {!Strategy.t}.  The incumbent advances
   by a sequential left-to-right strict-[>] fold over each observed
   batch, exactly as the original one-at-a-time loop did: the first
   candidate wins ties, so the trajectory does not depend on the
   parallelism degree, and the default plan's probe sequence stays
   bit-identical to the pre-strategy sweep. *)
let strategy ?(extensions = false) ?(warm = []) ~cfg ~report ~init ~init_perf () =
  let cur = ref init in
  let cur_perf = ref init_perf in
  let todo = ref (plan ~extensions ~warm ~cfg ~report ~init ()) in
  let contributions = ref [] in
  let open_group = ref None in
  let rec propose () =
    match !todo with
    | [] -> []
    | Begin name :: rest ->
      todo := rest;
      open_group := Some (name, !cur_perf);
      propose ()
    | End :: rest ->
      todo := rest;
      (match !open_group with
      | Some (name, before) ->
        let ratio = if before > 0.0 then !cur_perf /. before else 1.0 in
        contributions := (name, ratio) :: !contributions;
        open_group := None
      | None -> ());
      propose ()
    | Sweep f :: rest -> (
      todo := rest;
      match f !cur with [] -> propose () | variants -> variants)
  in
  let observe vals =
    List.iter
      (fun (p, v) ->
        if v > !cur_perf then begin
          cur := p;
          cur_perf := v
        end)
      vals
  in
  {
    Strategy.name = "linesearch";
    propose;
    observe;
    best = (fun () -> (!cur, !cur_perf));
    contributions = (fun () -> List.rev !contributions);
  }
