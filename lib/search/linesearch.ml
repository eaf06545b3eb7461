open Ifko_transform

(* The search as data: a plan of per-dimension groups, each a sequence
   of sweeps.  A sweep receives the current incumbent and yields the
   variant batch to measure — the incumbent advances between sweeps, so
   later sweeps of a group see earlier winners, exactly like the old
   one-array-at-a-time prefetch walk.  [Begin]/[End] bracket a tuned
   dimension for the per-dimension contribution accounting. *)
type op =
  | Begin
  | Sweep of (Params.t -> Params.t list)
  | End of string

let plan ?(extensions = false) ?(warm = []) ~cfg ~report ~init () =
  let axes = Space.axes ~extensions ~cfg ~report () in
  let ur = Space.axis axes "UR" and ae = Space.axis axes "AE" in
  let sweep name =
    let ax = Space.axis axes name in
    fun cur -> List.map (ax.Space.ax_set cur) ax.Space.ax_values
  in
  let per_array kind = List.map (fun (a, _) -> sweep (kind ^ a)) init.Params.prefetch in
  let group name sweeps = (Begin :: List.map (fun f -> Sweep f) sweeps) @ [ End name ] in
  (* Warm-start points (winners of nearest-neighbor past tunes) are an
     extra opening sweep: they can only advance the incumbent.  An
     empty list leaves the plan — and the probe sequence — exactly as
     before the strategy refactor. *)
  (if warm = [] then [] else group "WARM" [ (fun _ -> warm) ])
  (* SV first, to confirm the default choice (cheap: two points); then
     WNT; then the prefetch distance and instruction (including "no
     prefetch"), one array at a time; then unrolling and accumulator
     expansion. *)
  @ group "SV" [ sweep "SV" ]
  @ group "WNT" [ sweep "WNT" ]
  @ group "PF DST" (per_array "PF_DST:")
  @ group "PF INS" (per_array "PF_INS:")
  @ group "UR" [ sweep "UR" ]
  @ group "AE" [ sweep "AE" ]
  (* Extension dimensions (paper future work), when enabled. *)
  @ (if extensions then group "BF" [ sweep "BF" ] @ group "CISC" [ sweep "CISC" ] else [])
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
          let aes = List.filter (fun a -> a = 0.0 || a >= 2.0) ae.Space.ax_values in
          List.concat_map
            (fun u ->
              let at_u = ur.Space.ax_set cur (float_of_int u) in
              List.map (ae.Space.ax_set at_u) aes)
            urs);
      ]
  (* Re-polish the prefetch pair after the computational shape settled
     (a second, shorter pass — the "defacto expert system / search
     hybrid" the paper describes): UR and AE change how many issue
     slots prefetch costs, so both the instruction (including "none")
     and the distance are revisited. *)
  @ group "PF2"
      (List.concat_map
         (fun (a, _) -> [ sweep ("PF_INS:" ^ a); sweep ("PF_DST:" ^ a) ])
         init.Params.prefetch)

(* The modified line search as a {!Strategy.t}: it walks the plan,
   sweeping from whatever incumbent the runner hands it, and brackets
   each group's improvement for the contribution accounting.  The
   runner's strict-[>] proposal-order fold is the one the original
   one-at-a-time loop used, so the default plan's probe sequence stays
   bit-identical to the pre-strategy sweep. *)
let strategy ?(extensions = false) ?(warm = []) ~cfg ~report ~init ~init_perf:_ () =
  let todo = ref (plan ~extensions ~warm ~cfg ~report ~init ()) in
  let contributions = ref [] in
  let before = ref 0.0 in
  let rec propose ((cur, cur_perf) as incumbent) =
    match !todo with
    | [] -> []
    | op :: rest -> (
      todo := rest;
      match op with
      | Begin ->
        before := cur_perf;
        propose incumbent
      | End name ->
        let ratio = if !before > 0.0 then cur_perf /. !before else 1.0 in
        contributions := (name, ratio) :: !contributions;
        propose incumbent
      | Sweep f -> ( match f cur with [] -> propose incumbent | variants -> variants))
  in
  {
    Strategy.propose;
    observe = ignore;
    contributions = (fun () -> List.rev !contributions);
  }
