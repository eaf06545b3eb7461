open Ifko_transform
module Rng = Ifko_util.Rng

(* Fixed knobs.  The batch width is a constant, NOT derived from the
   worker count: the proposal sequence must be bit-identical at any
   --jobs, and 8 keeps a typical domain pool saturated without
   over-committing probes to one model generation. *)
let batch = 8
let rounds = 16
let patience = 2

(* ---- the model: distance-weighted k-NN regression over the
   axis-encoded, per-axis-normalized parameter vectors ---- *)

let sq x = x *. x

let dist2 a b =
  let acc = ref 0.0 in
  Array.iteri (fun i ai -> acc := !acc +. sq (ai -. b.(i))) a;
  !acc

(* Prediction at [x] from the [k] nearest observations: the mean is
   inverse-distance weighted; the spread combines the neighbors'
   weighted variance with the distance to the nearest one, so the
   uncertainty grows away from sampled regions even where the
   neighborhood agrees. *)
let predict ~obs x =
  let k = min 5 (List.length obs) in
  let by_dist =
    List.sort
      (fun (da, _) (db, _) -> compare (da : float) db)
      (List.map (fun (v, y) -> (dist2 x v, y)) obs)
  in
  let rec take n = function z :: r when n > 0 -> z :: take (n - 1) r | _ -> [] in
  let near = take k by_dist in
  let wsum = ref 0.0 and mean = ref 0.0 in
  List.iter
    (fun (d, y) ->
      let w = 1.0 /. (1e-6 +. d) in
      wsum := !wsum +. w;
      mean := !mean +. (w *. y))
    near;
  let mu = if !wsum > 0.0 then !mean /. !wsum else 0.0 in
  let var = ref 0.0 in
  List.iter (fun (d, y) -> var := !var +. (1.0 /. (1e-6 +. d) *. sq (y -. mu))) near;
  let var = if !wsum > 0.0 then !var /. !wsum else 0.0 in
  let d_near = match near with (d, _) :: _ -> d | [] -> 1.0 in
  let scale = List.fold_left (fun acc (_, y) -> Float.max acc (Float.abs y)) 1.0 near in
  let sigma = sqrt var +. (0.1 *. scale *. sqrt d_near) in
  (mu, sigma)

(* Standard normal cdf via the tanh approximation (no erf in stdlib);
   accurate to ~1e-3, far below the model's own noise. *)
let norm_cdf z =
  0.5 *. (1.0 +. tanh (0.7978845608028654 *. (z +. (0.044715 *. z *. z *. z))))

let norm_pdf z = exp (-0.5 *. z *. z) /. 2.5066282746310002

(* Expected improvement over the incumbent. *)
let ei ~best (mu, sigma) =
  if sigma <= 0.0 then Float.max 0.0 (mu -. best)
  else begin
    let z = (mu -. best) /. sigma in
    ((mu -. best) *. norm_cdf z) +. (sigma *. norm_pdf z)
  end

(* ---- the strategy ---- *)

let strategy ?(extensions = false) ?(warm = []) ~seed ~cfg ~report ~init ~init_perf () =
  let axes = Space.axes ~extensions ~cfg ~report () in
  let live = List.filter (fun ax -> not ax.Space.ax_pruned) axes in
  let sv = Space.axis axes "SV" and ur = Space.axis axes "UR" and ae = Space.axis axes "AE" in
  let encode p =
    Array.of_list
      (List.map
         (fun ax ->
           let v = ax.Space.ax_get p in
           let span = ax.Space.ax_max -. ax.Space.ax_min in
           if span > 0.0 then (v -. ax.Space.ax_min) /. span else 0.0)
         live)
  in
  let rng = Rng.create seed in
  (* Observations for the model (Illegal/Test_failed probes come in as
     -inf; clamp to 0 so one refused point cannot poison every mean). *)
  let obs = ref [ (encode init, Float.max 0.0 init_perf) ] in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (Params.canonical init) ();
  (* The incumbent's performance when the model rounds began (after
     the warm batch) and at the last proposal: a round that leaves it
     where it was is a stall. *)
  let warm_base = ref init_perf in
  let last = ref init_perf in
  let round = ref 0 in
  let stall = ref 0 in
  let warm_pending = ref (warm <> []) in
  let random_point () =
    List.fold_left
      (fun p ax ->
        let vals = ax.Space.ax_values in
        ax.Space.ax_set p (List.nth vals (Rng.int rng (List.length vals))))
      init live
  in
  let candidates cur =
    (* One-axis neighbors of the incumbent, in axis order... *)
    let neighbors =
      List.concat_map
        (fun ax ->
          let here = ax.Space.ax_get cur in
          List.filter_map
            (fun v -> if v = here then None else Some (ax.Space.ax_set cur v))
            ax.Space.ax_values)
        live
    in
    (* ...the SV x UR x AE cross around it (the known interactions —
       vectorization moves the profitable unroll range wholesale, so
       the cross must reach across the SV toggle, not just along the
       incumbent's side of it)... *)
    let cross =
      List.concat_map
        (fun s ->
          let at_s = sv.Space.ax_set cur s in
          List.concat_map
            (fun u -> List.map (ae.Space.ax_set (ur.Space.ax_set at_s u)) ae.Space.ax_values)
            ur.Space.ax_values)
        sv.Space.ax_values
    in
    (* ...and uniform random exploration (the only Rng consumer, and
       only ever called from propose, so the stream is a pure function
       of the seed and the observation history). *)
    let explore = List.init (3 * batch) (fun _ -> random_point ()) in
    let fresh = Hashtbl.create 64 in
    List.filter
      (fun p ->
        let c = Params.canonical p in
        if Hashtbl.mem seen c || Hashtbl.mem fresh c then false
        else begin
          Hashtbl.replace fresh c ();
          true
        end)
      (neighbors @ cross @ explore)
  in
  let propose (cur, cur_perf) =
    if !warm_pending then begin
      warm_pending := false;
      warm
    end
    else begin
      if !round = 0 then warm_base := cur_perf
      else if cur_perf > !last then stall := 0
      else incr stall;
      last := cur_perf;
      if !round >= rounds || !stall >= patience then []
      else begin
        incr round;
        let scored =
          List.map (fun p -> (ei ~best:cur_perf (predict ~obs:!obs (encode p)), p))
            (candidates cur)
        in
        (* Best acquisition first; float ties (and there are many, at
           the EI floor) break on the canonical string, never on list
           position luck. *)
        let ranked =
          List.sort
            (fun ((ea : float), pa) (eb, pb) ->
              match compare eb ea with
              | 0 -> compare (Params.canonical pa) (Params.canonical pb)
              | c -> c)
            scored
        in
        let rec take n = function z :: r when n > 0 -> z :: take (n - 1) r | _ -> [] in
        List.map snd (take batch ranked)
      end
    end
  in
  let observe vals =
    List.iter
      (fun (p, v) ->
        Hashtbl.replace seen (Params.canonical p) ();
        obs := (encode p, Float.max 0.0 v) :: !obs)
      vals
  in
  {
    Strategy.propose;
    observe;
    contributions =
      (fun () ->
        let ratio a b = if a > 0.0 then b /. a else 1.0 in
        (if warm = [] then [] else [ ("WARM", ratio init_perf !warm_base) ])
        @ [ ("MODEL", ratio !warm_base !last) ]);
  }
