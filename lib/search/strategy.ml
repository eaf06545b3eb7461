open Ifko_transform

type probe = Params.t -> float
type batch_map = (Params.t -> float) -> Params.t list -> float list

type t = {
  propose : Params.t * float -> Params.t list;
  observe : (Params.t * float) list -> unit;
  contributions : unit -> (string * float) list;
}

type result = {
  best : Params.t;
  best_perf : float;
  start_perf : float;
  contributions : (string * float) list;
  evaluations : int;
  probes_to_best : int;
}

(* Explicit left-to-right map, so the sequential path has a defined
   probe order to be bit-identical with. *)
let seq_map f xs = List.rev (List.rev_map f xs)

(* The shared propose/observe loop.  Every strategy runs through here:
   the loop owns the memo cache (one probe per distinct point, ever),
   the evaluation counter and the incumbent; the strategy owns
   candidate generation.

   A proposed batch is deduplicated against the cache (and against
   itself) in proposal order, the fresh remainder is evaluated through
   [map_batch] — concurrently, when the driver supplies a domain
   pool — and the incumbent advances by a strict-[>] fold over the
   full batch in proposal order: the first candidate wins ties, so the
   winner never depends on evaluation completion order, which is what
   makes any order-preserving [map_batch] bit-identical to the
   sequential one.  The incumbent's first measurement is the
   probes-to-best index: a point that strictly beats everything before
   it in proposal order was never measured earlier. *)
let run ?(map_batch = seq_map) ~init ~(make : init_perf:float -> t) probe =
  let cache : (Params.t, float * int) Hashtbl.t = Hashtbl.create 64 in
  let evals = ref 0 in
  let measure p v =
    incr evals;
    Hashtbl.replace cache p (v, !evals)
  in
  let init_perf = probe init in
  measure init init_perf;
  (* (point, performance, evaluation index): [init] counts as found
     only once it beats a failed probe's [neg_infinity] *)
  let best = ref (init, init_perf, if init_perf > neg_infinity then 1 else 0) in
  let strat = make ~init_perf in
  let rec loop () =
    let cur, cur_perf, _ = !best in
    match strat.propose (cur, cur_perf) with
    | [] -> ()
    | batch ->
      let batched = Hashtbl.create 8 in
      let fresh =
        List.filter
          (fun p ->
            if Hashtbl.mem cache p || Hashtbl.mem batched p then false
            else begin
              Hashtbl.replace batched p ();
              true
            end)
          batch
      in
      List.iter2 measure fresh (map_batch probe fresh);
      List.iter
        (fun p ->
          let v, at = Hashtbl.find cache p in
          let _, top, _ = !best in
          if v > top then best := (p, v, at))
        batch;
      strat.observe (List.map (fun p -> (p, fst (Hashtbl.find cache p))) batch);
      loop ()
  in
  loop ();
  let best, best_perf, probes_to_best = !best in
  {
    best;
    best_perf;
    start_perf = init_perf;
    contributions = strat.contributions ();
    evaluations = !evals;
    probes_to_best;
  }
