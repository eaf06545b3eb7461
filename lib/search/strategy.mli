(** The first-class search-strategy interface.

    A strategy only proposes: handed the incumbent, it returns a batch
    of candidate parameter points, the runner measures them (through
    whatever batching the driver supplies — sequentially, or on a
    domain pool), advances the incumbent and shows the strategy the
    measured batch, and the strategy proposes again until it returns
    the empty batch.  The paper's modified line search, the
    surrogate-model searcher and any future strategy all run behind
    this one interface, sharing the memo cache, the winner selection,
    the evaluation accounting and the determinism contract. *)

type probe = Ifko_transform.Params.t -> float
(** Performance of one parameter point (higher is better); the driver
    wires compilation, testing and timing into this. *)

type batch_map =
  (Ifko_transform.Params.t -> float) -> Ifko_transform.Params.t list -> float list
(** How one batch's fresh candidates are evaluated.  The default is a
    sequential left-to-right map; the driver substitutes a domain
    pool's order-preserving map to parallelize.  Results are folded in
    proposal order regardless, so any order-preserving [batch_map]
    yields bit-identical search trajectories. *)

type t = {
  propose : Ifko_transform.Params.t * float -> Ifko_transform.Params.t list;
      (** the next batch of candidates, given the incumbent and its
          performance; [[]] ends the search *)
  observe : (Ifko_transform.Params.t * float) list -> unit;
      (** exactly the proposed batch, in proposal order, with the
          measured performance of every point (memoized points
          included) — for strategies that learn from every point, not
          just the incumbent *)
  contributions : unit -> (string * float) list;
      (** per-dimension (or per-phase) speedup decomposition *)
}

type result = {
  best : Ifko_transform.Params.t;
  best_perf : float;
  start_perf : float;  (** performance of the starting (default) point *)
  contributions : (string * float) list;
  evaluations : int;  (** distinct parameter points compiled and timed *)
  probes_to_best : int;
      (** 1-based evaluation index at which the final best performance
          was first measured — the probes-to-best metric searchbench
          races strategies on *)
}

val run :
  ?map_batch:batch_map ->
  init:Ifko_transform.Params.t ->
  make:(init_perf:float -> t) ->
  probe ->
  result
(** Drive a strategy to completion.  The runner probes [init] first
    (evaluation 1), constructs the strategy with its measured
    performance, then loops: propose from the incumbent, deduplicate
    against the memo cache in proposal order, evaluate the fresh
    points through [map_batch], fold the batch into the incumbent in
    proposal order with strict [>] (the first of equal points wins),
    observe.  Every distinct point is probed at most once across the
    whole search. *)
