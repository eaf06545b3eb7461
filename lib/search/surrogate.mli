(** The surrogate-model searcher: a batched Bayesian-style strategy
    that replaces most probes with model predictions.

    Parameter points are encoded as per-axis-normalized vectors over
    the live (not legality-pruned) {!Space.axes}.  A distance-weighted
    k-nearest-neighbor regressor predicts the performance (mean and
    spread) of unprobed points; an expected-improvement acquisition
    ranks a candidate pool — one-axis neighbors of the incumbent, the
    SV x UR x AE cross around it (all read from the axes), and uniform
    random exploration — and the top eight points are proposed
    together, keeping a domain pool saturated.

    Determinism: the batch width is a fixed constant (never derived
    from [--jobs]), the threaded {!Ifko_util.Rng} is consumed only
    inside [propose], and all float ties break on the canonical point
    string — so the probe sequence and the winner are a pure function
    of the seed and the kernel, at any parallelism degree.

    The search stops after 16 model generations, or once 2 consecutive
    generations fail to improve the incumbent. *)

val strategy :
  ?extensions:bool ->
  ?warm:Ifko_transform.Params.t list ->
  seed:int ->
  cfg:Ifko_machine.Config.t ->
  report:Ifko_analysis.Report.t ->
  init:Ifko_transform.Params.t ->
  init_perf:float ->
  unit ->
  Strategy.t
(** Make the strategy.  [warm] points (from {!Warmstart.seeds}) are
    proposed as the opening batch before any model round and enter the
    model as ordinary observations.  Failed probes ([-inf]) are clamped
    to 0 in the model fit, so a refused point cannot poison the
    neighborhood means; the incumbent is {!Strategy.run}'s, on the true
    values. *)
