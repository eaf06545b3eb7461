(** The modified line search (paper Section 2.3).

    A pure line search splits the N-dimensional optimization space into
    N separate 1-D searches from a knowledgeable starting point (FKO's
    defaults).  Our modification, as in the paper, relaxes the strict
    1-D structure where transformations are known to interact: a
    restricted 2-D refinement is run over (UR, AE) — unrolling changes
    how many adds there are to rotate accumulators over — and the
    prefetch instruction/distance pair is re-polished per array after
    both 1-D passes.

    Dimensions are tuned in the order the paper reports contributions:
    WNT, prefetch distance, prefetch instruction, UR, AE (SV is
    confirmed first).  Every probe's performance is memoized, and the
    per-dimension improvement is recorded to regenerate Figure 7.

    [extensions] additionally searches the paper's future-work
    transformations (block fetch, CISC two-array indexing); off by
    default so the reproduction matches FKO as published. *)

val strategy :
  ?extensions:bool ->
  ?warm:Ifko_transform.Params.t list ->
  cfg:Ifko_machine.Config.t ->
  report:Ifko_analysis.Report.t ->
  init:Ifko_transform.Params.t ->
  init_perf:float ->
  unit ->
  Strategy.t
(** The line search behind the {!Strategy} interface: each sweep maps
    one {!Space.axes} dimension's values over the incumbent
    {!Strategy.run} hands it ([init_perf] is accepted for the uniform
    constructor shape; the runner supplies the incumbent).  With
    [?warm] empty (the default) its probe sequence is bit-identical to
    the pre-strategy sweep; warm points are probed first as an extra
    opening batch and can only advance the incumbent. *)
