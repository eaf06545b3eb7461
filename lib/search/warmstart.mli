(** Store-warmed starts: seed a search with the winning points of
    similar past tunes.

    Every completed tune journals a {e tune-level} entry carrying the
    winning point, the kernel name and the kernel's analysis
    fingerprint ({!Ifko_analysis.Report.features}).  Before a new tune
    starts, the journal is scanned for donors, ranked by fingerprint
    distance, and the nearest winners are adapted into the target
    kernel's parameter space and injected as the strategy's opening
    batch — a daemon that has tuned [daxpy] starts [dscal] near the
    optimum.

    Invalidation is structural, not temporal: entries without a
    fingerprint (pre-dating it, or corrupt) are skipped; fingerprints
    are pure analysis outputs, so editing a kernel changes its features
    and re-ranks donors automatically; and {!adapt} clamps every axis
    to the target's legality-pruned candidates, so a stale donor can
    cost at most a few wasted probes, never a wrong result. *)

type donor = {
  d_kernel : string;  (** donor kernel's name (reporting only) *)
  d_feat : (string * float) list;  (** its analysis fingerprint *)
  d_params : Ifko_transform.Params.t;  (** its winning point *)
  d_mflops : float;  (** performance it reached *)
}

val donor_of_record : Tune_record.t -> donor option
(** A tune record as a donor: requires its kernel name, its fingerprint
    and a parseable winning point.  Anything else — pre-fingerprint
    tunes, corrupt points — yields [None]. *)

val donors_of_store : Ifko_store.Store.t -> donor list
(** All donors among the store's tune records ({!Tune_record.fold}), in
    its deterministic sorted-key order. *)

val distance : (string * float) list -> (string * float) list -> float
(** Scale-free squared distance over the union of feature names
    (absent names read as 0), so differently-versioned fingerprints
    still compare on their shared prefix. *)

val adapt :
  ?extensions:bool ->
  cfg:Ifko_machine.Config.t ->
  report:Ifko_analysis.Report.t ->
  init:Ifko_transform.Params.t ->
  donor ->
  Ifko_transform.Params.t
(** Re-express a donor's winning point in the target kernel's space:
    positional prefetch remap onto the target's arrays, distances
    snapped to the target machine's grid, and every legality-pruned
    axis clamped back to the target default. *)

val seeds :
  ?extensions:bool ->
  ?k:int ->
  cfg:Ifko_machine.Config.t ->
  report:Ifko_analysis.Report.t ->
  init:Ifko_transform.Params.t ->
  feat:(string * float) list ->
  donor list ->
  Ifko_transform.Params.t list
(** The [k] (default 2) nearest donors by {!distance} to [feat],
    adapted and deduplicated, in rank order (ties broken by kernel
    name, then canonical point — fully deterministic).  The result is
    what a strategy probes as its warm opening batch. *)
