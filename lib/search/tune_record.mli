(** The tune record: one whole search's result, as the store keeps it.

    A tune that runs with a store journals one tune-level entry next
    to its per-probe entries.  The serve daemon answers repeat
    requests from that entry, and warm starts take their donors from
    it ({!Warmstart.donors_of_store}).  The entry's key is
    {!Driver.tune_key}; this module is the one place that knows the
    entry's shape:
    - the payload: a JSON object [best]/[fko]/[evals]/[kernel]/[feat]
      in the entry's params, the tuned MFLOPS in its [Timed] outcome;
    - the provenance: {!Ifko_store.Store.tune_prov}. *)

type t = {
  best : string;  (** canonical winning point ({!Ifko_transform.Params.canonical}) *)
  mflops : float;  (** the winner's MFLOPS *)
  fko_mflops : float;  (** the default (un-searched) point's MFLOPS *)
  evaluations : int;
  kernel : string option;  (** kernel name; absent from the oldest daemon entries *)
  feat : Ifko_store.Store.Json.value option;
      (** the analysis fingerprint as journaled, decoded only by
          {!features}: a repeat request never pays for it *)
}

val feat_json : (string * float) list -> Ifko_store.Store.Json.value
(** A fingerprint ({!Ifko_analysis.Report.features}) as the record
    embeds it. *)

val features : t -> (string * float) list option
(** The record's fingerprint, decoded; [None] without one. *)

val add : Ifko_store.Store.t -> key:string -> prov:string -> t -> unit
(** Journal a record under [key] unless the key already holds an entry.
    [prov] is the tune's "kernel\@machine/context/n=N"; the entry's
    provenance marks it as tune-level. *)

val find : Ifko_store.Store.t -> key:string -> t option
(** The record under [key]: a [Timed] entry whose params carry [best],
    [fko] and [evals].  Anything else is [None].  Leaves the store's
    hit/miss counters alone: those count probe traffic. *)

val fold : Ifko_store.Store.t -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Every readable tune-level record, in the store's deterministic
    {!Ifko_store.Store.fold_entries} order. *)
