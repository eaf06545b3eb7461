(** Persistent, content-addressed store of empirical tuning results.

    Every probed point of the search costs a full FKO invocation plus a
    verification run and a simulated timing — the expensive part of the
    whole framework.  This store makes those results durable: the key
    is a digest of everything the outcome depends on (the lowered LIL
    kernel, the machine configuration, the timing context, the problem
    size, the workload seed and the parameter point), the value is the
    probe outcome with provenance.

    On disk a store is one or more append-only JSON-lines journals: one
    header line recording the schema version and workload seed, then
    one self-contained record per probed point.  A journal file is the
    one-shard store; a directory holds N shard journals
    ([shard-NN.jsonl], picked by the key's first byte modulo N) under a
    [store.meta] that fixes N at creation.  Both shapes behave the same
    through this interface, so [ifko tune --store] and [ifko serve]
    read each other's stores.

    Appends are a single flushed write of one complete line under the
    journal's mutex, so worker domains can share one handle — and,
    because the file is opened with [O_APPEND], several {e processes}
    can append to the same journals (replica mode; see {!refresh}).  A
    crash mid-write leaves at most one torn trailing line, which the
    loader tolerates (corrupt or truncated lines are counted and
    skipped, never fatal).  [compact] rewrites each journal with one
    record per key (last wins) via a temp file + atomic rename.
    Opening an existing store never writes to it: an empty journal gets
    its header with the first append. *)

(** The JSON codec of the journal (shared with the serve protocol). *)
module Json = Ifko_util.Json

(** Outcome of one probe, as journaled. *)
type outcome =
  | Timed of { mflops : float; cycles : float }
      (** compiled, verified, timed; [mflops] is derived from [cycles]
          but both are stored so either view reloads exactly *)
  | Test_failed  (** compiled but computed wrong answers *)
  | Illegal  (** the pipeline rejected the parameter point *)

type t
(** An open store: the in-memory index plus the append channels. *)

val open_ :
  ?seed:int -> ?clock:(unit -> float) -> ?shards:int -> ?replica:bool -> string -> t
(** [open_ path] loads the store at [path]: an existing directory is a
    sharded store (its [store.meta] fixes the shard count), anything
    else a single journal file, created with its header if absent.  Given
    [shards] (clamped to 1..256), a missing [path] is created as a
    directory of that many shards; an existing directory keeps its own
    geometry.  Corrupt lines are skipped and counted, so a journal
    truncated by a crash loads fine.  [seed] goes into the header of
    journals this handle creates.  [clock] (e.g. [Unix.time])
    timestamps every subsequent {!add} for the age-based {!evict}
    policy; the default clock stamps 0 and emits no timestamp field,
    keeping offline journals byte-deterministic.  In [replica] mode a
    lookup miss re-reads the key's journal tail ({!refresh}) before it
    is conceded.
    @raise Invalid_argument if [shards] is given and [path] is a file,
    or [path] is a directory without a valid [store.meta] and [shards]
    is absent. *)

val close : t -> unit
(** Flush and close the append channels.  Further [add]s reopen them. *)

val path : t -> string

val seed : t -> int option
(** The workload seed recorded in the (first) journal header, if any. *)

val shard_count : t -> int
(** Journals in the store: 1 for a file. *)

val find : t -> key:string -> outcome option
(** Thread-safe lookup; maintains the {!hits}/{!misses} counters. *)

val find_entry : t -> key:string -> (outcome * string * string) option
(** Like {!find} but returns [(outcome, params, prov)] and does {e not}
    touch the hit/miss counters, which count probe traffic only — for
    tune-level records ({!Ifko_search.Tune_record}). *)

val tune_prov : string -> string
(** The provenance of a {e tune-level} entry (a whole search's result,
    journaled by {!Ifko_search.Tune_record}) for a tune whose probes
    carry [prov]: the same text behind a ["tune "] prefix. *)

val is_tune_prov : string -> bool
(** Whether a provenance string marks a tune-level entry
    ({!tune_prov}) rather than a single probe. *)

val fold_entries :
  t ->
  init:'a ->
  f:('a -> key:string -> params:string -> prov:string -> outcome -> 'a) ->
  'a
(** Read-only fold over every live entry: journals in shard order, each
    in sorted-key order (a deterministic scan regardless of append
    order).  Each journal is snapshotted under its mutex and folded
    outside it, so [f] may itself use the store. *)

val iter_tunes :
  t ->
  f:(key:string -> params:string -> prov:string -> mflops:float -> unit) ->
  unit
(** Visit the timed tune-level entries only ({!is_tune_prov} plus a
    [Timed] outcome), in {!fold_entries} order — the scan behind
    {!Ifko_search.Tune_record.fold}. *)

val add : t -> key:string -> params:string -> prov:string -> outcome -> unit
(** Thread-safe insert + journal append (one flushed line).  [params]
    and [prov] are human-readable provenance (the parameter point and
    "kernel\@machine/context/N"); they do not affect lookup. *)

val cached : ?store:t -> key:string -> params:string -> prov:string ->
  (unit -> outcome) -> outcome
(** [cached ?store ~key ... f] is [f ()] memoized through the store;
    with [?store] absent it is just [f ()].  Single-flight
    ({!Ifko_par.Flight}): the first caller to miss runs [f] and
    journals its outcome, concurrent callers of the same key wait and
    share it.  If [f] raises, the exception reaches that caller alone
    and one waiter takes over. *)

val refresh : t -> unit
(** Fold in any complete journal lines appended past the already-loaded
    prefix — records written by {e other processes} sharing the files in
    replica mode.  A trailing line still missing its newline is another
    writer's append in flight and is left for the next refresh; a file
    that shrank (compacted by another replica) is reloaded whole. *)

val hits : t -> int
(** [find]s and [cached] calls answered from the store (or by joining
    another caller's flight) since [open_]. *)

val misses : t -> int
(** [find]s that missed and [cached] calls that computed, since
    [open_]. *)

val entries : t -> int
(** Distinct keys currently held. *)

val corrupt : t -> int
(** Journal lines skipped as unusable during loading: {!torn} plus the
    mid-file corrupt lines. *)

val torn : t -> int
(** The subset of {!corrupt} that was a newline-less trailing line —
    the signature of a crash mid-append. *)

val bytes : t -> int
(** Current journal sizes in bytes (0 for a file not yet written). *)

val compact : t -> unit
(** Rewrite every journal as header + one line per key, atomically
    (temp file in the same directory, then rename).  Not safe while
    another replica process is appending — serialize compaction through
    one designated writer (the serve daemon does). *)

val evict : ?max_bytes:int -> ?max_age:float -> now:float -> t -> int
(** [evict ?max_bytes ?max_age ~now t] applies the retention policy and
    compacts if anything was dropped; returns the number of entries
    evicted.  [max_age] drops entries stamped before [now - max_age]
    (entries journaled without a timestamp count as arbitrarily old);
    [max_bytes] then drops oldest-first — ordered by (timestamp, load
    order) — until the compacted journal would fit; in a directory the
    budget splits evenly across the shards.  Same replica caveat as
    {!compact}. *)

(** {2 Keys}

    Keys are hex MD5 digests of a canonical encoding of the inputs.
    Content addressing gives invalidation for free: editing the kernel
    changes its lowered LIL, hence the digest, hence the key. *)

val digest : string list -> string
(** Digest of a list of fields (length-prefixed, so field boundaries
    cannot alias). *)

val probe_key :
  kernel:string ->
  machine:string ->
  context:string ->
  n:int ->
  seed:int ->
  check:bool ->
  ?fidelity:string ->
  params:string ->
  unit ->
  string
(** Key of one search probe.  [kernel] is the lowered-LIL rendering of
    the untransformed function (plus array metadata), [params] the
    canonical parameter-point encoding ({!Ifko_transform.Params.canonical}),
    [check] whether per-pass validation was on (it changes how broken
    points surface).  [fidelity] names a non-default timing fidelity;
    omitting it reproduces every key minted before the fidelity axis
    existed, so old journals remain valid (and sampled results can
    never be served to a full-fidelity caller or vice versa). *)

val timing_key :
  kind:string ->
  func:string ->
  machine:string ->
  context:string ->
  n:int ->
  seed:int ->
  string
(** Key of a raw timing of an already-built function ([func] is its
    LIL rendering) — used to journal the ATLAS-search and
    compiler-model baseline timings. [kind] namespaces the caller. *)

val tune_key :
  ?strategy:string ->
  ?fidelity:string ->
  ?extensions:bool ->
  kernel:string ->
  machine:string ->
  context:string ->
  n:int ->
  seed:int ->
  check:bool ->
  flops_per_n:float ->
  unit ->
  string
(** Key of one {e complete tune} — the service-level result the serve
    daemon caches on top of the per-probe entries.  [kernel] is the
    {!Ifko_search.Driver.kernel_fingerprint}; [flops_per_n] is included
    because it scales the reported MFLOPS.  [strategy] names a
    non-default search strategy, [fidelity] a non-default timing
    fidelity, and [extensions] (default [false]) a search over the
    future-work transformations.  Omit each for its default so every
    key minted before that axis existed stays valid (and results of
    different strategies, fidelities or spaces never alias). *)

(** {2 Statistics} *)

type stat = {
  st_path : string;
  st_dir : bool;  (** a shard directory rather than a journal file *)
  st_entries : int;
  st_tunes : int;  (** tune-level entries ({!is_tune_prov}) *)
  st_probes : int;  (** the rest: per-probe and raw-timing entries *)
  st_timed : int;
  st_failed : int;
  st_illegal : int;
  st_corrupt : int;  (** mid-file unparseable lines (excludes torn) *)
  st_torn : int;  (** newline-less unparseable trailing line *)
  st_bytes : int;
  st_seed : int option;
  st_hits : int;
  st_misses : int;
  st_joins : int;
  st_shards : stat list;  (** one per journal, in shard order *)
}

val stat : t -> stat
(** Snapshot of a live handle (thread-safe). *)

val stat_fields : stat -> (string * Json.value) list
(** The [stat] object's fields — the journal counts, the service
    counters and a ["per_shard"] array of per-journal objects — for
    embedding into larger JSON documents.  Only the journals are
    counted: no other file in a shard directory is read. *)

val stat_json : stat -> string
(** One JSON object, [Diag.to_json]-style: every field present, [null]
    for an absent seed (and for ["dir"] on a journal file). *)

val stat_to_string : stat -> string

val clear : string -> unit
(** Delete the journal file if it exists. *)
