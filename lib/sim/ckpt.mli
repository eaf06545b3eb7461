(** Content-addressed cache of post-warm-up memory-system snapshots.

    The in-L2 timing context runs a warm-up loop before every measured
    run; the resulting memory-system state depends only on
    (kernel fingerprint, machine, context, N) — never on the transform
    parameters being probed.  A [Ckpt.t] captures that state once
    ({!Ifko_machine.Memsys.snapshot}) and blits it back for every later
    probe of the same tune, which is observably identical to re-running
    the warm-up (verified by the bit-identity tests).

    Snapshots live in memory only.  What persists, with a [dir], is
    the per-candidate transient memo ({!find_transient}): it carries
    all of a restart's measurable gain, while re-running one warm-up
    per state costs nothing measurable.

    Invalidation mirrors the probe store's content addressing:
    - a {e kernel edit} changes the fingerprint, hence the key;
    - a {e cache-geometry (or any machine-parameter) change} changes
      the geometry digest recorded in the persistence directory's
      [store.meta], which wipes the persisted transients on open;
    - a {e stale or hand-edited store.meta} (wrong schema, unparsable,
      missing) likewise discards them rather than trusting them.

    None of them can therefore reuse a wrong value. *)

type t

type stats = {
  hits : int;  (** warm states answered from memory *)
  disk_loads : int;
      (** always 0: snapshots no longer persist; the field stays for
          callers that still sum it *)
  misses : int;  (** fresh warm-ups run (then captured) *)
  invalidated : int;  (** persisted transient sets discarded on open *)
  transient_hits : int;  (** resume-transients answered from the memo *)
  transient_misses : int;  (** resume-transients that had to be measured *)
  transients_loaded : int;  (** transients preloaded from disk on open *)
}

val create : ?dir:string -> cfg:Ifko_machine.Config.t -> unit -> t
(** In-memory checkpoint cache for machine [cfg]; with [dir], the
    transients also persist there ([transients.jsonl] plus a
    [store.meta] recording the schema version and geometry digest).
    Persistence is best-effort: I/O failures only cost future
    companion windows.  [.ckpt] snapshot files that older builds left
    in [dir] are never opened. *)

val key : t -> kernel:string -> context:string -> n:int -> string
(** Digest of (kernel fingerprint, machine name, context, N). *)

val with_state :
  t ->
  key:string ->
  Ifko_machine.Memsys.t ->
  warm:(Ifko_machine.Memsys.t -> unit) ->
  bool
(** Bring the memory system to the warm state for [key]: restore the
    cached snapshot when one exists, otherwise run [warm] (which must
    leave the system fully warmed) and capture the result.  Returns
    whether this call ran [warm].  Per-candidate scalars belong in
    {!find_transient}/{!set_transient}, never here: one tune's probe
    points share a snapshot while running different code.  Safe to
    share across domains; every call counts exactly one of {!stats}'
    [hits] or [misses]. *)

val find_transient : t -> key:string -> float option
(** Look up a per-(warm state, compiled code) scalar — the sampled
    timer memoizes each candidate's resume-transient here, keyed by
    (snapshot key, code digest), so each distinct candidate's restart
    cost is priced exactly once.  With a persistence [dir], transients
    reload on open (from [transients.jsonl], %.17g round-trip exact),
    so a daemon restart does not repay every companion rate window;
    the file lives under the [store.meta] guard and is wiped when the
    guard fails. *)

val set_transient : t -> key:string -> float -> unit
(** Record a transient (appending to [transients.jsonl] when
    persistent).  Values are deterministic functions of their key, so
    concurrent writers racing on one key are benign. *)

val master_memo : t -> key:string -> (unit -> Env.master) -> Env.master
(** Session-only memo for pristine environment images (see
    {!Env.capture}), keyed by (kernel fingerprint, element count); the
    sampled timer also reads each kernel's page geometry off a tiny
    one.  [f] must be a pure function of [key]; it runs outside the
    lock, and racing computations are benign. *)

val stats : t -> stats
val geometry_digest : t -> string
