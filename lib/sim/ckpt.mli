(** Content-addressed cache of post-warm-up memory-system snapshots.

    The in-L2 timing context runs a warm-up loop before every measured
    run; the resulting memory-system state depends only on
    (kernel fingerprint, machine, context, N) — never on the transform
    parameters being probed.  A [Ckpt.t] captures that state once
    ({!Ifko_machine.Memsys.snapshot}) and blits it back for every later
    probe of the same tune, which is observably identical to re-running
    the warm-up (verified by the bit-identity tests).

    Everything — snapshots, the per-candidate transient memo
    ({!find_transient}) and the environment masters ({!master_memo}) —
    lives in one process's memory and is never read from or written to
    disk, so a restart starts cold.  Invalidation is by key content: a
    kernel edit changes the fingerprint, and the machine name, context
    and N are all part of the key; a [t] serves the one machine
    configuration it was created for.  No state can therefore be
    reused for a different one. *)

type t

type stats = {
  hits : int;  (** warm states answered from memory *)
  disk_loads : int;
      (** always 0: nothing persists; the field stays for callers that
          still sum it *)
  misses : int;  (** fresh warm-ups run (then captured) *)
}

val create : cfg:Ifko_machine.Config.t -> unit -> t
(** An empty checkpoint cache for machine [cfg]. *)

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
    share across domains: racing misses on one key run [warm] once, and
    the others restore its snapshot.  Every call counts exactly one of
    {!stats}' [hits] (a joined warm-up included) or [misses]. *)

val find_transient : t -> key:string -> float option
(** Look up a per-(warm state, compiled code) scalar — the sampled
    timer memoizes each candidate's resume-transient here, keyed by
    (snapshot key, code digest), so each distinct candidate's restart
    cost is priced exactly once. *)

val set_transient : t -> key:string -> float -> unit
(** Record a transient.  Values are deterministic functions of their
    key, so when writers race on one key the first one's value is kept
    and nothing is lost. *)

val master_memo : t -> key:string -> (unit -> Env.master) -> Env.master
(** Memo for pristine environment images (see {!Env.capture}), keyed
    by (kernel fingerprint, element count); the sampled timer also
    reads each kernel's page geometry off a tiny one.  [f] must be a
    pure function of [key]; racing misses run it once. *)

val stats : t -> stats
