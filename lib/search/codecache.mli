(** Memo of compiled probe candidates.

    [Driver.tune] produces each candidate by transform pipeline +
    semantic test + decode; this cache keys the finished product by
    (kernel fingerprint, machine, canonical params, check flag, seed)
    so calibration points, multi-size sweeps, fidelity comparisons and
    concurrent serve tunes stop re-doing identical work.  Decoded
    closures are immutable — per-run register/memory state is
    allocated inside [Exec.exec] — so sharing them across domains and
    tunes is safe.

    An {!Ifko_par.Memo}: concurrent misses on one key compile once, and
    exceptions from the compute (notably [Passcheck.Pass_failed], which
    must fail the tune) are never cached. *)

type result =
  | Illegal  (** the transform pipeline rejected the point *)
  | Test_failed  (** compiled, but the semantic test failed *)
  | Compiled of Cfg.func * Ifko_sim.Exec.compiled
      (** transformed function plus its decoded form, ready to time *)

type t

type stats = Ifko_par.Memo.stats = { hits : int; misses : int; held : int }
(** A call that joined another caller's compile counts as a hit;
    [held] is the entry count. *)

val create : unit -> t
(** An empty cache of at most 4096 entries (a daemon backstop, far
    above one tune's candidate count), dropped whole when it fills. *)

val key : kernel:string -> machine:string -> params:string -> check:bool -> seed:int -> string
(** Digest of everything a candidate's compilation outcome depends
    on.  [params] must be the canonical rendering
    ([Params.canonical]). *)

val find_or_compile : t -> key:string -> (unit -> result) -> result
(** Return the cached result for [key], or run [f] once and cache it.
    [f] must be a pure function of [key]. *)

val stats : t -> stats
