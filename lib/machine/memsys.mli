(** The memory system: two cache levels, a bandwidth-limited memory
    bus, an MSHR-limited miss pipe, a page-bounded hardware stream
    prefetcher, software prefetch, and the non-temporal store path.

    All times are in cycles (floats).  The CPU model issues each memory
    operation at its dispatch time and uses a load's completion time
    for dependent instructions; bandwidth and miss-parallelism limits
    emerge from the evolving bus and MSHR state. *)

type t

val create : Config.t -> t

val config : t -> Config.t
(** The machine description this instance was built from (the key of
    the timers' machine pool). *)

val reset : t -> flush:bool -> unit
(** Zero the clock-dependent state (bus, MSHRs, in-flight fills,
    prefetch streams, statistics); additionally empty both caches when
    [flush] is set — the timers' out-of-cache context. *)

(** {2 Memory operations}

    The simulator calls these once per simulated memory instruction,
    and a float argument or return value crossing a module boundary is
    boxed on every call, so times move through a reusable float array
    instead: write the dispatch time at index [io_now], call, and read
    a load's completion time at [io_ret]. *)

val io : t -> float array
val io_now : int
val io_ret : int

val io_bus : int
(** Index of the bus frontier in {!io}: the time at which every
    queued bus transfer has drained.  Read it, never write it. *)

val load_io : t -> int -> unit
(** Load the line containing the address: its completion time is
    written to [io_ret]. *)

val store_io : t -> int -> unit
(** Regular (write-allocate) store: generates read-for-ownership
    traffic on miss and dirty-writeback traffic on eviction, but never
    stalls the pipeline (store-buffer semantics). *)

val nt_store_io : t -> bytes:int -> int -> unit
(** Non-temporal store: write-combining traffic straight to memory, no
    allocation, no read-for-ownership; pays the configured penalty when
    the line is cached (it must be invalidated and flushed). *)

val prefetch_io : t -> kind:Instr.pf_kind -> int -> unit
(** Software prefetch.  Dropped silently when the bus is backed up by
    more than the configured slack, as real implementations do. *)

val warm_l2 : t -> addr:int -> unit
(** Install the line containing [addr] in L2 without any timing effect
    (the timers' in-L2 context setup). *)

val drain_time : t -> now:float -> float
(** Time at which all queued bus traffic has drained; timing runs end
    no earlier than this (outstanding writebacks are real work). *)

val pending_writeback_cost : t -> float
(** Bus cycles needed to write back every dirty line still cached; the
    out-of-cache timers add this to the measured cycles so that store
    traffic is charged at its steady-state rate regardless of whether
    the sampled problem size exceeds L2. *)

(** {2 Profiling}

    Fast-path coverage and cycle-attribution counters, accumulated
    since the last {!reset}.  The counters are always maintained (two
    int bumps per memory operation); the [--profile] flags in the
    bench driver and [ifko sim] only control reporting. *)

type profile = {
  loads : int;  (** total [load_io] calls *)
  stores : int;
  fast_loads : int;  (** loads served entirely by the open-coded fast path *)
  fast_stores : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  demand_misses : int;  (** demand fetches that went to memory *)
  demand_cycles : float;  (** latency cycles those fetches cost (arrival - request) *)
  bus_cycles : float;  (** total bus cycles claimed (transfers + turnarounds) *)
  sw_pf_issued : int;
  sw_pf_dropped : int;
  hw_pf_issued : int;
}

val profile : t -> profile

(** {2 Warm-state checkpointing}

    A snapshot is a deep copy of the entire mutable state (both caches,
    bus clocks, MSHR ring, in-flight fills, prefetch streams, the NT
    write-combining buffer, and all statistics counters).  Restoring it
    into a memory system of the same configuration is observably
    identical to replaying the access sequence that produced it — the
    timers use this to capture the post-warm-up state once per
    (kernel, context, N) and reuse it across every probe point of a
    tune.  Snapshots are plain data (safe to [Marshal]); restores never
    alias the snapshot's mutable internals. *)

type snapshot

val snapshot : t -> snapshot

val rebase : t -> unit
(** Translate every absolute timestamp (bus frontier, MSHR completion
    times, in-flight fill arrivals) so the consumption frontier reads
    0.  The model only compares and differences times, so this leaves
    all future behavior exactly as it would have unfolded — it merely
    re-expresses the state in the clock base of a fresh [Exec] run.
    The sampled timer rebases a just-warmed (or just-restored) state so
    the detailed window continues the warm-up as one long run. *)

val restore : t -> snapshot -> unit
(** @raise Invalid_argument when the snapshot's structural shape
    (cache geometry, MSHR capacity, prefetch stream count) does not
    match the target.  Same-shape-but-different-timing configurations
    are not detected here; callers key snapshots by a digest of the
    full machine configuration (see [Ckpt] in lib/sim). *)
