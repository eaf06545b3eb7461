(** Kernel timers.

    Two usage contexts, as in the paper: operands out of cache (caches
    flushed before the run) and operands preloaded into L2; {!prepare}
    is the one definition of a context's starting state.  The simulator
    is deterministic, so a measurement is one run per simulated size.

    {2 Two paths}

    [Full] (the default, bit-identical to every earlier version)
    simulates the whole problem in L2 and for small out-of-cache
    problems; larger out-of-cache problems are simulated at two
    page-aligned sizes in steady state and extrapolated linearly
    ({!val-exact} and the extrapolation agree to well under a percent
    on streaming kernels).

    [Sampled] derives the same linear model from short windows counted
    in 4 KiB pages of the kernel's widest array element: a checkpointed
    5-page warm-up shared by every probe point and problem size, a
    2-page detailed window continuing it, and a one-page cold window
    for the intercept; a 10-page companion window, run once per
    (warm state, candidate), cancels the resume transient exactly.  In
    L2 the windows run cache-resident while the working set fits L2.
    When a confidence check fails the sampled path returns a
    {!fallback} and the measurement reverts to the bit-exact full path
    with the reason in [m_fallback].

    {2 The error budget}

    {!error_budget} is the one definition of "within budget" and
    {!calibrate} the one judge of a sampled estimate. *)

type context = Out_of_cache | In_l2

val context_name : context -> string

val context_of_name : string -> (context, string) result
(** The names the CLI and the daemon accept: ["oc" | "l2"]. *)

type spec = {
  make_env : int -> Env.t;  (** environment builder for a problem size *)
  ret_fsize : Instr.fsize;
}

type fidelity = Full | Sampled

val fidelity_name : fidelity -> string
val fidelity_of_string : string -> (fidelity, string) result
(** The inverse of {!fidelity_name}: ["full" | "sampled"]. *)

(** Why a [Sampled] request fell back to full fidelity. *)
type fallback =
  | No_array_arguments  (** the kernel binds no arrays: no page geometry *)
  | Tiny_n  (** the windows would cover most of the problem *)
  | In_l2_context  (** the in-L2 working set exceeds L2 capacity *)
  | Non_increasing_cycles  (** a window measured non-positive cycles *)
  | No_steady_state  (** the steady rate contradicts the cold window *)

val fallback_name : fallback -> string
(** The reason's stable name (["tiny-n"], ...), as printed. *)

type measurement = {
  m_cycles : float;
  m_fidelity : fidelity;  (** the fidelity that actually produced the cycles *)
  m_fallback : fallback option;
      (** why a [Sampled] request fell back to full fidelity, if it did *)
  m_elems : int;  (** elements simulated (the work proxy) *)
}

val exact :
  cfg:Ifko_machine.Config.t -> context:context -> spec:spec -> n:int -> Cfg.func -> float
(** Simulate the full problem of size [n]; returns cycles. *)

val prepare :
  cfg:Ifko_machine.Config.t -> context:context -> Ifko_machine.Memsys.t -> Env.t -> unit
(** Put a memory system into [context]'s starting state for a run over
    [env]: caches flushed and, in L2, every line of [env]'s arrays
    installed in L2.  Every timer path starts from it; callers that
    drive {!Exec} directly use it to start where the timer does. *)

val machines : (Ifko_machine.Config.t, Ifko_machine.Memsys.t) Ifko_par.Freelist.t
(** The machines every timer path borrows, keyed by their config
    (compared structurally), at most 32 held.  A returned machine is not cleaned: a borrower
    must {!prepare} or [Memsys.restore] it before reading anything. *)

val borrow_machine : Ifko_machine.Config.t -> Ifko_machine.Memsys.t
(** A pooled machine of this config, in an arbitrary prior state, or a
    fresh one when none is held. *)

val return_machine : Ifko_machine.Memsys.t -> unit
(** Put a machine back in {!machines}; the caller must not use it
    afterwards.  Safe on a machine left mid-simulation by a trap. *)

val measure :
  ?fidelity:fidelity ->
  ?ckpt:Ckpt.t * string ->
  cfg:Ifko_machine.Config.t ->
  context:context ->
  spec:spec ->
  n:int ->
  Cfg.func ->
  float
(** Cycle count for problem size [n] under [context].  [fidelity]
    defaults to [Full].  [ckpt] is the warm-state checkpoint cache
    paired with the kernel fingerprint the snapshots are keyed by; it
    accelerates warm-ups and never changes any result. *)

val measure_ext :
  ?fidelity:fidelity ->
  ?ckpt:Ckpt.t * string ->
  cfg:Ifko_machine.Config.t ->
  context:context ->
  spec:spec ->
  n:int ->
  Exec.compiled ->
  measurement
(** {!measure} for already-compiled code, returning the full record:
    the fidelity that actually ran, the fallback reason when the
    sampled escape hatch fired, and the elements simulated. *)

val error_budget : float
(** The one definition of "within budget": the sampled path's relative
    cycle error against full fidelity may not exceed 0.01. *)

type verdict =
  | Within of float  (** sampled; relative error within {!error_budget} *)
  | Exceeds of float  (** sampled; relative error over the budget *)
  | Fell_back of fallback  (** fell back; cycles bit-identical to full *)
  | Broken_fallback of fallback  (** fell back, but the cycles differ from full *)

type calibration = { cal_full : measurement; cal_sampled : measurement; cal_verdict : verdict }

val calibrate :
  ?ckpt:Ckpt.t * string ->
  cfg:Ifko_machine.Config.t ->
  context:context ->
  spec:spec ->
  n:int ->
  Exec.compiled ->
  calibration
(** Time one point at full fidelity, then sampled, and judge the
    sampled estimate — the one verdict [Driver.tune],
    [ifko sim --compare-fidelity] and [ifko fuzz --check-fidelity]
    act on. *)

val mflops :
  cfg:Ifko_machine.Config.t -> flops_per_n:float -> n:int -> cycles:float -> float
(** Convert cycles to the MFLOPS the paper reports. *)

(** {2 Wall-time attribution}

    Setup-vs-simulate breakdown of measurement wall time, for
    [bench --profile] and [ifko sim --profile]: the sampled fidelity's
    wall-clock win depends on the fixed per-measure floor (machine
    acquire, environment materialize, warm-state restore), and this
    instrument makes a floor regression visible.  Disabled by default
    (no clock reads on the hot path); safe across domains. *)

type attribution = {
  at_arena_s : float;  (** taking machines from the pool and putting them back *)
  at_env_s : float;  (** building, materializing and scrubbing environments *)
  at_restore_s : float;  (** snapshot capture/restore and warm-state plumbing *)
  at_exec_s : float;  (** inside [Exec.exec] — the actual simulation *)
  at_measures : int;  (** measurements attributed *)
}

val profile_enable : bool -> unit
val profile_reset : unit -> unit
val profile : unit -> attribution
