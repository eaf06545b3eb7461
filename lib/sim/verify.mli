(** The tester of the iterative framework.

    For each candidate transformation point, the compiled kernel is
    executed (without timing) and compared against expected results —
    "unnecessary in theory, but useful in practice" (paper,
    Section 2.1).  Every tester — the BLAS ones ({!check}), the generic
    one, per-pass translation validation and the differential fuzzer —
    runs the kernel through {!outputs} and compares through
    {!mismatch}, each with its own closeness policy.  Floating-point
    comparison uses a relative tolerance scaled by problem size,
    because vectorization and accumulator expansion legitimately
    reassociate reductions. *)

type expectation = {
  arrays : (string * float array) list;  (** final array contents *)
  ret : Exec.ret_val option;  (** return value *)
}
(** A run's observable outputs: what a test expects, and what
    {!outputs} reads. *)

val close : ?tol:float -> float -> float -> bool
(** Relative/absolute closeness test used for array elements. *)

val ulp_diff : ?fsize:Instr.fsize -> float -> float -> int64
(** Distance between two floats in units in the last place of the given
    precision (default double): the number of representable values of
    that precision separating them, sign-aware across zero.  Two NaNs
    are at distance [0]; NaN against a number is [Int64.max_int].
    Single-precision inputs must already be exactly representable in
    single (the simulator's arrays guarantee this). *)

val close_ulp : ?fsize:Instr.fsize -> ?ulps:int64 -> float -> float -> bool
(** [close_ulp ~fsize ~ulps a b] is [ulp_diff a b <= ulps]
    (default 4 ulps). *)

val exact_fp : float -> float -> bool
(** IEEE equality with NaN == NaN: the comparison the differential
    fuzzer uses for outputs no legal transformation may perturb
    (copies, swaps, element-wise maps evaluated in source order). *)

val close_reduction : ?fsize:Instr.fsize -> ?ulps:int64 -> ?abs_floor:float ->
  float -> float -> bool
(** ULP-tolerant comparison for reduction results, whose rounding
    legitimately moves when vectorization or accumulator expansion
    reassociates the sum: within [ulps] (default 4096) of each other in
    the given precision, or — for near-zero results of cancelling sums,
    where relative/ULP distance is meaningless — within [abs_floor]
    (default 1e-6) absolutely. *)

val outputs :
  ret_fsize:Instr.fsize ->
  arrays:string list ->
  Exec.compiled ->
  Env.t ->
  (expectation, string) Stdlib.result
(** [outputs ~ret_fsize ~arrays cf env] runs [cf] once on [env] and
    reads its return value and the final contents of [arrays].  A trap
    gives [Error "trap: ..."].  [env] is spent: it goes back to {!Env}'s
    buffer pool on every path, and must not be used again. *)

val mismatch :
  close:(string option -> float -> float -> bool) ->
  expected:expectation ->
  expectation ->
  string option
(** [mismatch ~close ~expected got] describes the first difference, or
    [None]: the return value first, then [expected]'s arrays in order.
    [close where e g] judges an expected float [e] against the observed
    [g]; [where] is [None] for the return value and [Some name] for an
    element of array [name].  The return rule is strict: a return value
    on one side only, or an integer against a float, is a difference,
    and integer returns must be equal.  So is an array that is missing
    from [got] or has another length. *)

val check :
  ?tol:float ->
  ret_fsize:Instr.fsize ->
  Cfg.func ->
  Env.t ->
  expectation ->
  (unit, string) Stdlib.result
(** Run the kernel on [env] ({!outputs}) and compare against
    [expectation] ({!mismatch}, relative tolerance [tol], default
    1e-5); the error string pinpoints the first mismatch.  An
    expectation without a return value fails a kernel that returns
    one.  Like {!outputs}, it spends [env]. *)

val check_compiled :
  ?tol:float ->
  ret_fsize:Instr.fsize ->
  Exec.compiled ->
  Env.t ->
  expectation ->
  (unit, string) Stdlib.result
(** {!check} for already-compiled code — testers that probe one
    candidate at several sizes compile once and call this.  Like
    {!check}, it releases [env]. *)
