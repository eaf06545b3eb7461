(** The tester of the iterative framework.

    For each candidate transformation point, the compiled kernel is
    executed (without timing) and compared against expected results —
    "unnecessary in theory, but useful in practice" (paper,
    Section 2.1).  Floating-point comparison uses a relative tolerance
    scaled by problem size, because vectorization and accumulator
    expansion legitimately reassociate reductions. *)

type expectation = {
  arrays : (string * float array) list;  (** expected final array contents *)
  ret : Exec.ret_val option;  (** expected return value *)
}

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

val check :
  ?tol:float ->
  ret_fsize:Instr.fsize ->
  Cfg.func ->
  Env.t ->
  expectation ->
  (unit, string) Stdlib.result
(** Run the kernel on [env] and compare against [expectation]; the
    error string pinpoints the first mismatch.  [env] is spent after
    the call: it is released to {!Env}'s buffer pool on every path,
    traps and mismatches included, and must not be used again. *)

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
