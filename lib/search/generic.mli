(** Generic workload builder and tester for arbitrary user kernels.

    The CLI and the serve daemon both need timers and testers for
    kernels they have never seen before; this module derives them from
    the kernel's signature exactly the same way everywhere, so the
    content-addressed store keys (which digest the seeded workload)
    agree between `ifko tune`, `ifko sim` and `ifko serve`. *)

val make_env :
  seed:int -> len:int -> scalar:(Ifko_util.Rng.t -> float) -> Ifko_codegen.Lower.compiled ->
  int -> Ifko_sim.Env.t
(** [make_env ~seed ~len ~scalar compiled n] binds the kernel's
    parameters by its signature: every int parameter to [n], every fp
    parameter to [scalar rng], every [ptr] parameter to a fresh vector
    of [len] random elements.  [rng] is seeded from [seed] and [n] and
    drawn in parameter order.  {!spec} and the fuzz oracle's padded
    workloads both build on it. *)

val spec : ?seed:int -> Ifko_codegen.Lower.compiled -> Ifko_sim.Timer.spec
(** Workload from the kernel's parameters: every [ptr] parameter binds
    to a fresh random vector of length N (seeded by [seed], default 0),
    every int parameter to N, every fp parameter to 0.77 — matching the
    library's BLAS workloads. *)

val test :
  Ifko_codegen.Lower.compiled -> Ifko_sim.Timer.spec -> Cfg.func -> bool
(** Differential tester against the untransformed lowering at sizes
    {0, 1, 7, 130}, through {!Ifko_sim.Verify.outputs} and
    {!Ifko_sim.Verify.mismatch}: returns and all array outputs must
    agree to 1e-4 relative tolerance, a return value on one side only
    fails, and so does a trap on either side.  Partial application
    compiles the reference side once per kernel.  Every environment is
    released to {!Ifko_sim.Env}'s buffer pool once read. *)
