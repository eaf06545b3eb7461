(** Generic workload builder and tester for arbitrary user kernels.

    The CLI and the serve daemon both need timers and testers for
    kernels they have never seen before; this module derives them from
    the kernel's signature exactly the same way everywhere, so the
    content-addressed store keys (which digest the seeded workload)
    agree between `ifko tune`, `ifko sim` and `ifko serve`. *)

val spec : ?seed:int -> Ifko_codegen.Lower.compiled -> Ifko_sim.Timer.spec
(** Workload from the kernel's parameters: every [ptr] parameter binds
    to a fresh random vector of length N (seeded by [seed], default 0),
    every int parameter to N, every fp parameter to 0.77 — matching the
    library's BLAS workloads. *)

val test :
  Ifko_codegen.Lower.compiled -> Ifko_sim.Timer.spec -> Cfg.func -> bool
(** Differential tester against the untransformed lowering at sizes
    {0, 1, 7, 130}: returns and all array outputs must agree to 1e-4
    relative tolerance; a trap fails the candidate.  Partial
    application compiles the reference side once per kernel.  Both of
    a size's environments are released to {!Ifko_sim.Env}'s buffer
    pool once compared. *)
