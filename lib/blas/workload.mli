(** Workload generation for the BLAS timers and testers.

    Vectors are filled with deterministic pseudo-random values in
    [(-1, 1)] (both signs, so [asum]/[iamax] exercise the sign logic);
    [alpha] is a non-trivial scalar.  All generation is seeded, making
    every benchmark and test reproducible. *)

val alpha : float

val make_env : Defs.kernel_id -> seed:int -> int -> Ifko_sim.Env.t
(** [make_env id ~seed n] builds the simulation environment for a run
    of problem size [n]. *)

val timer_spec : Defs.kernel_id -> seed:int -> Ifko_sim.Timer.spec
(** Environment builder plus return-precision, as the timer needs. *)

val expectation : Defs.kernel_id -> seed:int -> int -> Ifko_sim.Verify.expectation
(** Expected outputs for [make_env id ~seed n], computed by
    {!Ref_impl} from the same pseudo-random inputs.  Memoized per
    (kernel, seed, n) in a 12-entry {!Ifko_par.Memo}, so a tester that
    checks every probe at the same sizes computes each once.  The result is shared: treat its arrays as
    read-only. *)

val reference_expectation :
  Defs.kernel_id -> seed:int -> int -> Ifko_sim.Verify.expectation
(** {!expectation} computed afresh on every call, never cached: the
    native reference rate the simulator benchmark normalises by. *)

val tolerance : Defs.kernel_id -> n:int -> float
(** Comparison tolerance scaled for precision and problem size (longer
    reductions accumulate more reassociation difference). *)
