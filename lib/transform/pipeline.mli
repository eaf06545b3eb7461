(** The FKO optimization pipeline.

    Applies the fundamental transformations in their fixed order
    (SV, UR, LC, AE, PF, WNT — paper Section 2.2.3), then iterates the
    repeatable block (copy propagation, peephole, dead code, control
    flow cleanup) to a fixed point, allocates registers, and runs a
    final cleanup.  The input [compiled] kernel is never mutated; each
    call works on a fresh copy so the search can probe many parameter
    points from one lowering. *)

val snapshot : Ifko_codegen.Lower.compiled -> Ifko_codegen.Lower.compiled
(** Deep-copy a compiled kernel (blocks and loop-nest bookkeeping). *)

val max_repeat : int
(** Round budget of the repeatable block (a diagnostic is emitted when
    the fixpoint is not reached within it). *)

val repeatable : ?on_pass:(string -> unit) -> ?protect:string list -> Cfg.func -> int
(** Iterate the repeatable-transformation block until nothing changes;
    returns the number of iterations taken (at least 1).  [on_pass] is
    called with a pass name (e.g. ["deadcode (round 2)"]) after every
    sub-pass that changed the function — the per-pass checking hook.
    If {!max_repeat} rounds do not reach the fixpoint, an [IFK009]
    diagnostic is printed to stderr. *)

val apply :
  ?skip_regalloc:bool ->
  ?check:Passcheck.t ->
  ?inject:string * (Ifko_codegen.Lower.compiled -> unit) ->
  ?on_skip:(Ifko_analysis.Diag.t -> unit) ->
  line_bytes:int ->
  Ifko_codegen.Lower.compiled ->
  Params.t ->
  Ifko_codegen.Lower.compiled
(** [apply ~line_bytes compiled params] produces a fresh, fully
    transformed and register-allocated copy.  [skip_regalloc] leaves
    the result in virtual-register form (used by tests and the [-S]
    CLI mode before allocation).  The result validates under
    {!Validate.check_physical} (or {!Validate.check} when allocation
    is skipped).

    [check] enables per-pass checking: after each fundamental
    transform, each repeatable sub-pass that fired, and each
    post-allocation step, the {!Ifko_analysis.Lint} suite and
    {!Passcheck} translation validation run, raising
    {!Passcheck.Pass_failed} naming the first offending pass.  Build
    the check with {!Passcheck.of_spec} over the tune's workload; it
    runs and compares the kernel through {!Ifko_sim.Verify}, against
    the lowering's outputs captured before the first pass.

    [inject] is test-only fault injection: [(pass, break)] applies
    [break] right after the named pass so tests can assert that the
    checker localizes a deliberately broken transform.

    [on_skip] receives the {!Ifko_analysis.Legality} rejection
    diagnostic (IFK012) whenever a requested transform refused its
    parameters; the point still compiles, without that transform. *)
