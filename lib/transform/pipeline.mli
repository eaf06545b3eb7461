(** The FKO optimization pipeline.

    Applies the fundamental transformations in their fixed order
    (SV, UR, LC, AE, PF, WNT — paper Section 2.2.3), then iterates the
    repeatable block (copy propagation, peephole, dead code, control
    flow cleanup) to a fixed point, allocates registers, and runs a
    final cleanup.  The input [compiled] kernel is never mutated; each
    call works on a fresh copy so the search can probe many parameter
    points from one lowering.

    The repeatable block reaches the fixpoint of the paper's loop
    ("until no further changes occur") without its confirming round: a
    pass runs again only when a pass that can enable it changed the
    function since, and the block-local passes only on blocks changed
    since their own last run (the rule and its argument are in
    [pipeline.ml]).  One liveness result serves each round and carries
    through control-flow cleanup into register allocation; it is
    recomputed only after a change that can move a block boundary's
    liveness. *)

val snapshot : Ifko_codegen.Lower.compiled -> Ifko_codegen.Lower.compiled
(** Deep-copy a compiled kernel (blocks and loop-nest bookkeeping). *)

val protected_labels : Ifko_codegen.Lower.compiled -> string list
(** The loop-nest labels the repeatable block must keep (preheader,
    header, latch, mid, exit and any cleanup loop): later passes still
    find the loop by them. *)

val max_repeat : int
(** Round budget of the repeatable block (a diagnostic is emitted when
    the fixpoint is not reached within it). *)

val repeatable : ?on_pass:(string -> unit) -> ?protect:string list -> Cfg.func -> int
(** Iterate the repeatable-transformation block until nothing changes;
    returns the number of rounds a loop running every pass per round
    would take, its final confirming round included (at least 1) —
    whether or not that round had to run.  [on_pass] is called with a
    pass name (e.g. ["deadcode (round 2)"]) after every sub-pass that
    changed the function — the per-pass checking hook; it must not
    change the function itself.  If {!max_repeat} rounds do not reach
    the fixpoint, an [IFK009] diagnostic is printed to stderr. *)

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
