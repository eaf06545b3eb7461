(** The differential oracle.

    For a lowered kernel and one parameter point, the full
    {!Ifko_transform.Pipeline.apply} result is executed on seeded
    workloads over a ladder of problem sizes and compared against the
    untransformed lowering — the semantic reference for arbitrary
    generated kernels.  Comparison is exact (IEEE equality, NaN==NaN)
    for kernels without floating-point reductions (copies, swaps,
    element-wise maps, integer results), and ULP-tolerant with an
    absolute near-zero floor where vectorization or accumulator
    expansion may legitimately reassociate a reduction
    ({!Gen.has_fp_reduction}, {!Ifko_sim.Verify.close_reduction}),
    through {!Ifko_sim.Verify.outputs} and {!Ifko_sim.Verify.mismatch}. *)

type verdict =
  | Agree  (** every size matched *)
  | Rejected of string
      (** the pipeline refused the point (boundary/illegal parameter),
          or the reference itself trapped — not a miscompilation *)
  | Mismatch of { size : int; detail : string }
      (** differential divergence, a trap in the transformed kernel, or
          a per-pass validation failure ([size = -1]) — a compiler bug *)

val default_sizes : int list
(** The problem-size ladder: 0 and 1 (degenerate trips), small primes,
    and sizes spanning several unrolled/vectorized bodies plus cleanup
    remainders. *)

val make_env : seed:int -> Ifko_codegen.Lower.compiled -> int -> Ifko_sim.Env.t
(** Deterministic workload from the kernel's own signature: int
    parameters bound to the problem size, fp scalars to a seeded random
    value, arrays to seeded random vectors over-allocated (2n + 32
    elements) so strided kernels stay in bounds.  It differs from
    {!Ifko_search.Generic.spec} on purpose: the padding and the random
    scalars stress more of each kernel than a tune's fixed 0.77 and
    exact-length arrays do. *)

val check :
  ?check_each_pass:bool ->
  ?strict_arrays:bool ->
  ?inject:string * (Ifko_codegen.Lower.compiled -> unit) ->
  ?sizes:int list ->
  cfg:Ifko_machine.Config.t ->
  seed:int ->
  Ifko_codegen.Lower.compiled ->
  Ifko_transform.Params.t ->
  verdict
(** Run the differential check.  [check_each_pass] additionally runs
    the lint + translation-validation suite after every pipeline pass
    ({!Ifko_transform.Passcheck.of_spec} over
    {!Ifko_search.Generic.spec}); a [Pass_failed] surfaces as
    [Mismatch] naming the pass.  [strict_arrays] compares array
    contents bit-exactly even for reduction kernels — sound exactly
    when {!Ifko_analysis.Depend} proved every array reference
    independent, which is the fuzzer's cross-check of that claim.
    [inject] is test-only fault injection forwarded to
    {!Ifko_transform.Pipeline.apply}. *)
