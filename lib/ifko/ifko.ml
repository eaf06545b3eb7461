(** The public façade of the ifko framework.

    This module wires the paper's Figure 1 together: HIL source in,
    analysis out to the search, iterative tuning over the FKO backend
    with timers and testers, optimized kernel out.  The submodule
    aliases expose the full library surface for users who need the
    pieces individually. *)

module Hil = struct
  module Ast = Ifko_hil.Ast
  module Lexer = Ifko_hil.Lexer
  module Parser = Ifko_hil.Parser
  module Typecheck = Ifko_hil.Typecheck
  module Pp = Ifko_hil.Pp
  module Builder = Ifko_hil.Builder
end

module Lower = Ifko_codegen.Lower
module Loopnest = Ifko_codegen.Loopnest
module Report = Ifko_analysis.Report
module Dataflow = Ifko_analysis.Dataflow
module Diag = Ifko_analysis.Diag
module Lint = Ifko_analysis.Lint
module Absint = Ifko_analysis.Absint
module Depend = Ifko_analysis.Depend
module Legality = Ifko_analysis.Legality
module Ptrinfo = Ifko_analysis.Ptrinfo
module Passcheck = Ifko_transform.Passcheck
module Params = Ifko_transform.Params
module Pipeline = Ifko_transform.Pipeline
module Config = Ifko_machine.Config
module Memsys = Ifko_machine.Memsys
module Env = Ifko_sim.Env
module Exec = Ifko_sim.Exec
module Timer = Ifko_sim.Timer
module Ckpt = Ifko_sim.Ckpt
module Verify = Ifko_sim.Verify
module Search = Ifko_search.Linesearch
module Space = Ifko_search.Space
module Strategy = Ifko_search.Strategy
module Surrogate = Ifko_search.Surrogate
module Warmstart = Ifko_search.Warmstart
module Driver = Ifko_search.Driver
module Generic = Ifko_search.Generic
module Store = Ifko_store.Store
module Par = Ifko_par.Par

(** Tuning as a service: the `ifko serve` daemon, its wire protocol
    and the blocking client.  The daemon's store is an ordinary
    {!Store} directory. *)
module Serve = struct
  module Proto = Ifko_serve.Proto
  module Server = Ifko_serve.Server
  module Client = Ifko_serve.Client
end

(** Differential fuzzing of the full pipeline (generator, parameter
    sampler, oracle, shrinker, reproducer corpus). *)
module Fuzz = struct
  module Gen = Ifko_fuzz.Gen
  module Sample = Ifko_fuzz.Sample
  module Oracle = Ifko_fuzz.Oracle
  module Shrink = Ifko_fuzz.Shrink
  module Corpus = Ifko_fuzz.Corpus
  include Ifko_fuzz.Fuzz
end
module Blas = struct
  module Defs = Ifko_blas.Defs
  module Ref_impl = Ifko_blas.Ref_impl
  module Hil_sources = Ifko_blas.Hil_sources
  module Workload = Ifko_blas.Workload
  module Extras = Ifko_blas.Extras
end

(** The paper's future-work transformations, individually accessible
    (the pipeline applies them via {!Params.t.bf}, {!Params.t.cisc} and
    the [SPECULATE] mark-up). *)
module Extensions = struct
  module Blockfetch = Ifko_transform.Blockfetch
  module Ciscidx = Ifko_transform.Ciscidx
  module Maxloc = Ifko_transform.Maxloc
end
module Baselines = struct
  module Compiler_model = Ifko_baselines.Compiler_model
  module Atlas_kernels = Ifko_baselines.Atlas_kernels
  module Atlas_search = Ifko_baselines.Atlas_search
end

(** [compile_source src] parses, checks and lowers a HIL kernel. *)
let compile_source = Lower.of_source

(** [analyze compiled] runs FKO's analysis phase — what the compiler
    reports back to the search. *)
let analyze = Report.analyze

(** [default_params ~cfg compiled] is FKO's non-empirical default point
    for the kernel on the given machine. *)
let default_params ~cfg compiled =
  Params.default ~line_bytes:cfg.Config.prefetchable_line (analyze compiled)

(** [compile_point ~cfg compiled params] is one FKO invocation: apply
    the transformations, allocate registers, return runnable code. *)
let compile_point ~cfg compiled params =
  Driver.compile_point ~cfg compiled params

(** [tune] is the full iterative and empirical compilation (analysis,
    modified line search with testers and timers). *)
let tune = Driver.tune
