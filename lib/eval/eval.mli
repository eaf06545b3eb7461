(** The evaluation harness: reruns the paper's experiments.

    One {!study} gathers, for a machine/context pair, every tuning
    method's performance on all fourteen kernels — exactly the data
    behind the paper's Figures 2-4 — plus the searched parameters
    (Table 3) and the per-transformation speedup decomposition
    (Figure 7).  The figure/table renderers in {!Figures} consume
    studies. *)

type method_id = Gcc_ref | Icc_ref | Icc_prof | Atlas | Fko | Ifko

val method_name : method_id -> string
val methods : method_id list

type kernel_result = {
  kernel : Ifko_blas.Defs.kernel_id;
  display_name : string;  (** ATLAS winner's [*] suffix applies here *)
  mflops : (method_id * float) list;
  atlas_candidate : string;  (** which hand-tuned implementation won *)
  tuned : Ifko_search.Driver.tuned;  (** the full ifko search result *)
  verified : bool;  (** every method's kernel passed the tester *)
}

type study = {
  cfg : Ifko_machine.Config.t;
  context : Ifko_sim.Timer.context;
  n : int;
  seed : int;
  results : kernel_result list;
}

val make_test : Ifko_blas.Defs.kernel_id -> seed:int -> Cfg.func -> bool
(** The tester every method's kernel must pass: agreement with the
    reference implementation (within the kernel's tolerance) on sizes
    0, 1, 5, 63, 64 and 257, which exercise the remainder loops, on
    data drawn from [seed + 1]. *)

val run_study :
  ?kernels:Ifko_blas.Defs.kernel_id list ->
  ?progress:(string -> unit) ->
  ?store:Ifko_store.Store.t ->
  ?jobs:int ->
  cfg:Ifko_machine.Config.t ->
  context:Ifko_sim.Timer.context ->
  n:int ->
  seed:int ->
  unit ->
  study
(** Tune and time everything.  [progress] receives one line per kernel
    (the studies take tens of seconds; the bench uses this to narrate).
    [store] journals every probe and baseline timing persistently, so a
    rerun of the same study is answered from disk; [jobs] parallelizes
    the ifko search's probe evaluation (see {!Ifko_search.Driver.tune}
    — results are bit-identical for any [jobs]). *)

val best_mflops : kernel_result -> float
(** The best performance any method achieved on this kernel (the 100%
    reference of the relative figures). *)

val percent : kernel_result -> method_id -> float
(** A method's performance as a percentage of the best. *)

val average_percent : study -> method_id -> float
(** The figures' AVG column. *)

val vector_average_percent : study -> method_id -> float
(** The figures' VAVG column: the average over operations where SIMD
    vectorization was successfully applied (i.e. excluding iamax). *)
