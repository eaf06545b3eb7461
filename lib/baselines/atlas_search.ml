(** ATLAS's install-time empirical search.

    For each routine ATLAS times every hand-tuned implementation (over
    a small grid of prefetch settings and write-hint choices) in the
    target context and keeps the fastest — "the best kernel found by
    ATLAS's empirical search".  When the winner is an all-assembly
    kernel its name carries the [*] suffix, exactly as in the paper's
    figures. *)

open Ifko_blas
open Ifko_machine

type selection = {
  kernel_name : string;  (** e.g. ["dcopy*"] when assembly won *)
  candidate : string;
  func : Cfg.func;
  mflops : float;
}

(* The hand-tuned kernels embed their prefetch structure; ATLAS's
   install-time search only tries each implementation with its inline
   prefetch enabled or disabled (the fine-grained distance search is
   exactly what ifko adds over ATLAS). *)
let pf_grid (cfg : Config.t) =
  let line = cfg.Config.prefetchable_line in
  [ None; Some (Instr.Nta, 8 * line) ]

(* The MFLOPS of one built function, timed at full fidelity and
   journaled in the store under [Store.timing_key] (keyed by the
   rendered code, so editing a kernel misses): the ATLAS candidates
   below, and Eval's compiler-model rows.  [kind] namespaces the key;
   [params] and [prov] are what the journal records beside it. *)
let time_func ?store ~kind ~params ~prov ~seed ~cfg ~context ~spec ~n ~flops_per_n func =
  match
    Ifko_store.Store.cached ?store
      ~key:
        (Ifko_store.Store.timing_key ~kind ~func:(Cfg.to_string func)
           ~machine:cfg.Config.name
           ~context:(Ifko_sim.Timer.context_name context)
           ~n ~seed)
      ~params ~prov
      (fun () ->
        let cycles = Ifko_sim.Timer.measure ~cfg ~context ~spec ~n func in
        Ifko_store.Store.Timed
          { cycles; mflops = Ifko_sim.Timer.mflops ~cfg ~flops_per_n ~n ~cycles })
  with
  | Ifko_store.Store.Timed { mflops; _ } -> mflops
  | Ifko_store.Store.Test_failed | Ifko_store.Store.Illegal -> neg_infinity

let select ?store ~cfg ~context ~n ~seed (id : Defs.kernel_id) =
  let spec = Workload.timer_spec id ~seed in
  let flops_per_n = Defs.flops_per_n id.Defs.routine in
  (* Some grid settings build identical code (no output array to write
     non-temporally, a candidate that ignores the prefetch setting):
     each distinct function is timed once, and a repeat, equal and so
     never strictly better, leaves the winner as it was. *)
  let timed = Hashtbl.create 16 in
  let time (cand : Atlas_kernels.candidate) pf wnt func =
    let text = Cfg.to_string func in
    match Hashtbl.find_opt timed text with
    | Some mflops -> mflops
    | None ->
      let mflops =
        time_func ?store ~kind:"atlas"
          ~params:
            (Printf.sprintf "%s pf=%s wnt=%b" cand.Atlas_kernels.cand_name
               (match pf with
               | None -> "none"
               | Some (_, d) -> string_of_int d)
               wnt)
          ~prov:
            (Printf.sprintf "atlas:%s@%s/%s/n=%d" (Defs.name id) cfg.Config.name
               (Ifko_sim.Timer.context_name context)
               n)
          ~seed ~cfg ~context ~spec ~n ~flops_per_n func
      in
      Hashtbl.add timed text mflops;
      mflops
  in
  let best = ref None in
  List.iter
    (fun (cand : Atlas_kernels.candidate) ->
      List.iter
        (fun pf ->
          List.iter
            (fun wnt ->
              match cand.Atlas_kernels.build ~cfg ~pf ~wnt with
              | exception _ -> () (* a candidate that fails to build is skipped *)
              | func ->
                (* building is construction, timing is simulation: only
                   the timing is worth journaling *)
                let mflops = time cand pf wnt func in
                let better =
                  match !best with None -> true | Some (m, _, _) -> mflops > m
                in
                if better then best := Some (mflops, cand, func))
            [ false; true ])
        (pf_grid cfg))
    (Atlas_kernels.candidates id);
  match !best with
  | None -> invalid_arg "Atlas_search.select: no candidate built"
  | Some (mflops, cand, func) ->
    {
      kernel_name =
        (Defs.name id ^ if cand.Atlas_kernels.assembly then "*" else "");
      candidate = cand.Atlas_kernels.cand_name;
      func;
      mflops;
    }
