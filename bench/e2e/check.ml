(* The output check: a kernel is run on sizes that exercise remainder
   loops and compared with Ref_impl's results for the same seeded
   inputs.  Tune operations get it as their tester, and the benchmark
   re-runs it on every winner it is handed back.  Spans name each
   public call it makes (visible only in a traced run). *)

open Ifko_blas

let sizes = [ 0; 1; 5; 63; 64; 257 ]

let reference id ~seed func =
  Trace.span "sim.verify" (fun () ->
      let cf = Trace.span "sim.exec_compile" (fun () -> Ifko_sim.Exec.compile func) in
      List.for_all
        (fun n ->
          let env =
            Trace.span "sim.verify_env" (fun () -> Workload.make_env id ~seed:(seed + 1) n)
          in
          let expect =
            Trace.span "sim.verify_expect" (fun () ->
                Workload.expectation id ~seed:(seed + 1) n)
          in
          Ifko_sim.Verify.check_compiled ~tol:(Workload.tolerance id ~n)
            ~ret_fsize:id.Defs.prec cf env expect
          = Ok ())
        sizes)
