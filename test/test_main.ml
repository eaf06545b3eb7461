(* The aggregated test runner: `dune runtest` executes every suite. *)

let () =
  Alcotest.run "ifko"
    [ ("util", Test_util.suite);
      ("hil", Test_hil.suite);
      ("lil", Test_lil.suite);
      ("codegen", Test_codegen.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("depend", Test_depend.suite);
      ("machine", Test_machine.suite);
      ("sim", Test_sim.suite);
      ("ckpt", Test_ckpt.suite);
      ("exec-compiled", Test_exec_compiled.suite);
      ("transform", Test_transform.suite);
      ("pipeline-golden", Test_pipeline_golden.suite);
      ("regalloc", Test_regalloc.suite);
      ("par", Test_par.suite);
      ("store", Test_store.suite);
      ("search", Test_search.suite);
      ("serve", Test_serve.suite);
      ("extensions", Test_extensions.suite);
      ("fuzz", Test_fuzz.suite);
      ("extras", Test_extras.suite);
      ("blas", Test_blas.suite);
      ("baselines", Test_baselines.suite);
      ("integration", Test_integration.suite);
    ]
