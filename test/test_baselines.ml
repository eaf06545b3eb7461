(* Baseline tests: compiler models, ATLAS's hand-tuned candidates
   (including the all-assembly kernels), its install-time search, and
   the hand-tuning idioms. *)
open Ifko_blas
open Ifko_machine

let verify_func id func =
  List.iter
    (fun n ->
      let env = Workload.make_env id ~seed:31 n in
      let expect = Workload.expectation id ~seed:31 n in
      let tol = Workload.tolerance id ~n in
      match Ifko_sim.Verify.check ~tol ~ret_fsize:id.Defs.prec func env expect with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s n=%d: %s" (Defs.name id) n e)
    [ 0; 1; 2; 15; 64; 513; 1200 ]

let test_compiler_models_correct () =
  List.iter
    (fun (m : Ifko_baselines.Compiler_model.t) ->
      List.iter
        (fun id ->
          let compiled = Hil_sources.compile id in
          verify_func id
            (Ifko_baselines.Compiler_model.compile m ~cfg:Config.p4e
               ~context:Ifko_sim.Timer.Out_of_cache compiled))
        Defs.all)
    Ifko_baselines.Compiler_model.all

let test_gcc_never_vectorizes () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.S } in
  let f =
    Ifko_baselines.Compiler_model.compile Ifko_baselines.Compiler_model.gcc ~cfg:Config.p4e
      ~context:Ifko_sim.Timer.Out_of_cache (Hil_sources.compile id)
  in
  let has_vector = ref false in
  Cfg.iter_instrs f (fun i ->
      match i with Instr.Vld _ | Instr.Vop _ -> has_vector := true | _ -> ());
  Alcotest.(check bool) "gcc stays scalar" false !has_vector

let test_icc_prof_wnt_policy () =
  let id = { Defs.routine = Defs.Swap; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let report = Ifko_analysis.Report.analyze compiled in
  let oc =
    Ifko_baselines.Compiler_model.params Ifko_baselines.Compiler_model.icc_prof
      ~cfg:Config.opteron ~context:Ifko_sim.Timer.Out_of_cache report
  in
  Alcotest.(check bool) "profile applies WNT when streaming" true
    oc.Ifko_transform.Params.wnt;
  let l2 =
    Ifko_baselines.Compiler_model.params Ifko_baselines.Compiler_model.icc_prof
      ~cfg:Config.opteron ~context:Ifko_sim.Timer.In_l2 report
  in
  Alcotest.(check bool) "but not for cache-resident data" false
    l2.Ifko_transform.Params.wnt

let test_icc_prof_blind_wnt_hurts_on_opteron () =
  (* the paper's observation: icc+prof is many times slower than
     icc+ref on Opteron swap/axpy because of blind non-temporal
     stores *)
  let id = { Defs.routine = Defs.Swap; prec = Instr.S } in
  let compiled = Hil_sources.compile id in
  let cfg = Config.opteron in
  let spec = Workload.timer_spec id ~seed:31 in
  let time m =
    let f =
      Ifko_baselines.Compiler_model.compile m ~cfg ~context:Ifko_sim.Timer.Out_of_cache
        compiled
    in
    Ifko_sim.Timer.measure ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 f
  in
  let icc = time Ifko_baselines.Compiler_model.icc in
  let prof = time Ifko_baselines.Compiler_model.icc_prof in
  Alcotest.(check bool)
    (Printf.sprintf "icc+prof (%.0f cy) slower than icc (%.0f cy)" prof icc)
    true (prof > 1.3 *. icc)

let test_atlas_candidates_correct () =
  List.iter
    (fun id ->
      List.iter
        (fun (cand : Ifko_baselines.Atlas_kernels.candidate) ->
          List.iter
            (fun pf ->
              let f = cand.Ifko_baselines.Atlas_kernels.build ~cfg:Config.p4e ~pf ~wnt:false in
              Validate.check_physical f;
              verify_func id f)
            [ None; Some (Instr.Nta, 1024) ])
        (Ifko_baselines.Atlas_kernels.candidates id))
    Defs.all

let test_atlas_has_assembly_specials () =
  let names id =
    List.map
      (fun (c : Ifko_baselines.Atlas_kernels.candidate) -> c.Ifko_baselines.Atlas_kernels.cand_name)
      (Ifko_baselines.Atlas_kernels.candidates id)
  in
  Alcotest.(check bool) "copy has block fetch" true
    (List.mem "block_fetch" (names { Defs.routine = Defs.Copy; prec = Instr.D }));
  Alcotest.(check bool) "iamax has the mask kernel" true
    (List.mem "sse_mask" (names { Defs.routine = Defs.Iamax; prec = Instr.S }))

let test_atlas_search_picks_assembly_iamax () =
  let sel =
    Ifko_baselines.Atlas_search.select ~cfg:Config.p4e ~context:Ifko_sim.Timer.Out_of_cache
      ~n:80000 ~seed:31 { Defs.routine = Defs.Iamax; prec = Instr.S }
  in
  Alcotest.(check string) "vectorized assembly wins" "sse_mask"
    sel.Ifko_baselines.Atlas_search.candidate;
  Alcotest.(check string) "starred name" "isamax*" sel.Ifko_baselines.Atlas_search.kernel_name

let test_two_array_indexing_idiom () =
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let c = Ifko_transform.Pipeline.snapshot compiled in
  (match Ifko_transform.Unroll.apply c 4 with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Ifko_analysis.Diag.to_string d));
  Ifko_transform.Ciscidx.apply c;
  (* pointer bumps replaced by a single shared index update *)
  let f = c.Ifko_codegen.Lower.func in
  (match c.Ifko_codegen.Lower.loopnest with
  | None -> Alcotest.fail "loopnest"
  | Some ln ->
    let body =
      Cfg.find_block_exn f (List.hd (Ifko_codegen.Loopnest.body_labels f ln))
    in
    let bumps =
      List.length
        (List.filter
           (function Instr.Iop (Instr.Iadd, _, _, Instr.Oimm _) -> true | _ -> false)
           body.Block.instrs)
    in
    Alcotest.(check int) "one integer update per iteration" 1 bumps;
    let indexed =
      List.exists
        (function
          | Instr.Fld (_, _, m) | Instr.Fst (_, m, _) -> m.Instr.index <> None
          | _ -> false)
        body.Block.instrs
    in
    Alcotest.(check bool) "accesses use base+index" true indexed);
  (* semantics preserved, via a full pipeline finish *)
  ignore (Ifko_transform.Pipeline.repeatable f : int);
  Ifko_transform.Regalloc.run f;
  Validate.check_physical f;
  verify_func id f

let test_block_fetch_beats_ifko_copy_on_p4e () =
  (* the paper: the hand-tuned dcopy* (block fetch) is the technique
     FKO lacks; it must win on the P4E-like machine *)
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let cfg = Config.p4e in
  let sel =
    Ifko_baselines.Atlas_search.select ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~n:80000
      ~seed:31 id
  in
  Alcotest.(check string) "block fetch selected" "block_fetch"
    sel.Ifko_baselines.Atlas_search.candidate

let suite =
  [ Alcotest.test_case "compiler models correct" `Slow test_compiler_models_correct;
    Alcotest.test_case "gcc never vectorizes" `Quick test_gcc_never_vectorizes;
    Alcotest.test_case "icc+prof WNT policy" `Quick test_icc_prof_wnt_policy;
    Alcotest.test_case "blind WNT hurts on Opteron" `Quick test_icc_prof_blind_wnt_hurts_on_opteron;
    Alcotest.test_case "ATLAS candidates correct" `Slow test_atlas_candidates_correct;
    Alcotest.test_case "ATLAS assembly specials" `Quick test_atlas_has_assembly_specials;
    Alcotest.test_case "ATLAS search picks isamax*" `Slow test_atlas_search_picks_assembly_iamax;
    Alcotest.test_case "two-array indexing idiom" `Quick test_two_array_indexing_idiom;
    Alcotest.test_case "block fetch wins dcopy on P4E" `Slow test_block_fetch_beats_ifko_copy_on_p4e;
  ]
