(* Register allocation tests: physical-file discipline, spill
   correctness under pressure, and parameter binding survival. *)
open Ifko_blas
open Ifko_transform

let test_all_kernels_high_pressure () =
  (* very high unroll + AE forces spills somewhere; code must stay
     correct and strictly within the architectural file *)
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let d = Params.default ~line_bytes:128 (Ifko_analysis.Report.analyze compiled) in
      let params = { d with Params.unroll = 16; ae = 8; prefetch = [] } in
      let c = Pipeline.apply ~line_bytes:128 compiled params in
      Validate.check_physical c.Ifko_codegen.Lower.func;
      let env = Workload.make_env id ~seed:21 99 in
      let expect = Workload.expectation id ~seed:21 99 in
      let tol = Workload.tolerance id ~n:99 in
      match
        Ifko_sim.Verify.check ~tol ~ret_fsize:id.Defs.prec c.Ifko_codegen.Lower.func env
          expect
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s under pressure: %s" (Defs.name id) e)
    Defs.all

let test_spills_happen () =
  (* unrolled iamax carries enough integer state to spill *)
  let id = { Defs.routine = Defs.Iamax; prec = Instr.S } in
  let compiled = Hil_sources.compile id in
  let d = Params.default ~line_bytes:128 (Ifko_analysis.Report.analyze compiled) in
  let c = Pipeline.apply ~line_bytes:128 compiled { d with Params.unroll = 16 } in
  Alcotest.(check bool) "frame slots allocated" true
    (c.Ifko_codegen.Lower.func.Cfg.frame_slots > 0)

let test_no_spills_when_easy () =
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let d = Params.default ~line_bytes:128 (Ifko_analysis.Report.analyze compiled) in
  let c = Pipeline.apply ~line_bytes:128 compiled { d with Params.unroll = 2; prefetch = [] } in
  Alcotest.(check int) "no spills for small copy" 0 c.Ifko_codegen.Lower.func.Cfg.frame_slots

let test_params_rebound () =
  let id = { Defs.routine = Defs.Axpy; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let d = Params.default ~line_bytes:128 (Ifko_analysis.Report.analyze compiled) in
  let c = Pipeline.apply ~line_bytes:128 compiled d in
  let f = c.Ifko_codegen.Lower.func in
  Alcotest.(check (list string)) "parameter names preserved" [ "N"; "alpha"; "X"; "Y" ]
    (List.map fst f.Cfg.params);
  List.iter
    (fun (_, (r : Reg.t)) ->
      Alcotest.(check bool) "params physical" true r.Reg.phys)
    f.Cfg.params;
  (* distinct same-class parameter registers *)
  let gprs =
    List.filter_map
      (fun (_, (r : Reg.t)) -> if r.Reg.cls = Reg.Gpr then Some r.Reg.id else None)
      f.Cfg.params
  in
  Alcotest.(check int) "gpr params distinct" (List.length gprs)
    (List.length (List.sort_uniq compare gprs))

(* A hand-built function whose register ids bypass its id counter,
   with a parameter no instruction reads: allocation sizes its tables
   from the registers the function actually holds. *)
let test_hand_built_ids () =
  let g i = Reg.virt Reg.Gpr i in
  let f = Cfg.create ~name:"t" ~params:[ ("N", g 0); ("unused", g 90) ] in
  f.Cfg.blocks <-
    [ Block.make "entry"
        ~instrs:[ Instr.Iop (Instr.Iadd, g 1, g 0, Instr.Oimm 1) ]
        ~term:(Block.Ret (Some (g 1)));
    ];
  Regalloc.run f;
  Validate.check_physical f;
  Alcotest.(check bool) "params physical" true
    (List.for_all (fun (_, (r : Reg.t)) -> r.Reg.phys) f.Cfg.params)

let suite =
  [ Alcotest.test_case "all kernels under pressure" `Slow test_all_kernels_high_pressure;
    Alcotest.test_case "spills happen" `Quick test_spills_happen;
    Alcotest.test_case "no gratuitous spills" `Quick test_no_spills_when_easy;
    Alcotest.test_case "params rebound" `Quick test_params_rebound;
    Alcotest.test_case "hand-built register ids" `Quick test_hand_built_ids;
  ]
