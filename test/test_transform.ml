(* Transformation tests.

   The central property: for EVERY kernel and ANY parameter point, the
   fully transformed (and register-allocated) code computes the same
   results as the reference implementation.  Structural tests then pin
   down what each transformation is supposed to do to the code. *)
open Ifko_blas
open Ifko_transform

let compile id = Hil_sources.compile id

let apply ?(line = 128) id params = Pipeline.apply ~line_bytes:line (compile id) params

let verify_params ?(sizes = [ 0; 1; 2; 3; 31; 32; 64; 257 ]) id params =
  let c = apply id params in
  List.iter
    (fun n ->
      let env = Workload.make_env id ~seed:9 n in
      let expect = Workload.expectation id ~seed:9 n in
      let tol = Workload.tolerance id ~n in
      match
        Ifko_sim.Verify.check ~tol ~ret_fsize:id.Defs.prec c.Ifko_codegen.Lower.func env
          expect
      with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s %s n=%d: %s" (Defs.name id) (Params.to_string params) n e)
    sizes

let default_for id =
  Params.default ~line_bytes:128 (Ifko_analysis.Report.analyze (compile id))

(* ---------- the big property ---------- *)

let params_gen id =
  let open QCheck.Gen in
  let d = default_for id in
  let* sv = bool in
  let* unroll = oneofl [ 1; 2; 3; 4; 5; 8; 16 ] in
  let* lc = bool in
  let* ae = oneofl [ 0; 2; 3; 4; 8 ] in
  let* wnt = bool in
  let* pf_on = bool in
  let* kind = oneofl [ Instr.Nta; Instr.T0; Instr.T1; Instr.W ] in
  let* dist = oneofl [ 0; 64; 128; 640; 2048 ] in
  let* bf = oneofl [ 0; 0; 0; 2048; 4096 ] in
  let* cisc = oneofl [ false; false; false; true ] in
  return
    {
      Params.sv;
      unroll;
      lc;
      ae;
      wnt;
      prefetch =
        (if pf_on then
           List.map
             (fun (a, _) -> (a, { Params.pf_ins = Some kind; pf_dist = dist }))
             d.Params.prefetch
         else []);
      bf;
      cisc;
    }

let prop_any_point_correct id =
  QCheck.Test.make
    ~name:(Printf.sprintf "any parameter point is correct: %s" (Defs.name id))
    ~count:12
    (QCheck.make (params_gen id) ~print:Params.to_string)
    (fun params ->
      verify_params ~sizes:[ 0; 1; 7; 65; 130 ] id params;
      true)

let properties = List.map prop_any_point_correct Defs.all

(* ---------- per-transformation structure ---------- *)

let count_instrs pred (f : Cfg.func) =
  List.fold_left
    (fun acc b -> acc + List.length (List.filter pred b.Block.instrs))
    0 f.Cfg.blocks

let test_simd_vectorizes () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.S } in
  let d = default_for id in
  let c = apply id { d with Params.sv = true; unroll = 1; ae = 0; prefetch = []; wnt = false } in
  let f = c.Ifko_codegen.Lower.func in
  Alcotest.(check bool) "has vector loads" true
    (count_instrs (function Instr.Vld _ -> true | _ -> false) f > 0);
  Alcotest.(check bool) "has a horizontal reduce" true
    (count_instrs (function Instr.Vreduce _ -> true | _ -> false) f = 1);
  (* per_iter multiplied by the vector length *)
  match c.Ifko_codegen.Lower.loopnest with
  | Some ln -> Alcotest.(check int) "per_iter = veclen" 4 ln.Ifko_codegen.Loopnest.per_iter
  | None -> Alcotest.fail "loopnest lost"

let test_simd_refuses_iamax () =
  let id = { Defs.routine = Defs.Iamax; prec = Instr.S } in
  let d = default_for id in
  Alcotest.(check bool) "default does not request SV" false d.Params.sv;
  (* even if requested, SV must refuse *)
  let c = apply id { d with Params.sv = true; prefetch = [] } in
  Alcotest.(check int) "no vector instructions" 0
    (count_instrs
       (function Instr.Vld _ | Instr.Vop _ | Instr.Vst _ -> true | _ -> false)
       c.Ifko_codegen.Lower.func)

let test_unroll_folds_displacements () =
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let d = default_for id in
  let c = apply id { d with Params.sv = false; unroll = 4; prefetch = []; wnt = false; ae = 0 } in
  let f = c.Ifko_codegen.Lower.func in
  (* the unrolled body should contain loads at distinct displacements
     and exactly one bump per pointer *)
  let disps = ref [] in
  Cfg.iter_instrs f (fun i ->
      match i with Instr.Fld (_, _, m) -> disps := m.Instr.disp :: !disps | _ -> ());
  Alcotest.(check bool) "displacements 0,8,16,24 present" true
    (List.for_all (fun d -> List.mem d !disps) [ 0; 8; 16; 24 ]);
  match c.Ifko_codegen.Lower.loopnest with
  | Some ln ->
    Alcotest.(check int) "per_iter" 4 ln.Ifko_codegen.Loopnest.per_iter;
    Alcotest.(check bool) "cleanup materialized" true
      (ln.Ifko_codegen.Loopnest.cleanup <> None)
  | None -> Alcotest.fail "loopnest lost"

let test_unroll_control_flow_body () =
  (* iamax unrolls by block duplication *)
  let id = { Defs.routine = Defs.Iamax; prec = Instr.D } in
  let d = default_for id in
  let before = apply id { d with Params.unroll = 1; prefetch = [] } in
  let after = apply id { d with Params.unroll = 8; prefetch = [] } in
  Alcotest.(check bool) "more blocks when unrolled" true
    (List.length after.Ifko_codegen.Lower.func.Cfg.blocks
    > List.length before.Ifko_codegen.Lower.func.Cfg.blocks);
  verify_params id { d with Params.unroll = 8; prefetch = [] }

let test_lc_fuses () =
  let id = { Defs.routine = Defs.Scal; prec = Instr.D } in
  let d = default_for id in
  let with_lc = apply id { d with Params.lc = true; prefetch = [] } in
  let fused (f : Cfg.func) =
    List.exists
      (fun b -> match b.Block.term with Block.Br { dec; _ } -> dec > 0 | _ -> false)
      f.Cfg.blocks
  in
  Alcotest.(check bool) "fused countdown present" true (fused with_lc.Ifko_codegen.Lower.func);
  let without = apply id { d with Params.lc = false; prefetch = [] } in
  Alcotest.(check bool) "no fusion without LC" false (fused without.Ifko_codegen.Lower.func)

let test_ae_rotates_accumulators () =
  let id = { Defs.routine = Defs.Asum; prec = Instr.D } in
  let d = default_for id in
  let c =
    Pipeline.apply ~line_bytes:128 ~skip_regalloc:true (compile id)
      { d with Params.sv = false; unroll = 8; ae = 4; prefetch = []; lc = false }
  in
  let f = c.Ifko_codegen.Lower.func in
  (* distinct destination registers of the accumulating adds *)
  let dests = ref Reg.Set.empty in
  Cfg.iter_instrs f (fun i ->
      match i with
      | Instr.Fop (_, Instr.Fadd, dreg, a, _) when Reg.equal dreg a ->
        dests := Reg.Set.add dreg !dests
      | _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "%d accumulators in flight" (Reg.Set.cardinal !dests))
    true
    (Reg.Set.cardinal !dests >= 4)

let test_ae_clamped_without_unroll () =
  (* one add per iteration: AE must clamp to nothing *)
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let d = default_for id in
  verify_params id { d with Params.sv = false; unroll = 1; ae = 8; prefetch = [] }

let test_prefetch_inserted () =
  let id = { Defs.routine = Defs.Axpy; prec = Instr.D } in
  let d = default_for id in
  let c = apply id d in
  let n_pf =
    count_instrs (function Instr.Prefetch _ -> true | _ -> false) c.Ifko_codegen.Lower.func
  in
  (* default unroll 16, vectorized x2 = 32 doubles = 256 bytes per
     iteration per array = two 128-byte lines each: 4 prefetches *)
  Alcotest.(check int) "prefetches for both arrays" 4 n_pf;
  let c64 = Pipeline.apply ~line_bytes:64 (compile id) d in
  Alcotest.(check int) "smaller line, more prefetches" 8
    (count_instrs (function Instr.Prefetch _ -> true | _ -> false) c64.Ifko_codegen.Lower.func)

let test_wnt_rewrites_stores () =
  let id = { Defs.routine = Defs.Copy; prec = Instr.S } in
  let d = default_for id in
  let c = apply id { d with Params.wnt = true } in
  let f = c.Ifko_codegen.Lower.func in
  Alcotest.(check bool) "nt stores present" true
    (count_instrs (function Instr.Vstnt _ | Instr.Fstnt _ -> true | _ -> false) f > 0);
  (* the X array of copy is input-only: its loads must be untouched *)
  let c2 = apply { Defs.routine = Defs.Dot; prec = Instr.S } { d with Params.wnt = true } in
  Alcotest.(check int) "no outputs, no nt stores" 0
    (count_instrs
       (function Instr.Vstnt _ | Instr.Fstnt _ -> true | _ -> false)
       c2.Ifko_codegen.Lower.func)

(* ---------- repeatable transformations ---------- *)

let gpr i = Reg.virt Reg.Gpr i
let xmm i = Reg.virt Reg.Xmm i
let mem ?(disp = 0) base = Instr.mk_mem ~disp base

let test_copyprop () =
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Ildi (gpr 0, 5);
          Instr.Imov (gpr 1, gpr 0);
          Instr.Iop (Instr.Iadd, gpr 2, gpr 1, Instr.Oreg (gpr 1));
        ]
      ~term:(Block.Ret (Some (gpr 2)))
  in
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <- [ b ];
  Alcotest.(check bool) "changed" true (Copyprop.run f);
  (match b.Block.instrs with
  | [ _; _; Instr.Iop (Instr.Iadd, _, a, Instr.Oreg b') ] ->
    Alcotest.(check bool) "uses propagated to the source" true
      (Reg.equal a (gpr 0) && Reg.equal b' (gpr 0))
  | _ -> Alcotest.fail "unexpected shape");
  (* a redefinition must kill the copy *)
  let b2 =
    Block.make "entry"
      ~instrs:
        [ Instr.Imov (gpr 1, gpr 0);
          Instr.Ildi (gpr 0, 9);
          Instr.Imov (gpr 2, gpr 1);
        ]
      ~term:(Block.Ret (Some (gpr 2)))
  in
  let f2 = Cfg.create ~name:"t" ~params:[] in
  f2.Cfg.blocks <- [ b2 ];
  ignore (Copyprop.run f2 : bool);
  match b2.Block.instrs with
  | [ _; _; Instr.Imov (_, src) ] ->
    Alcotest.(check bool) "stale copy not propagated" true (Reg.equal src (gpr 1))
  | _ -> Alcotest.fail "unexpected shape"

let test_deadcode () =
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Ildi (gpr 0, 5);
          Instr.Ildi (gpr 1, 6); (* dead *)
          Instr.Fldi (Instr.D, xmm 0, 1.0); (* dead *)
          Instr.Fst (Instr.D, mem (gpr 0), xmm 1); (* store: kept *)
        ]
      ~term:(Block.Ret (Some (gpr 0)))
  in
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <- [ b ];
  Alcotest.(check bool) "changed" true (Deadcode.run f);
  Alcotest.(check int) "two instrs remain" 2 (List.length b.Block.instrs)

let test_faint_code () =
  (* self-updating register used nowhere else dies even in a loop *)
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 0, 10); Instr.Ildi (gpr 1, 0) ]
        ~term:(Block.Jmp "loop");
      Block.make "loop"
        ~instrs:[ Instr.Iop (Instr.Iadd, gpr 1, gpr 1, Instr.Oimm 1) ]
        ~term:
          (Block.Br
             { cmp = Instr.Ge; lhs = gpr 0; rhs = Instr.Oimm 1; ifso = "loop"; ifnot = "out";
               dec = 1 });
      Block.make "out" ~term:(Block.Ret None);
    ];
  ignore (Deadcode.run f : bool);
  Alcotest.(check int) "faint self-update removed" 0
    (List.length (Cfg.find_block_exn f "loop").Block.instrs)

let test_peephole_folds () =
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Fld (Instr.D, xmm 1, mem ~disp:8 (gpr 0));
          Instr.Fop (Instr.D, Instr.Fmul, xmm 2, xmm 0, xmm 1);
        ]
      ~term:(Block.Ret (Some (xmm 2)))
  in
  let f = Cfg.create ~name:"t" ~params:[ ("A", gpr 0) ] in
  f.Cfg.blocks <- [ b ];
  Alcotest.(check bool) "changed" true (Peephole.run f);
  match b.Block.instrs with
  | [ Instr.Fopm (Instr.D, Instr.Fmul, _, _, m) ] ->
    Alcotest.(check int) "memory operand kept" 8 m.Instr.disp
  | _ -> Alcotest.fail "load not folded"

let test_peephole_no_fold_when_live () =
  (* the loaded value is used twice: folding would lose it *)
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Fld (Instr.D, xmm 1, mem (gpr 0));
          Instr.Fop (Instr.D, Instr.Fmul, xmm 2, xmm 0, xmm 1);
          Instr.Fop (Instr.D, Instr.Fadd, xmm 3, xmm 2, xmm 1);
        ]
      ~term:(Block.Ret (Some (xmm 3)))
  in
  let f = Cfg.create ~name:"t" ~params:[ ("A", gpr 0) ] in
  f.Cfg.blocks <- [ b ];
  ignore (Peephole.run f : bool);
  Alcotest.(check int) "three instrs stay" 3 (List.length b.Block.instrs)

let test_peephole_no_fold_two_uses () =
  (* the second use is the terminator's: still two uses, no fold *)
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Fld (Instr.D, xmm 1, mem (gpr 0));
          Instr.Fop (Instr.D, Instr.Fmul, xmm 2, xmm 0, xmm 1);
        ]
      ~term:
        (Block.Fbr
           { fsize = Instr.D; cmp = Instr.Lt; lhs = xmm 1; rhs = xmm 2; ifso = "out"; ifnot = "out" })
  in
  let f = Cfg.create ~name:"t" ~params:[ ("A", gpr 0) ] in
  f.Cfg.blocks <- [ b; Block.make "out" ~term:(Block.Ret None) ];
  ignore (Peephole.run f : bool);
  match b.Block.instrs with
  | [ Instr.Fld _; Instr.Fop _ ] -> ()
  | _ -> Alcotest.fail "a load with two uses was folded"

let test_peephole_folds_two_loads () =
  (* two folds in one block: the use-count table, kept across the
     first fold, must still let the second one fire *)
  let b =
    Block.make "entry"
      ~instrs:
        [ Instr.Fld (Instr.D, xmm 1, mem (gpr 0));
          Instr.Fop (Instr.D, Instr.Fmul, xmm 2, xmm 0, xmm 1);
          Instr.Fld (Instr.D, xmm 3, mem ~disp:8 (gpr 0));
          Instr.Fop (Instr.D, Instr.Fadd, xmm 4, xmm 2, xmm 3);
        ]
      ~term:(Block.Ret (Some (xmm 4)))
  in
  let f = Cfg.create ~name:"t" ~params:[ ("A", gpr 0) ] in
  f.Cfg.blocks <- [ b ];
  Alcotest.(check bool) "changed" true (Peephole.run f);
  match b.Block.instrs with
  | [ Instr.Fopm (_, Instr.Fmul, _, _, m1); Instr.Fopm (_, Instr.Fadd, _, _, m2) ] ->
    Alcotest.(check (pair int int)) "memory operands" (0, 8) (m1.Instr.disp, m2.Instr.disp)
  | _ -> Alcotest.fail "both loads should fold"

let test_branchopt () =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry" ~term:(Block.Jmp "hop");
      Block.make "hop" ~term:(Block.Jmp "work");
      Block.make "work" ~instrs:[ Instr.Ildi (gpr 0, 1) ] ~term:(Block.Ret (Some (gpr 0)));
      Block.make "dead" ~term:(Block.Ret None);
    ];
  ignore (Branchopt.run f : bool);
  ignore (Branchopt.run f : bool);
  Alcotest.(check int) "merged to a single block" 1 (List.length f.Cfg.blocks);
  Alcotest.(check string) "entry stays" "entry" (Cfg.entry f).Block.label

let test_branchopt_protect () =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry" ~term:(Block.Jmp "keepme");
      Block.make "keepme" ~instrs:[ Instr.Ildi (gpr 0, 1) ] ~term:(Block.Ret (Some (gpr 0)));
    ];
  ignore (Branchopt.run ~protect:[ "keepme" ] f : bool);
  Alcotest.(check int) "protected label not merged" 2 (List.length f.Cfg.blocks)

let test_pipeline_validates_physical () =
  List.iter
    (fun id ->
      let d = default_for id in
      let c = apply id { d with Params.unroll = 8; ae = 3 } in
      Validate.check_physical c.Ifko_codegen.Lower.func)
    Defs.all

let suite =
  List.map QCheck_alcotest.to_alcotest properties
  @ [ Alcotest.test_case "SV vectorizes dot" `Quick test_simd_vectorizes;
      Alcotest.test_case "SV refuses iamax" `Quick test_simd_refuses_iamax;
      Alcotest.test_case "UR folds displacements" `Quick test_unroll_folds_displacements;
      Alcotest.test_case "UR with control flow" `Quick test_unroll_control_flow_body;
      Alcotest.test_case "LC fuses countdown" `Quick test_lc_fuses;
      Alcotest.test_case "AE rotates accumulators" `Quick test_ae_rotates_accumulators;
      Alcotest.test_case "AE clamps without unroll" `Quick test_ae_clamped_without_unroll;
      Alcotest.test_case "PF inserted per line" `Quick test_prefetch_inserted;
      Alcotest.test_case "WNT rewrites stores" `Quick test_wnt_rewrites_stores;
      Alcotest.test_case "copy propagation" `Quick test_copyprop;
      Alcotest.test_case "dead code" `Quick test_deadcode;
      Alcotest.test_case "faint code" `Quick test_faint_code;
      Alcotest.test_case "peephole folds loads" `Quick test_peephole_folds;
      Alcotest.test_case "peephole keeps live loads" `Quick test_peephole_no_fold_when_live;
      Alcotest.test_case "peephole keeps two-use loads" `Quick test_peephole_no_fold_two_uses;
      Alcotest.test_case "peephole folds two loads" `Quick test_peephole_folds_two_loads;
      Alcotest.test_case "branch cleanup" `Quick test_branchopt;
      Alcotest.test_case "branch cleanup protection" `Quick test_branchopt_protect;
      Alcotest.test_case "pipeline emits physical code" `Quick test_pipeline_validates_physical;
    ]
