(* Analysis tests: liveness on hand-built CFGs, vectorizability
   verdicts, accumulator and moving-pointer detection, and the report
   the search consumes. *)
open Ifko_blas
open Ifko_analysis

let gpr i = Reg.virt Reg.Gpr i
let xmm i = Reg.virt Reg.Xmm i
let mem base = Instr.mk_mem base

let test_liveness_straightline () =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry"
        ~instrs:
          [ Instr.Ildi (gpr 0, 1);
            Instr.Ildi (gpr 1, 2);
            Instr.Iop (Instr.Iadd, gpr 2, gpr 0, Instr.Oreg (gpr 1));
          ]
        ~term:(Block.Ret (Some (gpr 2)));
    ];
  let live = Liveness.compute f in
  Alcotest.(check bool) "nothing live into entry" true
    (Reg.Set.is_empty (Liveness.live_in live "entry"));
  let per = Liveness.live_before_each live (Cfg.entry f) in
  (match per with
  | [ (_, l1); (_, l2); (_, l3) ] ->
    Alcotest.(check bool) "g0 live after its def" true (Reg.Set.mem (gpr 0) l1);
    Alcotest.(check bool) "g0,g1 live before add" true
      (Reg.Set.mem (gpr 0) l2 && Reg.Set.mem (gpr 1) l2);
    Alcotest.(check bool) "only g2 lives to the ret" true
      (Reg.Set.mem (gpr 2) l3 && not (Reg.Set.mem (gpr 0) l3))
  | _ -> Alcotest.fail "3 instrs expected")

let test_liveness_loop () =
  (* a loop-carried register must be live throughout the loop *)
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 0, 10); Instr.Ildi (gpr 1, 0) ]
        ~term:(Block.Jmp "head");
      Block.make "head"
        ~term:
          (Block.Br
             { cmp = Instr.Lt; lhs = gpr 0; rhs = Instr.Oimm 1; ifso = "out"; ifnot = "body";
               dec = 0 });
      Block.make "body"
        ~instrs:
          [ Instr.Iop (Instr.Iadd, gpr 1, gpr 1, Instr.Oimm 1);
            Instr.Iop (Instr.Isub, gpr 0, gpr 0, Instr.Oimm 1);
          ]
        ~term:(Block.Jmp "head");
      Block.make "out" ~term:(Block.Ret (Some (gpr 1)));
    ];
  let live = Liveness.compute f in
  Alcotest.(check bool) "accumulator live into head" true
    (Reg.Set.mem (gpr 1) (Liveness.live_in live "head"));
  Alcotest.(check bool) "counter live into body" true
    (Reg.Set.mem (gpr 0) (Liveness.live_in live "body"));
  Alcotest.(check bool) "counter dead after exit" true
    (not (Reg.Set.mem (gpr 0) (Liveness.live_in live "out")))

(* The bit-set liveness against a plain [Reg.Set] fixpoint, written
   out here: every block's live-in and live-out (and the live-out
   derived from the successors' live-in, which the pipeline keeps
   across control-flow cleanup) on the lowered, mid-pipeline and final
   functions of the golden grid and of the fuzz corpus. *)
let reference_liveness (f : Cfg.func) =
  let summary (b : Block.t) =
    let uses = ref Reg.Set.empty and defs = ref Reg.Set.empty in
    let use r = if not (Reg.Set.mem r !defs) then uses := Reg.Set.add r !uses in
    let def r = defs := Reg.Set.add r !defs in
    List.iter
      (fun i ->
        List.iter use (Instr.uses i);
        List.iter def (Instr.defs i))
      b.Block.instrs;
    List.iter use (Block.term_uses b.Block.term);
    List.iter def (Block.term_defs b.Block.term);
    (!uses, !defs)
  in
  let sums = List.map (fun b -> (b.Block.label, summary b)) f.Cfg.blocks in
  let live_in = Hashtbl.create 16 in
  let get l = Option.value ~default:Reg.Set.empty (Hashtbl.find_opt live_in l) in
  let out (b : Block.t) =
    List.fold_left (fun s l -> Reg.Set.union s (get l)) Reg.Set.empty
      (Block.successors b.Block.term)
  in
  let rec sweep () =
    let changed =
      List.fold_left
        (fun changed b ->
          let uses, defs = List.assoc b.Block.label sums in
          let inn = Reg.Set.union uses (Reg.Set.diff (out b) defs) in
          if Reg.Set.equal inn (get b.Block.label) then changed
          else begin
            Hashtbl.replace live_in b.Block.label inn;
            true
          end)
        false f.Cfg.blocks
    in
    if changed then sweep ()
  in
  sweep ();
  (get, out)

let check_liveness what (f : Cfg.func) =
  let get, out = reference_liveness f in
  let live = Liveness.compute f in
  let set = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf
      (String.concat " " (List.map Reg.to_string (Reg.Set.elements s)))) Reg.Set.equal in
  List.iter
    (fun b ->
      let l = b.Block.label in
      Alcotest.check set (what ^ " in " ^ l) (get l) (Liveness.live_in live l);
      Alcotest.check set (what ^ " out " ^ l) (out b) (Liveness.live_out live l);
      Alcotest.check set (what ^ " out_bits " ^ l) (out b)
        (Regbits.to_set (Liveness.out_bits live b)))
    f.Cfg.blocks

let test_liveness_matches_reference () =
  let line_bytes = Test_pipeline_golden.line_bytes in
  let check_point what lowered params =
    check_liveness (what ^ " lowered") lowered.Ifko_codegen.Lower.func;
    let c = Ifko_transform.Pipeline.snapshot lowered in
    let f = c.Ifko_codegen.Lower.func in
    ignore
      (Ifko_transform.Pipeline.repeatable
         ~on_pass:(fun pass -> check_liveness (what ^ " after " ^ pass) f)
         f
        : int);
    match Ifko_transform.Pipeline.apply ~line_bytes lowered params with
    | c -> check_liveness (what ^ " final") c.Ifko_codegen.Lower.func
    | exception _ -> ()
  in
  List.iter
    (fun id ->
      let lowered = Hil_sources.compile id in
      List.iter
        (fun (name, p) -> check_point (Defs.name id ^ " " ^ name) lowered p)
        (Test_pipeline_golden.grid id))
    Defs.all;
  (* [dune runtest] runs in the test directory; [dune exec] from the root *)
  let corpus =
    match Ifko_fuzz.Corpus.files ~dir:"corpus" with
    | [] -> Ifko_fuzz.Corpus.files ~dir:"test/corpus"
    | files -> files
  in
  Alcotest.(check bool) "corpus found" true (corpus <> []);
  List.iter
    (fun path ->
      let case = Ifko_fuzz.Corpus.read path in
      check_point path
        (Ifko_fuzz.Fuzz.compile case.Ifko_fuzz.Corpus.kernel)
        case.Ifko_fuzz.Corpus.params)
    corpus

let vec id = Vecinfo.analyze (Hil_sources.compile id)

let test_vectorizable_verdicts () =
  List.iter
    (fun id ->
      let v = vec id in
      let expected = id.Defs.routine <> Defs.Iamax in
      Alcotest.(check bool)
        (Printf.sprintf "%s vectorizable=%b" (Defs.name id) expected)
        expected v.Vecinfo.vectorizable)
    Defs.all

let test_iamax_reason () =
  let v = vec { Defs.routine = Defs.Iamax; prec = Instr.D } in
  Alcotest.(check bool) "reason mentions control flow" true
    (Test_util.contains v.Vecinfo.reason "control flow")

let test_vec_classes () =
  let v = vec { Defs.routine = Defs.Axpy; prec = Instr.S } in
  let count cls = List.length (List.filter (fun (_, c) -> c = cls) v.Vecinfo.classes) in
  Alcotest.(check int) "alpha is the only invariant" 1 (count Vecinfo.Invariant);
  Alcotest.(check int) "no reductions in axpy" 0 (count Vecinfo.Reduction);
  let vdot = vec { Defs.routine = Defs.Dot; prec = Instr.S } in
  Alcotest.(check int) "dot has one reduction" 1
    (List.length (List.filter (fun (_, c) -> c = Vecinfo.Reduction) vdot.Vecinfo.classes))

let test_accumulators () =
  let accs id = Accuminfo.analyze (Hil_sources.compile id) in
  Alcotest.(check int) "dot has one accumulator" 1
    (List.length (accs { Defs.routine = Defs.Dot; prec = Instr.D }));
  Alcotest.(check int) "asum has one accumulator" 1
    (List.length (accs { Defs.routine = Defs.Asum; prec = Instr.S }));
  Alcotest.(check int) "swap has none" 0
    (List.length (accs { Defs.routine = Defs.Swap; prec = Instr.D }));
  Alcotest.(check int) "copy has none" 0
    (List.length (accs { Defs.routine = Defs.Copy; prec = Instr.D }))

let test_ptrinfo () =
  let moving = Ptrinfo.analyze (Hil_sources.compile { Defs.routine = Defs.Axpy; prec = Instr.D }) in
  Alcotest.(check int) "two moving arrays" 2 (List.length moving);
  List.iter
    (fun (m : Ptrinfo.moving) ->
      Alcotest.(check int) "stride is one double" 8 m.Ptrinfo.stride)
    moving;
  let y = List.find (fun m -> m.Ptrinfo.array.Ifko_codegen.Lower.a_name = "Y") moving in
  Alcotest.(check int) "y loads" 1 y.Ptrinfo.loads;
  Alcotest.(check int) "y stores" 1 y.Ptrinfo.stores

let test_noprefetch_markup () =
  let src =
    {|KERNEL t(N : int, X : ptr double NOPREFETCH, Y : ptr double OUTPUT)
VARS x : double;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    Y[0] = x;
    X += 1;
    Y += 1;
  LOOP_END
END|}
  in
  let c =
    Ifko_codegen.Lower.lower (Ifko_hil.Typecheck.check (Ifko_hil.Parser.parse_kernel src))
  in
  let targets = Ptrinfo.prefetch_targets c in
  Alcotest.(check (list string)) "only Y is a prefetch target" [ "Y" ]
    (List.map (fun m -> m.Ptrinfo.array.Ifko_codegen.Lower.a_name) targets)

let test_report () =
  let r = Report.analyze (Hil_sources.compile { Defs.routine = Defs.Dot; prec = Instr.S }) in
  Alcotest.(check bool) "vectorizable" true r.Report.vectorizable;
  Alcotest.(check (list string)) "no outputs" [] r.Report.output_arrays;
  Alcotest.(check int) "two prefetch arrays" 2 (List.length r.Report.prefetch_arrays);
  let s = Report.to_string r in
  Alcotest.(check bool) "renders" true (Test_util.contains s "SIMD vectorizable: yes");
  let r2 = Report.analyze (Hil_sources.compile { Defs.routine = Defs.Swap; prec = Instr.S }) in
  Alcotest.(check bool) "swap outputs X and Y" true
    (List.sort compare r2.Report.output_arrays = [ "X"; "Y" ])

let suite =
  [ Alcotest.test_case "liveness straightline" `Quick test_liveness_straightline;
    Alcotest.test_case "liveness loop" `Quick test_liveness_loop;
    Alcotest.test_case "liveness = Reg.Set fixpoint" `Quick test_liveness_matches_reference;
    Alcotest.test_case "vectorizable verdicts" `Quick test_vectorizable_verdicts;
    Alcotest.test_case "iamax reason" `Quick test_iamax_reason;
    Alcotest.test_case "scalar classes" `Quick test_vec_classes;
    Alcotest.test_case "accumulators" `Quick test_accumulators;
    Alcotest.test_case "moving pointers" `Quick test_ptrinfo;
    Alcotest.test_case "NOPREFETCH markup" `Quick test_noprefetch_markup;
    Alcotest.test_case "analysis report" `Quick test_report;
  ]
