(* LIL IR tests: def/use bookkeeping, register renaming, block/CFG
   helpers and the structural validator. *)

let gpr i = Reg.virt Reg.Gpr i
let xmm i = Reg.virt Reg.Xmm i
let mem ?(disp = 0) ?index ?(scale = 1) base = Instr.mk_mem ?index ~scale ~disp base

let reg = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (Reg.to_string r)) Reg.equal

let test_defs_uses () =
  let i = Instr.Fop (Instr.D, Instr.Fadd, xmm 0, xmm 1, xmm 2) in
  Alcotest.(check (list reg)) "defs" [ xmm 0 ] (Instr.defs i);
  Alcotest.(check (list reg)) "uses" [ xmm 1; xmm 2 ] (Instr.uses i);
  let st = Instr.Fst (Instr.S, mem ~index:(gpr 2) (gpr 1), xmm 3) in
  Alcotest.(check (list reg)) "store defs nothing" [] (Instr.defs st);
  Alcotest.(check bool) "store uses value+addr" true
    (List.for_all (fun r -> List.exists (Reg.equal r) (Instr.uses st)) [ xmm 3; gpr 1; gpr 2 ]);
  let pf = Instr.Prefetch (Instr.Nta, mem (gpr 4)) in
  Alcotest.(check (list reg)) "prefetch uses base" [ gpr 4 ] (Instr.uses pf);
  Alcotest.(check bool) "prefetch is not a load" false (Instr.is_load pf);
  Alcotest.(check bool) "fopm is a load" true
    (Instr.is_load (Instr.Fopm (Instr.D, Instr.Fmul, xmm 0, xmm 1, mem (gpr 0))));
  Alcotest.(check bool) "vstnt is a store" true
    (Instr.is_store (Instr.Vstnt (Instr.D, mem (gpr 0), xmm 0)))

let test_map_regs () =
  let subst r = if Reg.equal r (gpr 1) then gpr 9 else r in
  let i = Instr.Iop (Instr.Iadd, gpr 1, gpr 1, Instr.Oreg (gpr 2)) in
  (match Instr.map_regs subst i with
  | Instr.Iop (Instr.Iadd, d, a, Instr.Oreg b) ->
    Alcotest.(check reg) "dst renamed" (gpr 9) d;
    Alcotest.(check reg) "src renamed" (gpr 9) a;
    Alcotest.(check reg) "other preserved" (gpr 2) b
  | _ -> Alcotest.fail "shape changed");
  match Instr.map_regs_uses_only subst i with
  | Instr.Iop (Instr.Iadd, d, a, _) ->
    Alcotest.(check reg) "dst untouched" (gpr 1) d;
    Alcotest.(check reg) "use renamed" (gpr 9) a
  | _ -> Alcotest.fail "shape changed"

let test_term_helpers () =
  let br =
    Block.Br
      { cmp = Instr.Ge; lhs = gpr 0; rhs = Instr.Oimm 4; ifso = "a"; ifnot = "b"; dec = 4 }
  in
  Alcotest.(check (list string)) "succs" [ "a"; "b" ] (Block.successors br);
  Alcotest.(check (list reg)) "fused br defines its counter" [ gpr 0 ] (Block.term_defs br);
  Alcotest.(check (list reg)) "uses" [ gpr 0 ] (Block.term_uses br);
  let renamed = Block.map_term_labels (fun l -> l ^ "!") br in
  Alcotest.(check (list string)) "relabel" [ "a!"; "b!" ] (Block.successors renamed);
  Alcotest.(check (list reg)) "ret uses" [ xmm 0 ] (Block.term_uses (Block.Ret (Some (xmm 0))))

let mk_func blocks =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <- blocks;
  Ifko_util.Ids.reserve f.Cfg.reg_ids 100;
  f

let test_cfg_helpers () =
  let b1 = Block.make "entry" ~term:(Block.Jmp "exit") in
  let b2 = Block.make "exit" ~term:(Block.Ret None) in
  let f = mk_func [ b1; b2 ] in
  Alcotest.(check string) "entry" "entry" (Cfg.entry f).Block.label;
  Alcotest.(check bool) "find" true (Cfg.find_block f "exit" <> None);
  let preds = Cfg.predecessors f in
  Alcotest.(check (list string)) "preds of exit" [ "entry" ]
    (Option.value ~default:[] (Hashtbl.find_opt preds "exit"));
  Cfg.insert_after f ~after:"entry" [ Block.make "mid" ~term:(Block.Jmp "exit") ];
  Alcotest.(check (list string)) "order" [ "entry"; "mid"; "exit" ]
    (List.map (fun b -> b.Block.label) f.Cfg.blocks);
  let copy = Cfg.copy f in
  (Cfg.find_block_exn copy "mid").Block.term <- Block.Ret None;
  Alcotest.(check bool) "copy is deep" true
    ((Cfg.find_block_exn f "mid").Block.term = Block.Jmp "exit")

let test_alloc_slot () =
  let f = mk_func [ Block.make "entry" ~term:(Block.Ret None) ] in
  Alcotest.(check int) "slot 0" 0 (Cfg.alloc_slot f);
  Alcotest.(check int) "slot 1 is 16 bytes on" 16 (Cfg.alloc_slot f);
  Alcotest.(check int) "count" 2 f.Cfg.frame_slots

let expect_invalid f =
  match Validate.check f with
  | exception Validate.Invalid _ -> ()
  | () -> Alcotest.fail "expected Validate.Invalid"

(* The exact diagnostics: the validator builds its message only on
   failure, and the text must not change for it. *)
let expect_message msg f =
  match Validate.check f with
  | exception Validate.Invalid s -> Alcotest.(check string) "message" msg s
  | () -> Alcotest.fail "expected Validate.Invalid"

let test_validate_messages () =
  let one instr = mk_func [ Block.make "entry" ~instrs:[ instr ] ~term:(Block.Ret None) ] in
  expect_message "movsd  g0, [g1]: register g0 should be an XMM register"
    (one (Instr.Fld (Instr.D, gpr 0, mem (gpr 1))));
  expect_message "addpd  x0, x1, g2: register g2 should be an XMM register"
    (one (Instr.Vop (Instr.D, Instr.Fadd, xmm 0, xmm 1, gpr 2)));
  expect_message "movsd  x0, [g0 + g1*3 +8]: invalid scale 3"
    (one (Instr.Fld (Instr.D, xmm 0, mem ~index:(gpr 1) ~scale:3 ~disp:8 (gpr 0))));
  expect_message "block entry terminator: unknown target \"missing\""
    (mk_func [ Block.make "entry" ~term:(Block.Jmp "missing") ])

(* [Reg.compare] is typed but must order exactly as polymorphic
   compare did: every [Reg.Set]/[Reg.Map] iteration depends on it. *)
let test_reg_compare_order () =
  let regs =
    List.concat_map
      (fun id ->
        List.concat_map
          (fun cls -> [ { Reg.id; cls; phys = false }; { Reg.id; cls; phys = true } ])
          [ Reg.Gpr; Reg.Xmm ])
      (List.init 22 (fun i -> i - 1))
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let sign x = Int.compare x 0 in
          if sign (Reg.compare a b) <> sign (Stdlib.compare a b) then
            Alcotest.failf "Reg.compare %s %s disagrees with Stdlib.compare" (Reg.to_string a)
              (Reg.to_string b))
        regs)
    regs

let test_validate_ok () =
  let f =
    mk_func
      [ Block.make "entry"
          ~instrs:[ Instr.Fld (Instr.D, xmm 0, mem (gpr 0)) ]
          ~term:(Block.Ret (Some (xmm 0)));
      ]
  in
  Validate.check f

let test_validate_unknown_label () =
  expect_invalid (mk_func [ Block.make "entry" ~term:(Block.Jmp "missing") ])

let test_validate_class () =
  expect_invalid
    (mk_func
       [ Block.make "entry"
           ~instrs:[ Instr.Fld (Instr.D, gpr 0, mem (gpr 1)) ]
           ~term:(Block.Ret None);
       ])

let test_validate_scale () =
  expect_invalid
    (mk_func
       [ Block.make "entry"
           ~instrs:[ Instr.Fld (Instr.D, xmm 0, mem ~index:(gpr 1) ~scale:3 (gpr 0)) ]
           ~term:(Block.Ret None);
       ])

let test_validate_lane () =
  expect_invalid
    (mk_func
       [ Block.make "entry"
           ~instrs:[ Instr.Vextract (Instr.D, xmm 0, xmm 1, 2) ]
           ~term:(Block.Ret None);
       ])

let test_validate_no_ret () =
  expect_invalid (mk_func [ Block.make "entry" ~term:(Block.Jmp "entry") ])

let test_validate_duplicate_label () =
  expect_invalid
    (mk_func [ Block.make "entry" ~term:(Block.Ret None); Block.make "entry" ~term:(Block.Ret None) ])

let test_validate_physical () =
  let f =
    mk_func
      [ Block.make "entry"
          ~instrs:[ Instr.Imov (gpr 3, gpr 4) ]
          ~term:(Block.Ret None);
      ]
  in
  match Validate.check_physical f with
  | exception Validate.Invalid _ -> ()
  | () -> Alcotest.fail "virtual registers must not pass check_physical"

let test_pp_smoke () =
  let f =
    mk_func
      [ Block.make "entry"
          ~instrs:
            [ Instr.Vopm (Instr.S, Instr.Fmul, xmm 0, xmm 1, mem ~disp:32 (gpr 0));
              Instr.Prefetch (Instr.T1, mem (gpr 0));
            ]
          ~term:(Block.Ret None);
      ]
  in
  let s = Cfg.to_string f in
  Alcotest.(check bool) "mentions mulps" true (Test_util.contains s "mulps");
  Alcotest.(check bool) "mentions prefetcht1" true (Test_util.contains s "prefetcht1")

let suite =
  [ Alcotest.test_case "defs/uses" `Quick test_defs_uses;
    Alcotest.test_case "map_regs" `Quick test_map_regs;
    Alcotest.test_case "terminators" `Quick test_term_helpers;
    Alcotest.test_case "cfg helpers" `Quick test_cfg_helpers;
    Alcotest.test_case "frame slots" `Quick test_alloc_slot;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate unknown label" `Quick test_validate_unknown_label;
    Alcotest.test_case "validate reg class" `Quick test_validate_class;
    Alcotest.test_case "validate scale" `Quick test_validate_scale;
    Alcotest.test_case "validate lane" `Quick test_validate_lane;
    Alcotest.test_case "validate no ret" `Quick test_validate_no_ret;
    Alcotest.test_case "validate duplicate label" `Quick test_validate_duplicate_label;
    Alcotest.test_case "validate physical" `Quick test_validate_physical;
    Alcotest.test_case "validate messages" `Quick test_validate_messages;
    Alcotest.test_case "Reg.compare keeps polymorphic order" `Quick test_reg_compare_order;
    Alcotest.test_case "asm printer" `Quick test_pp_smoke;
  ]
