(* Static-analysis tests.

   Three layers, matching what the lint framework promises: (1) each
   checker fires exactly once on a hand-built CFG exhibiting exactly
   one defect, (2) the golden-clean sweep — every BLAS kernel at its
   default parameter point compiles without a single error-severity
   diagnostic, and (3) per-pass translation validation localizes a
   deliberately broken transform to the pass that broke it. *)
open Ifko_codegen
open Ifko_analysis
open Ifko_transform
open Ifko_blas

let g n = Reg.virt Reg.Gpr n
let x n = Reg.virt Reg.Xmm n

let mk_func ?(params = []) blocks =
  let f = Cfg.create ~name:"t" ~params in
  f.Cfg.blocks <- blocks;
  f

let with_code code diags = List.filter (fun d -> d.Diag.code = code) diags

let check_one what code diags =
  match with_code code diags with
  | [ _ ] -> ()
  | [] -> Alcotest.failf "%s: no %s diagnostic" what code
  | ds ->
    Alcotest.failf "%s: %d %s diagnostics:\n%s" what (List.length ds) code
      (Diag.list_to_string ds)

(* ---------- structural checkers (IFK001/IFK002) ---------- *)

let test_duplicate_label () =
  let f =
    mk_func
      [ Block.make ~term:(Block.Jmp "done") "entry";
        Block.make ~term:(Block.Ret None) "done";
        Block.make ~term:(Block.Ret None) "done"
      ]
  in
  check_one "duplicate label" "IFK001" (Lint.check_structure f)

let test_unknown_target () =
  let f =
    mk_func
      [ Block.make
          ~term:
            (Block.Br
               { cmp = Instr.Eq; lhs = g 0; rhs = Instr.Oimm 0; ifso = "missing";
                 ifnot = "done"; dec = 0 })
          "entry";
        Block.make ~term:(Block.Ret None) "done"
      ]
  in
  check_one "unknown branch target" "IFK001" (Lint.check_structure f)

let test_never_returns () =
  let f = mk_func [ Block.make ~term:(Block.Jmp "entry") "entry" ] in
  check_one "no return" "IFK001" (Lint.check_structure f)

let test_wrong_register_class () =
  let f =
    mk_func
      [ Block.make ~instrs:[ Instr.Imov (g 0, x 1) ] ~term:(Block.Ret None) "entry" ]
  in
  check_one "XMM operand to integer move" "IFK002" (Lint.check_structure f)

(* IFK002 collects every broken instruction rule, in rule order, with
   the text Validate raises for the first of them. *)
let test_every_instruction_rule () =
  let m = Instr.mk_mem ~index:(x 2) ~scale:3 ~disp:0 (x 3) in
  let bad = Instr.Fopm (Instr.D, Instr.Fadd, g 0, g 1, m) in
  let f = mk_func [ Block.make ~instrs:[ bad ] ~term:(Block.Ret None) "entry" ] in
  let texts =
    List.map (fun r -> Instr.to_string bad ^ ": " ^ r)
      [ "register g0 should be an XMM register";
        "register g1 should be an XMM register";
        "register x3 should be a GPR";
        "register x2 should be a GPR";
        "invalid scale 3"
      ]
  in
  Alcotest.(check (list string)) "IFK002 messages" texts
    (List.map (fun d -> d.Diag.message) (with_code "IFK002" (Lint.check_structure f)));
  match Validate.check f with
  | exception Validate.Invalid msg ->
    Alcotest.(check string) "Validate's first" (List.hd texts) msg
  | () -> Alcotest.fail "expected Validate.Invalid"

(* IFK001/IFK002 apply Validate's structure rules: every broken one,
   in Validate's order, with Lint's code and text; Validate raises the
   first, and its terminator text names the block. *)
let test_every_structure_rule () =
  let f =
    mk_func
      [ Block.make
          ~term:
            (Block.Br
               { cmp = Instr.Eq; lhs = x 0; rhs = Instr.Oreg (x 1); ifso = "missing";
                 ifnot = "f"; dec = -2 })
          "entry";
        Block.make
          ~term:
            (Block.Fbr
               { fsize = Instr.D; cmp = Instr.Eq; lhs = g 2; rhs = x 3; ifso = "entry";
                 ifnot = "f" })
          "f";
        Block.make ~term:(Block.Jmp "entry") "f"
      ]
  in
  Alcotest.(check (list (pair string string))) "Lint's codes and texts"
    [ ("IFK001", "duplicate block label \"f\"");
      ("IFK001", "terminator: unknown target \"missing\"");
      ("IFK002", "terminator: register x0 should be a GPR");
      ("IFK002", "terminator: register x1 should be a GPR");
      ("IFK002", "terminator: negative fused decrement");
      ("IFK002", "terminator: register g2 should be an XMM register");
      ("IFK001", "function t never returns")
    ]
    (List.map (fun d -> (d.Diag.code, d.Diag.message)) (Lint.check_structure f));
  let validate f =
    match Validate.check f with
    | exception Validate.Invalid msg -> msg
    | () -> Alcotest.fail "expected Validate.Invalid"
  in
  Alcotest.(check string) "Validate's first" "duplicate block label \"f\"" (validate f);
  Alcotest.(check string) "Validate's terminator text"
    "block entry terminator: unknown target \"missing\""
    (validate (mk_func (List.filteri (fun i _ -> i < 2) f.Cfg.blocks)))

let test_structural_errors_mute_dataflow () =
  (* A broken CFG must not also drown the user in meaningless dataflow
     diagnostics: check_func reports the IFK001 and stops. *)
  let f = mk_func [ Block.make ~instrs:[ Instr.Imov (g 1, g 0) ] ~term:(Block.Jmp "entry") "entry" ] in
  let diags = Lint.check_func f in
  check_one "structure reported" "IFK001" diags;
  Alcotest.(check int) "dataflow checkers skipped" 0 (List.length (with_code "IFK003" diags))

(* ---------- def-before-use (IFK003) ---------- *)

let test_use_before_def () =
  let f =
    mk_func
      [ Block.make ~instrs:[ Instr.Imov (g 1, g 0) ] ~term:(Block.Ret None) "entry" ]
  in
  check_one "read of undefined register" "IFK003" (Lint.check_def_before_use f)

let test_params_are_defined () =
  let f =
    mk_func ~params:[ ("n", g 0) ]
      [ Block.make ~instrs:[ Instr.Imov (g 1, g 0) ] ~term:(Block.Ret None) "entry" ]
  in
  Alcotest.(check int) "parameter reads are fine" 0
    (List.length (Lint.check_def_before_use f))

let diamond ~def_in_both =
  (* entry branches; "left" defines g1, "right" only when [def_in_both];
     the join reads g1.  The must-analysis has to intersect over the
     incoming paths, not union. *)
  let br =
    Block.Br
      { cmp = Instr.Eq; lhs = g 0; rhs = Instr.Oimm 0; ifso = "left"; ifnot = "right";
        dec = 0 }
  in
  mk_func ~params:[ ("n", g 0) ]
    [ Block.make ~term:br "entry";
      Block.make ~instrs:[ Instr.Ildi (g 1, 1) ] ~term:(Block.Jmp "join") "left";
      Block.make
        ~instrs:(if def_in_both then [ Instr.Ildi (g 1, 2) ] else [])
        ~term:(Block.Jmp "join") "right";
      Block.make ~instrs:[ Instr.Imov (g 2, g 1) ] ~term:(Block.Ret None) "join"
    ]

let test_def_on_one_path_only () =
  check_one "definition missing on one path" "IFK003"
    (Lint.check_def_before_use (diamond ~def_in_both:false))

let test_def_on_all_paths () =
  Alcotest.(check int) "defined on every path" 0
    (List.length (Lint.check_def_before_use (diamond ~def_in_both:true)))

(* ---------- dead stores (IFK004) ---------- *)

let test_dead_store () =
  let f =
    mk_func
      [ Block.make
          ~instrs:[ Instr.Ildi (g 1, 42); Instr.Ildi (g 2, 7); Instr.Imov (g 3, g 2) ]
          ~term:(Block.Ret (Some (g 3)))
          "entry"
      ]
  in
  let diags = Lint.check_dead_stores f in
  (* g1 is never read; g2 and g3 are.  Dead stores warn, not error. *)
  check_one "unread definition" "IFK004" diags;
  Alcotest.(check bool) "warnings do not fail the kernel" true (Diag.is_clean diags)

(* ---------- unreachable blocks (IFK005) ---------- *)

let test_unreachable_block () =
  let f =
    mk_func
      [ Block.make ~term:(Block.Ret None) "entry";
        Block.make ~term:(Block.Ret None) "island"
      ]
  in
  check_one "orphan block" "IFK005" (Lint.check_reachability f)

(* ---------- register pressure (IFK008) ---------- *)

let test_register_pressure () =
  (* Nine simultaneously live XMM registers against a file of eight. *)
  let defs = List.init 9 (fun i -> Instr.Fldi (Instr.D, x i, float_of_int i)) in
  let sums =
    List.init 8 (fun i ->
        Instr.Fop (Instr.D, Instr.Fadd, x 9, (if i = 0 then x 0 else x 9), x (i + 1)))
  in
  let f =
    mk_func [ Block.make ~instrs:(defs @ sums) ~term:(Block.Ret (Some (x 9))) "entry" ]
  in
  check_one "pressure over the XMM file" "IFK008" (Lint.check_pressure f);
  let gpr, xmm = Lint.max_pressure f in
  Alcotest.(check (pair int int)) "max pressure" (0, 9) (gpr, xmm)

(* ---------- loop-aware checkers on real kernels (IFK006/IFK007) ---------- *)

let daxpy = { Defs.routine = Defs.Axpy; prec = Instr.D }

let point ?(sv = false) ?(unroll = 1) ?(prefetch = []) () =
  { Params.sv; unroll; lc = true; ae = 0; wnt = false; prefetch; bf = 0; cisc = false }

let test_vector_alignment () =
  (* Vectorize and unroll directly (no final control-flow cleanup), so
     the loopnest — and with it the moving-pointer map — stays live. *)
  let c = Hil_sources.compile daxpy in
  (match Simd.apply c with Ok () -> () | Error d -> Alcotest.fail (Diag.to_string d));
  (match Unroll.apply c 4 with Ok () -> () | Error d -> Alcotest.fail (Diag.to_string d));
  Alcotest.(check bool) "aligned code is clean" true
    (Diag.is_clean (Lint.check ~line_bytes:128 c));
  (* Knock one vector load off 16-byte alignment. *)
  let skewed = ref false in
  List.iter
    (fun b ->
      b.Block.instrs <-
        List.map
          (function
            | Instr.Vld (sz, d, m) when not !skewed ->
              skewed := true;
              Instr.Vld (sz, d, { m with Instr.disp = m.Instr.disp + 8 })
            | i -> i)
          b.Block.instrs)
    c.Lower.func.Cfg.blocks;
  Alcotest.(check bool) "a vector load was present" true !skewed;
  check_one "unaligned vector load" "IFK006" (Lint.check ~line_bytes:128 c)

let prefetch_at dist =
  let c = Hil_sources.compile daxpy in
  Prefetch_xform.apply c ~line_bytes:128
    [ ("X", { Params.pf_ins = Some Instr.Nta; pf_dist = dist }) ];
  Lint.check ~line_bytes:128 c

let test_prefetch_distance () =
  (* Distance 4 B is inside the current iteration (stride 8 B). *)
  check_one "prefetch inside current iteration" "IFK007" (prefetch_at 4);
  Alcotest.(check int) "sane distance is quiet" 0
    (List.length (with_code "IFK007" (prefetch_at 256)))

(* ---------- the golden-clean sweep ---------- *)

let default_for id = Params.default ~line_bytes:128 (Report.analyze (Hil_sources.compile id))

let test_golden_clean () =
  List.iter
    (fun id ->
      (* Keep registers virtual (skip_regalloc) so lint still sees the
         kernel the way the mid-pipeline checks do. *)
      let c =
        Pipeline.apply ~skip_regalloc:true ~line_bytes:128 (Hil_sources.compile id)
          (default_for id)
      in
      match Diag.errors (Lint.check ~line_bytes:128 c) with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s is not lint-clean at its default point:\n%s" (Defs.name id)
          (Diag.list_to_string errs))
    Defs.all

let test_every_pass_validates () =
  (* The full pipeline — regalloc included — under per-pass lint and
     translation validation, for every kernel at its default point. *)
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let check = Passcheck.of_spec ~line_bytes:128 (Ifko_search.Generic.spec compiled) in
      try ignore (Pipeline.apply ~check ~line_bytes:128 compiled (default_for id))
      with Passcheck.Pass_failed { pass; failure } ->
        Alcotest.failf "%s: %s" (Defs.name id) (Passcheck.describe ~pass failure))
    Defs.all

(* ---------- localizing a deliberately broken transform ---------- *)

(* A "bug" in a transform: the first FP add it leaves behind silently
   becomes a subtract.  Injected right after UR via Pipeline.apply's
   [?inject] hook, translation validation must blame UR — not the
   passes that run later, and not the final result check. *)
let flip_first_fadd (c : Lower.compiled) =
  let flipped = ref false in
  List.iter
    (fun b ->
      b.Block.instrs <-
        List.map
          (function
            | Instr.Fop (sz, Instr.Fadd, d, a, b) when not !flipped ->
              flipped := true;
              Instr.Fop (sz, Instr.Fsub, d, a, b)
            | Instr.Vop (sz, Instr.Fadd, d, a, b) when not !flipped ->
              flipped := true;
              Instr.Vop (sz, Instr.Fsub, d, a, b)
            | i -> i)
          b.Block.instrs)
    c.Lower.func.Cfg.blocks;
  if not !flipped then Alcotest.fail "sabotage found no FP add to flip"

(* A different kind of bug: the transform emits a read of a register
   nothing ever defines.  The lint side of the checker catches this
   statically, before any execution. *)
let add_undefined_read (c : Lower.compiled) =
  let f = c.Lower.func in
  let undef = Cfg.fresh_reg f Reg.Gpr and dst = Cfg.fresh_reg f Reg.Gpr in
  match f.Cfg.blocks with
  | b :: _ -> b.Block.instrs <- Instr.Imov (dst, undef) :: b.Block.instrs
  | [] -> Alcotest.fail "kernel has no blocks"

let apply_broken ~pass break =
  let compiled = Hil_sources.compile daxpy in
  let check = Passcheck.of_spec ~line_bytes:128 (Ifko_search.Generic.spec compiled) in
  match
    Pipeline.apply ~check ~inject:(pass, break) ~line_bytes:128 compiled
      (point ~sv:false ~unroll:4 ())
  with
  | _ -> Alcotest.failf "broken %s went undetected" pass
  | exception Passcheck.Pass_failed { pass = blamed; failure } -> (blamed, failure)

let test_localize_semantic_bug () =
  match apply_broken ~pass:"UR" flip_first_fadd with
  | "UR", Passcheck.Semantics _ -> ()
  | "UR", Passcheck.Lint ds ->
    Alcotest.failf "expected a semantic divergence, got lint errors:\n%s"
      (Diag.list_to_string ds)
  | blamed, _ -> Alcotest.failf "blamed %s instead of UR" blamed

let test_localize_lint_bug () =
  match apply_broken ~pass:"LC" add_undefined_read with
  | "LC", Passcheck.Lint errs ->
    check_one "the undefined read is what failed" "IFK003" errs;
    List.iter
      (fun d -> Alcotest.(check (option string)) "diag names the pass" (Some "LC") d.Diag.pass)
      errs
  | "LC", Passcheck.Semantics msg ->
    Alcotest.failf "expected lint errors, got a semantic failure: %s" msg
  | blamed, _ -> Alcotest.failf "blamed %s instead of LC" blamed

let suite =
  [ Alcotest.test_case "IFK001: duplicate block label" `Quick test_duplicate_label;
    Alcotest.test_case "IFK001: unknown branch target" `Quick test_unknown_target;
    Alcotest.test_case "IFK001: function never returns" `Quick test_never_returns;
    Alcotest.test_case "IFK002: wrong register class" `Quick test_wrong_register_class;
    Alcotest.test_case "IFK002: every instruction rule" `Quick test_every_instruction_rule;
    Alcotest.test_case "IFK001/IFK002: every structure rule" `Quick test_every_structure_rule;
    Alcotest.test_case "broken structure mutes dataflow checkers" `Quick
      test_structural_errors_mute_dataflow;
    Alcotest.test_case "IFK003: use before any def" `Quick test_use_before_def;
    Alcotest.test_case "IFK003: parameters count as defined" `Quick test_params_are_defined;
    Alcotest.test_case "IFK003: def on one path only" `Quick test_def_on_one_path_only;
    Alcotest.test_case "IFK003: def on all paths is clean" `Quick test_def_on_all_paths;
    Alcotest.test_case "IFK004: dead store" `Quick test_dead_store;
    Alcotest.test_case "IFK005: unreachable block" `Quick test_unreachable_block;
    Alcotest.test_case "IFK008: register pressure" `Quick test_register_pressure;
    Alcotest.test_case "IFK006: vector alignment" `Quick test_vector_alignment;
    Alcotest.test_case "IFK007: prefetch distance" `Quick test_prefetch_distance;
    Alcotest.test_case "golden clean: all kernels, default point" `Quick test_golden_clean;
    Alcotest.test_case "every pass validates on every kernel" `Quick
      test_every_pass_validates;
    Alcotest.test_case "translation validation blames the broken pass" `Quick
      test_localize_semantic_bug;
    Alcotest.test_case "lint blames the broken pass" `Quick test_localize_lint_bug
  ]
