(* Differential-fuzzing tests.

   The subsystem's own guarantees: determinism from the seed, validity
   by construction of generated kernels, a clean sweep on the real
   pipeline, end-to-end bug catching under fault injection (find,
   shrink, persist, replay), shrinker idempotence, the oracle's
   tolerance boundaries, and replay of every checked-in reproducer. *)
open Ifko_fuzz
module Rng = Ifko_util.Rng
module Lower = Ifko_codegen.Lower
module Params = Ifko_transform.Params
module Pp = Ifko_hil.Pp

let cfg = Ifko_machine.Config.p4e
let compile = Fuzz.compile

(* The injected bug used throughout: right after the named pass, the
   first floating-point add in the kernel silently becomes a subtract —
   the model of a miscompilation that per-pass validation and the
   differential oracle must both catch. *)
let flip_first_fadd (c : Lower.compiled) =
  let flipped = ref false in
  List.iter
    (fun (b : Block.t) ->
      b.Block.instrs <-
        List.map
          (fun i ->
            match i with
            | Instr.Fop (fs, Instr.Fadd, d, a, b') when not !flipped ->
              flipped := true;
              Instr.Fop (fs, Instr.Fsub, d, a, b')
            | _ -> i)
          b.Block.instrs)
    c.Lower.func.Cfg.blocks

let inject = ("UR", flip_first_fadd)

(* ---------- generator ---------- *)

let gen_batch seed n =
  let master = Rng.create seed in
  List.init n (fun i ->
      Gen.kernel (Rng.split master) ~name:(Printf.sprintf "fz%d" i) ~max_size:5)

let test_gen_deterministic () =
  let a = gen_batch 7 25 and b = gen_batch 7 25 in
  List.iter2
    (fun x y ->
      Alcotest.(check string) "same seed, same kernel" (Pp.kernel_to_string x)
        (Pp.kernel_to_string y))
    a b;
  let c = gen_batch 8 25 in
  Alcotest.(check bool) "different seed differs" true
    (List.exists2 (fun x y -> Pp.kernel_to_string x <> Pp.kernel_to_string y) a c)

let test_gen_valid () =
  List.iter
    (fun k ->
      match compile k with
      | _ -> ()
      | exception e ->
        Alcotest.failf "generated kernel failed to lower: %s\n%s" (Printexc.to_string e)
          (Pp.kernel_to_string k))
    (gen_batch 123 150)

(* ---------- the clean sweep ---------- *)

let test_clean_sweep () =
  let stats = Fuzz.run ~cfg ~seed:42 ~count:30 () in
  Alcotest.(check int) "kernels" 30 stats.Fuzz.kernels;
  Alcotest.(check int) "no generator failures" 0 stats.Fuzz.gen_failed;
  Alcotest.(check int) "no bugs in the real pipeline" 0 (List.length stats.Fuzz.bugs);
  Alcotest.(check string) "summary line"
    (Fuzz.stats_to_string stats)
    (Printf.sprintf
       "fuzz: kernels=30 points=%d agree=%d rejected=%d gen-failed=0 cross-checked=0 \
        bugs=0"
       stats.Fuzz.points stats.Fuzz.agree stats.Fuzz.rejected)

(* With cross-checking on, kernels whose references Depend proves
   independent are held to bit-exact array agreement — and the real
   pipeline passes at that tighter bar. *)
let test_cross_check_sweep () =
  let stats = Fuzz.run ~cross_check:true ~cfg ~seed:42 ~count:30 () in
  Alcotest.(check int) "no bugs at the bit-exact bar" 0 (List.length stats.Fuzz.bugs);
  Alcotest.(check bool) "some points were cross-checked" true
    (stats.Fuzz.cross_checked > 0)

let test_run_deterministic () =
  let log1 = Buffer.create 64 and log2 = Buffer.create 64 in
  let s1 = Fuzz.run ~log:(Buffer.add_string log1) ~cfg ~seed:11 ~count:15 () in
  let s2 = Fuzz.run ~log:(Buffer.add_string log2) ~cfg ~seed:11 ~count:15 () in
  Alcotest.(check string) "same stats" (Fuzz.stats_to_string s1) (Fuzz.stats_to_string s2);
  Alcotest.(check string) "same log" (Buffer.contents log1) (Buffer.contents log2)

(* ---------- fault injection end to end ---------- *)

let with_temp_corpus f =
  let dir = Filename.temp_file "ifko_fuzz_corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let injected_run dir =
  Fuzz.run ~corpus:dir ~inject ~cfg ~seed:2718 ~count:25 ()

let test_injection_caught () =
  with_temp_corpus (fun dir ->
      let stats = injected_run dir in
      Alcotest.(check bool) "injected bug found" true (stats.Fuzz.bugs <> []);
      Alcotest.(check bool) "reproducers written" true (stats.Fuzz.written <> []);
      (* Every written reproducer parses back and still triggers the
         injected bug, and its shrunk point keeps the injection's
         precondition (UR only runs with unroll > 1). *)
      List.iter
        (fun path ->
          let case = Corpus.read path in
          Alcotest.(check bool) "shrunk point still unrolls" true
            (case.Corpus.params.Params.unroll > 1);
          match
            Oracle.check ~inject ~cfg ~seed:2718 (compile case.Corpus.kernel)
              case.Corpus.params
          with
          | Oracle.Mismatch _ -> ()
          | Oracle.Agree | Oracle.Rejected _ ->
            Alcotest.failf "%s no longer reproduces under injection" path)
        stats.Fuzz.written;
      (* Replayed against the real pipeline (bug "fixed"), every
         reproducer passes — the corpus is a regression suite, not a
         museum of permanently failing inputs. *)
      List.iter
        (fun (path, r) ->
          match r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "replay %s against fixed pipeline: %s" path e)
        (Fuzz.replay_dir ~cfg dir))

let test_shrink_idempotent () =
  with_temp_corpus (fun dir ->
      let stats = injected_run dir in
      let case, _ =
        match stats.Fuzz.bugs with b :: _ -> b | [] -> Alcotest.fail "no bug found"
      in
      let fails k p =
        match compile k with
        | exception _ -> false
        | c -> (
          match Oracle.check ~inject ~cfg ~seed:2718 c p with
          | Oracle.Mismatch _ -> true
          | Oracle.Agree | Oracle.Rejected _ -> false)
      in
      let k', p' = Shrink.minimize ~fails case.Corpus.kernel case.Corpus.params in
      Alcotest.(check string) "kernel at fixpoint"
        (Pp.kernel_to_string case.Corpus.kernel)
        (Pp.kernel_to_string k');
      Alcotest.(check string) "params at fixpoint"
        (Params.canonical case.Corpus.params)
        (Params.canonical p'))

(* ---------- oracle tolerances ---------- *)

let test_ulp_boundaries () =
  let module V = Ifko_sim.Verify in
  Alcotest.(check bool) "exact: equal" true (V.exact_fp 1.5 1.5);
  Alcotest.(check bool) "exact: NaN==NaN" true (V.exact_fp Float.nan Float.nan);
  Alcotest.(check bool) "exact: signed zeros equal (IEEE compare)" true
    (V.exact_fp 0.0 (-0.0));
  Alcotest.(check bool) "ulp: zero distance" true (V.close_ulp ~ulps:0L 1.0 1.0);
  Alcotest.(check int64) "ulp: adjacent doubles" 1L
    (V.ulp_diff 1.0 (Float.succ 1.0));
  Alcotest.(check int64) "ulp: across zero" 2L
    (V.ulp_diff (Float.succ 0.0) (Float.pred 0.0));
  Alcotest.(check int64) "ulp: signed zeros coincide" 0L (V.ulp_diff 0.0 (-0.0));
  Alcotest.(check bool) "ulp: one NaN is infinitely far" false
    (V.close_ulp ~ulps:(Int64.shift_left 1L 60) 1.0 Float.nan);
  (* Single-precision distances are measured on the f32 grid: the
     smallest f32 step around 1.0 is 2^-23, thousands of f64 ulps. *)
  let next32 = Int32.float_of_bits (Int32.add (Int32.bits_of_float 1.0) 1l) in
  Alcotest.(check int64) "ulp: adjacent singles (S grid)" 1L
    (V.ulp_diff ~fsize:Instr.S 1.0 next32);
  Alcotest.(check bool) "ulp: adjacent singles far apart on D grid" true
    (Int64.compare (V.ulp_diff ~fsize:Instr.D 1.0 next32) 1000L > 0);
  Alcotest.(check bool) "reduction: tolerance absorbs tiny drift" true
    (V.close_reduction ~fsize:Instr.D 1.0 (Float.succ 1.0));
  Alcotest.(check bool) "reduction: near-zero floor" true
    (V.close_reduction ~fsize:Instr.D ~abs_floor:1e-6 1e-9 (-1e-9));
  Alcotest.(check bool) "reduction: gross error rejected" false
    (V.close_reduction ~fsize:Instr.D 1.0 1.5)

(* ---------- encodings ---------- *)

let test_canonical_roundtrip () =
  let master = Rng.create 77 in
  List.iter
    (fun k ->
      let compiled = compile k in
      let report = Ifko_analysis.Report.analyze compiled in
      let p = Sample.point (Rng.split master) ~line_bytes:128 ~report in
      Alcotest.(check string) "canonical . of_canonical = id" (Params.canonical p)
        (Params.canonical (Params.of_canonical (Params.canonical p))))
    (gen_batch 77 40)

let test_corpus_roundtrip () =
  let master = Rng.create 99 in
  List.iter
    (fun k ->
      let compiled = compile k in
      let report = Ifko_analysis.Report.analyze compiled in
      let p = Sample.point (Rng.split master) ~line_bytes:128 ~report in
      let case =
        { Corpus.kernel = k; params = p; meta = [ ("seed", "99"); ("note", "rt") ] }
      in
      let case' = Corpus.of_string (Corpus.to_string case) in
      Alcotest.(check string) "kernel" (Pp.kernel_to_string k)
        (Pp.kernel_to_string case'.Corpus.kernel);
      Alcotest.(check string) "params" (Params.canonical p)
        (Params.canonical case'.Corpus.params);
      Alcotest.(check (list (pair string string))) "meta" case.Corpus.meta
        case'.Corpus.meta;
      Alcotest.(check string) "content-addressed name stable" (Corpus.file_name case)
        (Corpus.file_name case'))
    (gen_batch 99 10);
  (* Multi-line meta values (per-pass diagnostics) must not corrupt the
     kernel source that follows the comment block. *)
  let k = List.hd (gen_batch 99 1) in
  let case =
    {
      Corpus.kernel = k;
      params = Params.of_canonical "sv=0;ur=1;lc=0;ae=0;wnt=0;bf=0;cisc=0;pf=";
      meta = [ ("detail", "line one\nline two") ];
    }
  in
  let case' = Corpus.of_string (Corpus.to_string case) in
  Alcotest.(check (list (pair string string))) "newlines flattened"
    [ ("detail", "line one line two") ] case'.Corpus.meta

(* ---------- the checked-in corpus ---------- *)

(* The reproducers double as a machine-pool regression suite: timing
   each through borrowed machines — with the pool warm from the other
   geometry's traffic — must be bit-identical to a cold-pool replay. *)
let test_corpus_pooled_replay () =
  let s0 = Memops.drain_machines [ Ifko_machine.Config.p4e; Ifko_machine.Config.opteron ] in
  let time mcfg case =
    let compiled = compile case.Corpus.kernel in
    let func = Ifko_search.Driver.compile_point ~cfg:mcfg compiled case.Corpus.params in
    let cf = Ifko_sim.Exec.compile func in
    let spec = Ifko_search.Generic.spec ~seed:5 compiled in
    (Ifko_sim.Timer.measure_ext ~cfg:mcfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:600
       cf)
      .Ifko_sim.Timer.m_cycles
  in
  let replay cases =
    List.map
      (fun c -> (time Ifko_machine.Config.p4e c, time Ifko_machine.Config.opteron c))
      cases
  in
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let cases = List.map Corpus.read (Corpus.files ~dir) in
  Alcotest.(check bool) "corpus is non-empty" true (cases <> []);
  let cold = replay cases in
  (* second replay: every acquire recycles an instance the first one
     left in an arbitrary dirty state *)
  let warm = replay cases in
  List.iter2
    (fun c w ->
      Alcotest.(check (pair (float 0.0) (float 0.0))) "pooled replay bit-identical" c w)
    cold warm;
  let s = Ifko_par.Freelist.stats Ifko_sim.Timer.machines in
  (* some borrow was answered from the pool *)
  Alcotest.(check bool) "the pool was exercised" true (s.hits > s0.Ifko_par.Memo.hits)

let replay_cases =
  List.map
    (fun path ->
      Alcotest.test_case (Filename.basename path) `Quick (fun () ->
          match Fuzz.replay ~cfg path with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" path e))
    (Corpus.files ~dir:"corpus")

let suite =
  [ Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generated kernels lower" `Quick test_gen_valid;
    Alcotest.test_case "clean sweep on real pipeline" `Quick test_clean_sweep;
    Alcotest.test_case "cross-check sweep (bit-exact arrays)" `Quick test_cross_check_sweep;
    Alcotest.test_case "fuzz run deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "injected bug caught+shrunk+written" `Quick test_injection_caught;
    Alcotest.test_case "shrinker idempotent" `Quick test_shrink_idempotent;
    Alcotest.test_case "oracle ULP boundaries" `Quick test_ulp_boundaries;
    Alcotest.test_case "canonical params roundtrip" `Quick test_canonical_roundtrip;
    Alcotest.test_case "corpus file roundtrip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus replay through pooled arenas" `Quick
      test_corpus_pooled_replay ]
  @ replay_cases
