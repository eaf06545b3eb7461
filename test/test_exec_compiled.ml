(* Differential tests of the two execution engines: the reference
   tree-walking interpreter (Exec.run_reference) against the
   decode-once threaded-code engine (Exec.compile / Exec.exec).

   The engines must be bit-identical — same return-value bits, same
   cycle count bits, same instruction/µop counts, same final memory
   image, and the same trap messages raised at the same points — on
   the full BLAS suite under both timing contexts, on every checked-in
   fuzz reproducer, and on hand-built trap cases. *)

open Ifko_blas
module Exec = Ifko_sim.Exec
module Env = Ifko_sim.Env
module Config = Ifko_machine.Config
module Memsys = Ifko_machine.Memsys

let cfg = Config.p4e
let seed = 99

(* ---------- result comparison ---------- *)

let ret_to_string = function
  | None -> "none"
  | Some (Exec.Rint v) -> Printf.sprintf "int:%d" v
  | Some (Exec.Rfp v) -> Printf.sprintf "fp:%Lx" (Int64.bits_of_float v)

(* Bit-exact on purpose: Rfp compares IEEE bit patterns (so NaN = NaN
   and -0.0 <> 0.0), cycles likewise. *)
let check_same_result what (r_ref : Exec.result) (r_new : Exec.result) =
  Alcotest.(check string)
    (what ^ ": return bits") (ret_to_string r_ref.Exec.ret) (ret_to_string r_new.Exec.ret);
  Alcotest.(check int64)
    (what ^ ": cycle bits")
    (Int64.bits_of_float r_ref.Exec.cycles)
    (Int64.bits_of_float r_new.Exec.cycles);
  Alcotest.(check int) (what ^ ": instr_count") r_ref.Exec.instr_count r_new.Exec.instr_count;
  Alcotest.(check int) (what ^ ": uop_count") r_ref.Exec.uop_count r_new.Exec.uop_count

let check_same_memory what env_ref env_new =
  Alcotest.(check bool)
    (what ^ ": final memory image identical")
    true
    (Bytes.equal (Env.mem env_ref) (Env.mem env_new))

type outcome = Finished of Exec.result | Trapped of string

let outcome_to_string = function
  | Finished r ->
    Printf.sprintf "ret=%s cycles=%Lx instrs=%d uops=%d" (ret_to_string r.Exec.ret)
      (Int64.bits_of_float r.Exec.cycles)
      r.Exec.instr_count r.Exec.uop_count
  | Trapped msg -> "trap: " ^ msg

(* Run the same function on identically-built environments through
   both engines and insist on identical observable outcomes
   (including traps, message for message). *)
let run_both ?max_instrs ?(cfg = cfg) ~timed ~ret_fsize what func mkenv =
  let timing ms = if timed then Some (cfg, ms) else None in
  let fresh_ms () =
    let ms = Memsys.create cfg in
    Memsys.reset ms ~flush:true;
    ms
  in
  let env_ref = mkenv () and env_new = mkenv () in
  let o_ref =
    try
      Finished
        (Exec.run_reference ?timing:(timing (fresh_ms ())) ?max_instrs ~ret_fsize func
           env_ref)
    with Exec.Trap m -> Trapped m
  in
  let o_new =
    try
      Finished
        (Exec.exec ?timing:(timing (fresh_ms ())) ?max_instrs ~ret_fsize
           (Exec.compile func) env_new)
    with Exec.Trap m -> Trapped m
  in
  (match (o_ref, o_new) with
  | Finished r1, Finished r2 -> check_same_result what r1 r2
  | o1, o2 ->
    Alcotest.(check string) (what ^ ": outcome") (outcome_to_string o1) (outcome_to_string o2));
  check_same_memory what env_ref env_new

(* ---------- BLAS suite: kernels x contexts x timed/untimed ---------- *)

let timed_context ?(cfg = cfg) context func spec n what =
  (* Each engine on its own memory system, in the timer's own context
     setup. *)
  let run exec_one =
    let env = spec.Ifko_sim.Timer.make_env n in
    let ms = Memsys.create cfg in
    Ifko_sim.Timer.prepare ~cfg ~context ms env;
    (exec_one ms env, env)
  in
  let r_ref, env_ref =
    run (fun ms env ->
        Exec.run_reference ~timing:(cfg, ms) ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize func
          env)
  in
  let r_new, env_new =
    run (fun ms env ->
        Exec.exec ~timing:(cfg, ms) ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize
          (Exec.compile func) env)
  in
  check_same_result what r_ref r_new;
  check_same_memory what env_ref env_new

let blas_funcs id =
  let compiled = Hil_sources.compile id in
  let report = Ifko_analysis.Report.analyze compiled in
  let line_bytes = cfg.Config.prefetchable_line in
  let default = Ifko_transform.Params.default ~line_bytes report in
  let tuned_point = Ifko_search.Driver.compile_point ~cfg compiled default in
  (* A second point exercising write-no-translate stores and
     accumulator expansion; skip kernels where the pipeline rejects
     the point as illegal. *)
  let variant =
    match Ifko_transform.Params.of_canonical "sv=1;ur=4;lc=0;ae=2;wnt=1;bf=0;cisc=0;pf=" with
    | exception _ -> None
    | p -> (
      match Ifko_search.Driver.compile_point ~cfg compiled p with
      | exception _ -> None
      | f -> Some f)
  in
  (compiled.Ifko_codegen.Lower.func, tuned_point, variant)

let test_blas_equivalence () =
  List.iter
    (fun id ->
      let name = Defs.name id in
      let spec = Workload.timer_spec id ~seed in
      let reference, tuned, variant = blas_funcs id in
      let points =
        (name ^ "/ref", reference) :: ((name ^ "/tuned", tuned)
        :: (match variant with Some f -> [ (name ^ "/wnt+ae", f) ] | None -> []))
      in
      List.iter
        (fun (what, func) ->
          (* untimed, remainder-heavy size *)
          List.iter
            (fun n ->
              run_both ~timed:false ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize
                (Printf.sprintf "%s untimed n=%d" what n)
                func
                (fun () -> spec.Ifko_sim.Timer.make_env n))
            [ 0; 1; 257 ];
          (* timed, both usage contexts *)
          List.iter
            (fun (cname, context) ->
              timed_context context func spec 257
                (Printf.sprintf "%s timed %s n=257" what cname))
            [ ("oc", Ifko_sim.Timer.Out_of_cache); ("l2", Ifko_sim.Timer.In_l2) ])
        points)
    Defs.all

(* ---------- adversarial cache geometries ---------- *)

(* Geometries chosen to defeat the memory system's acceleration state:
   direct-mapped caches (the MRU way filter is the whole set, so every
   conflict evicts through it), a tiny L1 (constant capacity misses and
   eviction/writeback traffic at sizes the default geometry absorbs),
   and a 16-byte L1 line under a 128-byte L2 line (one L2 fill spans
   eight L1 lines, stressing the inclusive fill paths).  The engines
   must stay bit-identical on all of them. *)
let adversarial_cfgs =
  [ ( "assoc1",
      { Config.p4e with
        Config.name = "p4e-assoc1";
        l1 = { Config.p4e.Config.l1 with Config.assoc = 1 };
        l2 = { Config.p4e.Config.l2 with Config.assoc = 1 }
      } );
    ( "tinyL1",
      { Config.p4e with
        Config.name = "p4e-tinyL1";
        l1 = { Config.size = 1024; line = 64; assoc = 2; latency = 1 }
      } );
    ( "line16",
      { Config.p4e with
        Config.name = "p4e-line16";
        l1 = { Config.size = 4096; line = 16; assoc = 2; latency = 1 }
      } );
  ]

let test_adversarial_geometries () =
  List.iter
    (fun id ->
      let name = Defs.name id in
      let spec = Workload.timer_spec id ~seed in
      let _, tuned, _ = blas_funcs id in
      List.iter
        (fun (gname, acfg) ->
          run_both ~cfg:acfg ~timed:true ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize
            (Printf.sprintf "%s %s timed n=257" name gname)
            tuned
            (fun () -> spec.Ifko_sim.Timer.make_env 257);
          List.iter
            (fun (cname, context) ->
              timed_context ~cfg:acfg context tuned spec 257
                (Printf.sprintf "%s %s timed %s n=257" name gname cname))
            [ ("oc", Ifko_sim.Timer.Out_of_cache); ("l2", Ifko_sim.Timer.In_l2) ])
        adversarial_cfgs)
    [ { Defs.routine = Defs.Axpy; prec = Instr.D };
      { Defs.routine = Defs.Copy; prec = Instr.S };
      { Defs.routine = Defs.Iamax; prec = Instr.D };
    ]

(* ---------- memory-system reset and reuse ---------- *)

(* Timer/Driver reuse one memory system across thousands of probes
   (Memsys.reset per repetition), so a reused instance must be
   bit-identical to a fresh one — including after churn has populated
   the MRU filters, the touched-way logs and the in-flight table. *)
let test_reset_reuse_identity () =
  let id = { Defs.routine = Defs.Axpy; prec = Instr.D } in
  let spec = Workload.timer_spec id ~seed in
  let _, tuned, _ = blas_funcs id in
  let cf = Exec.compile tuned in
  let rfs = spec.Ifko_sim.Timer.ret_fsize in
  let run ms n =
    let env = spec.Ifko_sim.Timer.make_env n in
    Memsys.reset ms ~flush:true;
    (Exec.exec ~timing:(cfg, ms) ~ret_fsize:rfs cf env, env)
  in
  let ms = Memsys.create cfg in
  let r_fresh, env_fresh = run ms 257 in
  (* churn: different problem size, then an In_l2-style warm, leaving
     in-flight fills, touched ways and MRU hints populated *)
  let (_ : Exec.result * Env.t) = run ms 130 in
  Env.iter_array_lines (spec.Ifko_sim.Timer.make_env 130) ~line:cfg.Config.l2.Config.line
    (fun addr -> Memsys.warm_l2 ms ~addr);
  let r_reused, env_reused = run ms 257 in
  check_same_result "reused memsys after churn" r_fresh r_reused;
  check_same_memory "reused memsys after churn" env_fresh env_reused

(* reset ~flush:false keeps cache contents (the warm-cache episodes the
   context-adaptation example runs): both engines must agree under the
   same reuse pattern, and the warm second episode must not be slower
   than the cold first. *)
let test_reset_noflush_episodes () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let spec = Workload.timer_spec id ~seed in
  let _, tuned, _ = blas_funcs id in
  let cf = Exec.compile tuned in
  let rfs = spec.Ifko_sim.Timer.ret_fsize in
  let episodes exec_one =
    let ms = Memsys.create cfg in
    Memsys.reset ms ~flush:true;
    let cold = exec_one ms (spec.Ifko_sim.Timer.make_env 130) in
    Memsys.reset ms ~flush:false;
    let warm = exec_one ms (spec.Ifko_sim.Timer.make_env 130) in
    (cold, warm)
  in
  let w_cold, w_warm =
    episodes (fun ms env -> Exec.run_reference ~timing:(cfg, ms) ~ret_fsize:rfs tuned env)
  in
  let t_cold, t_warm = episodes (fun ms env -> Exec.exec ~timing:(cfg, ms) ~ret_fsize:rfs cf env) in
  check_same_result "cold episode" w_cold t_cold;
  check_same_result "warm episode" w_warm t_warm;
  Alcotest.(check bool) "warm episode is no slower" true
    (t_warm.Exec.cycles <= t_cold.Exec.cycles)

(* ---------- fuzz-corpus replay through both engines ---------- *)

let corpus_cases =
  List.map
    (fun path ->
      Alcotest.test_case ("corpus " ^ Filename.basename path) `Quick (fun () ->
          let case = Ifko_fuzz.Corpus.read path in
          let compiled = Ifko_fuzz.Fuzz.compile case.Ifko_fuzz.Corpus.kernel in
          let rfs =
            match compiled.Ifko_codegen.Lower.arrays with
            | a :: _ -> a.Ifko_codegen.Lower.a_elem
            | [] -> Instr.D
          in
          let funcs =
            ("ref", compiled.Ifko_codegen.Lower.func)
            ::
            (match
               Ifko_transform.Pipeline.apply ~line_bytes:cfg.Config.prefetchable_line
                 compiled case.Ifko_fuzz.Corpus.params
             with
            | exception _ -> []
            | opt -> [ ("opt", opt.Ifko_codegen.Lower.func) ])
          in
          List.iter
            (fun (what, func) ->
              List.iter
                (fun n ->
                  let mkenv () = Ifko_fuzz.Oracle.make_env ~seed compiled n in
                  run_both ~timed:false ~ret_fsize:rfs
                    (Printf.sprintf "%s %s untimed n=%d" (Filename.basename path) what n)
                    func mkenv;
                  run_both ~timed:true ~ret_fsize:rfs
                    (Printf.sprintf "%s %s timed n=%d" (Filename.basename path) what n)
                    func mkenv;
                  (* replay under an adversarial geometry too: corpus
                     kernels are the pipeline's known hard cases, so
                     they make the best probes of the fast-path guards *)
                  run_both
                    ~cfg:(List.assoc "tinyL1" adversarial_cfgs)
                    ~timed:true ~ret_fsize:rfs
                    (Printf.sprintf "%s %s timed tinyL1 n=%d" (Filename.basename path) what
                       n)
                    func mkenv)
                Ifko_fuzz.Oracle.default_sizes)
            funcs))
    (Ifko_fuzz.Corpus.files ~dir:"corpus")

(* ---------- trap parity on hand-built CFGs ---------- *)

let gpr i = Reg.virt Reg.Gpr i
let xmm i = Reg.virt Reg.Xmm i
let mem ?(disp = 0) ?index ?(scale = 1) base = Instr.mk_mem ?index ~scale ~disp base

let one_block ?(label = "entry") ?(term = Block.Ret None) instrs =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <- [ Block.make label ~instrs ~term ];
  f

let test_trap_parity () =
  let t what ?max_instrs f =
    run_both ?max_instrs ~timed:false ~ret_fsize:Instr.D what f (fun () -> Env.create ())
  in
  (* instruction budget, checked before each instruction *)
  let loop = Cfg.create ~name:"t" ~params:[] in
  loop.Cfg.blocks <-
    [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 0, 0) ] ~term:(Block.Jmp "entry") ];
  t "budget" ~max_instrs:10 loop;
  (* jump to a missing label *)
  t "unknown label" (one_block ~term:(Block.Jmp "nope") []);
  (* unaligned vector load/store/operand (in range) *)
  t "unaligned vload"
    (one_block [ Instr.Ildi (gpr 0, 8); Instr.Vld (Instr.D, xmm 0, mem (gpr 0)) ]);
  t "unaligned vstore"
    (one_block [ Instr.Ildi (gpr 0, 24); Instr.Vst (Instr.D, mem (gpr 0), xmm 0) ]);
  t "unaligned voperand"
    (one_block
       [ Instr.Ildi (gpr 0, 8);
         Instr.Vopm (Instr.D, Instr.Fadd, xmm 1, xmm 0, mem (gpr 0)) ]);
  (* out-of-range scalar and vector accesses *)
  t "oob load" (one_block [ Instr.Ildi (gpr 0, -16); Instr.Ild (gpr 1, mem (gpr 0)) ]);
  t "oob vload"
    (one_block [ Instr.Ildi (gpr 0, 1 lsl 30); Instr.Vld (Instr.D, xmm 0, mem (gpr 0)) ]);
  (* missing parameter binding *)
  let p = Cfg.create ~name:"t" ~params:[ ("N", gpr 0) ] in
  p.Cfg.blocks <- [ Block.make "entry" ~instrs:[] ~term:(Block.Ret None) ];
  t "missing binding" p

(* Satellite fix: an address that is both out of range and unaligned
   must report the bounds trap on every vector op — Vopm used to check
   alignment first. *)
let test_vector_trap_order () =
  let addr = (1 lsl 30) + 8 in
  let msg_of f =
    match Exec.run f (Env.create ()) with
    | exception Exec.Trap m -> m
    | _ -> Alcotest.fail "expected a trap"
  in
  let expected = Printf.sprintf "memory access out of range: addr=%d size=16" addr in
  List.iter
    (fun (what, instr) ->
      Alcotest.(check string) (what ^ " traps on range first") expected
        (msg_of (one_block [ Instr.Ildi (gpr 0, addr); instr ])))
    [ ("vld", Instr.Vld (Instr.D, xmm 0, mem (gpr 0)));
      ("vst", Instr.Vst (Instr.D, mem (gpr 0), xmm 0));
      ("vopm", Instr.Vopm (Instr.D, Instr.Fadd, xmm 1, xmm 0, mem (gpr 0)))
    ];
  (* in range and unaligned still reports the per-op message *)
  (match
     Exec.run
       (one_block
          [ Instr.Ildi (gpr 0, 8); Instr.Vopm (Instr.D, Instr.Fadd, xmm 1, xmm 0, mem (gpr 0)) ])
       (Env.create ())
   with
  | exception Exec.Trap m ->
    Alcotest.(check string) "vopm unaligned message" "unaligned vector operand at 8" m
  | _ -> Alcotest.fail "expected a trap")

(* A branch to a missing block only traps when taken: decode must not
   reject the function eagerly. *)
let test_lazy_label_resolution () =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry"
        ~instrs:[ Instr.Ildi (gpr 0, 1) ]
        ~term:
          (Block.Br
             {
               cmp = Instr.Eq;
               lhs = gpr 0;
               rhs = Instr.Oimm 0;
               ifso = "missing";
               ifnot = "done";
               dec = 0;
             });
      Block.make "done" ~instrs:[] ~term:(Block.Ret (Some (gpr 0)))
    ];
  (match (Exec.exec (Exec.compile f) (Env.create ())).Exec.ret with
  | Some (Exec.Rint 1) -> ()
  | r -> Alcotest.failf "expected Rint 1, got %s" (ret_to_string r));
  run_both ~timed:true ~ret_fsize:Instr.D "never-taken missing target" f (fun () ->
      Env.create ())

(* Branch-predictor parity: a data-dependent alternating branch makes
   mispredictions depend on per-block predictor state. *)
let test_predictor_parity () =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <-
    [ Block.make "entry"
        ~instrs:[ Instr.Ildi (gpr 0, 64); Instr.Ildi (gpr 1, 0); Instr.Ildi (gpr 2, 0) ]
        ~term:(Block.Jmp "loop");
      Block.make "loop"
        ~instrs:[ Instr.Iop (Instr.Iand, gpr 3, gpr 0, Instr.Oimm 1) ]
        ~term:
          (Block.Br
             {
               cmp = Instr.Eq;
               lhs = gpr 3;
               rhs = Instr.Oimm 0;
               ifso = "even";
               ifnot = "odd";
               dec = 0;
             });
      Block.make "even"
        ~instrs:[ Instr.Iop (Instr.Iadd, gpr 1, gpr 1, Instr.Oimm 1) ]
        ~term:(Block.Jmp "tail");
      Block.make "odd"
        ~instrs:[ Instr.Iop (Instr.Iadd, gpr 2, gpr 2, Instr.Oimm 1) ]
        ~term:(Block.Jmp "tail");
      Block.make "tail" ~instrs:[]
        ~term:
          (Block.Br
             {
               cmp = Instr.Gt;
               lhs = gpr 0;
               rhs = Instr.Oimm 0;
               ifso = "loop";
               ifnot = "done";
               dec = 1;
             });
      Block.make "done" ~instrs:[] ~term:(Block.Ret (Some (gpr 1)))
    ];
  run_both ~timed:true ~ret_fsize:Instr.D "alternating branch" f (fun () -> Env.create ())

(* [Exec.digest] is computed on first use while compiled code is shared
   across domains: two domains forcing it at once on one [compiled]
   must both get the MD5 of the rendered CFG, and neither may raise. *)
let test_digest_two_domains () =
  let func = (Hil_sources.compile { Defs.routine = Defs.Dot; prec = Instr.D }).Ifko_codegen.Lower.func in
  let expected = Digest.to_hex (Digest.string (Cfg.to_string func)) in
  for _ = 1 to 20 do
    let c = Exec.compile func in
    let ready = Atomic.make 0 in
    let force () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Exec.digest c
    in
    let other = Domain.spawn force in
    let mine = force () in
    let theirs = Domain.join other in
    Alcotest.(check string) "this domain" expected mine;
    Alcotest.(check string) "other domain" expected theirs
  done

let suite =
  [ Alcotest.test_case "BLAS kernels bit-identical" `Quick test_blas_equivalence;
    Alcotest.test_case "adversarial cache geometries" `Quick test_adversarial_geometries;
    Alcotest.test_case "reset-reuse bit-identity" `Quick test_reset_reuse_identity;
    Alcotest.test_case "reset without flush episodes" `Quick test_reset_noflush_episodes;
    Alcotest.test_case "trap parity" `Quick test_trap_parity;
    Alcotest.test_case "vector trap order unified" `Quick test_vector_trap_order;
    Alcotest.test_case "lazy label resolution" `Quick test_lazy_label_resolution;
    Alcotest.test_case "branch predictor parity" `Quick test_predictor_parity;
    Alcotest.test_case "digest forced from two domains" `Quick test_digest_two_domains;
  ]
  @ corpus_cases
