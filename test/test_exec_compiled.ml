(* Execution goldens for the LIL simulator.

   Every case records the observable outcome of one run — return-value
   bits, cycle-count bits, instruction and µop counts, or the exact
   trap message — and the MD5 of the final memory image.  The cases
   cover the full BLAS suite untimed and under both timing contexts on
   P4E and Opteron, adversarial cache geometries, warm-cache episodes,
   every checked-in fuzz reproducer, and hand-built trap, label,
   branch-predictor and self-addressed-load cases.

   The table was recorded from the tree-walking reference interpreter
   the threaded-code engine (Exec.compile / Exec.exec) replaced, and
   checked equal to the threaded engine on every case before that
   interpreter was deleted.  The self-addressed-load cases came later:
   they were recorded from the threaded engine while its timed
   closures still repeated each instruction's semantics inline.  The goldens run over fused superblock
   closures, which call the per-instruction closures in order, and the
   budget trap pins the per-instruction slow path.  A deliberate
   change to the simulator's semantics or timing updates the table
   from the failure message, which prints every new line. *)

open Ifko_blas
module Exec = Ifko_sim.Exec
module Env = Ifko_sim.Env
module Timer = Ifko_sim.Timer
module Config = Ifko_machine.Config
module Memsys = Ifko_machine.Memsys

let cfg = Config.p4e
let seed = 99

(* ---------- cases and outcomes ---------- *)

let ret_to_string = function
  | None -> "none"
  | Some (Exec.Rint v) -> Printf.sprintf "int:%d" v
  | Some (Exec.Rfp v) -> Printf.sprintf "fp:%Lx" (Int64.bits_of_float v)

type outcome = Finished of Exec.result | Trapped of string

(* Bit-exact on purpose: Rfp and cycles print their IEEE bit patterns
   (so NaN = NaN and -0.0 <> 0.0). *)
let outcome_to_string = function
  | Finished r ->
    Printf.sprintf "ret=%s cycles=%Lx instrs=%d uops=%d" (ret_to_string r.Exec.ret)
      (Int64.bits_of_float r.Exec.cycles)
      r.Exec.instr_count r.Exec.uop_count
  | Trapped msg -> "trap: " ^ msg

(* How a case's run is timed. *)
type timing =
  | Untimed
  | Flushed of Config.t  (** a fresh machine with flushed caches *)
  | Context of Config.t * Timer.context  (** the timer's own context setup *)
  | Warm_episode of Config.t
      (** a cold run over a fresh environment on a flushed machine, then
          this run after [Memsys.reset ~flush:false] kept the caches *)

type case = {
  name : string;  (** group, then what is run: "blas ddot/ref untimed n=0" *)
  func : Cfg.func;
  ret_fsize : Instr.fsize;
  max_instrs : int option;
  timing : timing;
  mkenv : unit -> Env.t;
}

let case ?max_instrs ?(timing = Untimed) ?(ret_fsize = Instr.D) name func mkenv =
  { name; func; ret_fsize; max_instrs; timing; mkenv }

(* One run of [c]: its outcome and the MD5 of the final memory image,
   taken after a trap too. *)
let run_case c =
  let env = c.mkenv () in
  let go ?timing env =
    Exec.exec ?timing ?max_instrs:c.max_instrs ~ret_fsize:c.ret_fsize (Exec.compile c.func) env
  in
  let machine mcfg =
    let ms = Memsys.create mcfg in
    Memsys.reset ms ~flush:true;
    ms
  in
  let outcome =
    match
      match c.timing with
      | Untimed -> go env
      | Flushed mcfg -> go ~timing:(mcfg, machine mcfg) env
      | Context (mcfg, context) ->
        let ms = Memsys.create mcfg in
        Timer.prepare ~cfg:mcfg ~context ms env;
        go ~timing:(mcfg, ms) env
      | Warm_episode mcfg ->
        let ms = machine mcfg in
        ignore (go ~timing:(mcfg, ms) (c.mkenv ()) : Exec.result);
        Memsys.reset ms ~flush:false;
        go ~timing:(mcfg, ms) env
    with
    | r -> Finished r
    | exception Exec.Trap m -> Trapped m
  in
  (outcome, Digest.to_hex (Digest.bytes (Env.mem env)))

(* The golden line of [c]. *)
let observe c =
  let outcome, mem = run_case c in
  (c.name, outcome_to_string outcome, mem)

let render (name, line, mem) = Printf.sprintf "    (%S, %S, %S);" name line mem

(* ---------- the golden table ---------- *)

(* (case, outcome, MD5 of the final memory image), in run order. *)
let goldens =
  [
    ("blas sswap/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sswap/ref untimed n=1", "ret=none cycles=0 instrs=11 uops=11", "b7bdcf42d9c5cd7162b74477f1c23721");
    ("blas sswap/ref untimed n=257", "ret=none cycles=0 instrs=2059 uops=2059", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/ref p4e oc n=257", "ret=none cycles=40b0a4e6076b9835 instrs=2059 uops=2834", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/ref p4e l2 n=257", "ret=none cycles=408f200000000162 instrs=2059 uops=2834", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/ref opteron oc n=257", "ret=none cycles=40a1840000000010 instrs=2059 uops=2834", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/ref opteron l2 n=257", "ret=none cycles=408e680000000153 instrs=2059 uops=2834", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/tuned untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sswap/tuned untimed n=1", "ret=none cycles=0 instrs=8 uops=8", "b7bdcf42d9c5cd7162b74477f1c23721");
    ("blas sswap/tuned untimed n=257", "ret=none cycles=0 instrs=284 uops=284", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/tuned p4e oc n=257", "ret=none cycles=409ce66f4de9bd38 instrs=284 uops=289", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/tuned p4e l2 n=257", "ret=none cycles=406e69bd37a6f4e0 instrs=284 uops=289", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/tuned opteron oc n=257", "ret=none cycles=408bd2aaaaaaaaab instrs=284 uops=289", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/tuned opteron l2 n=257", "ret=none cycles=40666aaaaaaaaaae instrs=284 uops=289", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/wnt+ae untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sswap/wnt+ae untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "b7bdcf42d9c5cd7162b74477f1c23721");
    ("blas sswap/wnt+ae untimed n=257", "ret=none cycles=0 instrs=313 uops=313", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/wnt+ae p4e oc n=257", "ret=none cycles=40b1264000000006 instrs=313 uops=350", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/wnt+ae p4e l2 n=257", "ret=none cycles=409109a6f4de9bc6 instrs=313 uops=350", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/wnt+ae opteron oc n=257", "ret=none cycles=40aa510000000000 instrs=313 uops=350", "a6be5caae545688b47b19ac592aed4af");
    ("blas sswap/wnt+ae opteron l2 n=257", "ret=none cycles=409cac0000000000 instrs=313 uops=350", "a6be5caae545688b47b19ac592aed4af");
    ("blas dswap/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dswap/ref untimed n=1", "ret=none cycles=0 instrs=11 uops=11", "5594ad419a02d9398162c02c0cc9cb66");
    ("blas dswap/ref untimed n=257", "ret=none cycles=0 instrs=2059 uops=2059", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/ref p4e oc n=257", "ret=none cycles=40b4379bd37a6f79 instrs=2059 uops=2834", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/ref p4e l2 n=257", "ret=none cycles=408f200000000162 instrs=2059 uops=2834", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/ref opteron oc n=257", "ret=none cycles=40ae78aaaaaaab1e instrs=2059 uops=2834", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/ref opteron l2 n=257", "ret=none cycles=408e680000000153 instrs=2059 uops=2834", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/tuned untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dswap/tuned untimed n=1", "ret=none cycles=0 instrs=8 uops=8", "5594ad419a02d9398162c02c0cc9cb66");
    ("blas dswap/tuned untimed n=257", "ret=none cycles=0 instrs=568 uops=568", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/tuned p4e oc n=257", "ret=none cycles=40a838519f89467f instrs=568 uops=579", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/tuned p4e l2 n=257", "ret=none cycles=407974de9bd37a70 instrs=568 uops=579", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/tuned opteron oc n=257", "ret=none cycles=4096ec0000000001 instrs=568 uops=579", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/tuned opteron l2 n=257", "ret=none cycles=40744aaaaaaaaaa8 instrs=568 uops=579", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/wnt+ae untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dswap/wnt+ae untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "5594ad419a02d9398162c02c0cc9cb66");
    ("blas dswap/wnt+ae untimed n=257", "ret=none cycles=0 instrs=617 uops=617", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/wnt+ae p4e oc n=257", "ret=none cycles=40c00f937a6f4dd7 instrs=617 uops=686", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/wnt+ae p4e l2 n=257", "ret=none cycles=40a081a6f4de9bdd instrs=617 uops=686", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/wnt+ae opteron oc n=257", "ret=none cycles=40b8c60000000000 instrs=617 uops=686", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas dswap/wnt+ae opteron l2 n=257", "ret=none cycles=40ac640000000000 instrs=617 uops=686", "28043a1367fb0746b16ea9cf1cef704d");
    ("blas sscal/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sscal/ref untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "36241d0b0201a7ce435dfc78ab3a2c7e");
    ("blas sscal/ref untimed n=257", "ret=none cycles=0 instrs=1545 uops=1545", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/ref p4e oc n=257", "ret=none cycles=40a5ab3f128cfc62 instrs=1545 uops=2320", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/ref p4e l2 n=257", "ret=none cycles=4089caaaaaaaab5f instrs=1545 uops=2320", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/ref opteron oc n=257", "ret=none cycles=409c26aaaaaaaa79 instrs=1545 uops=2320", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/ref opteron l2 n=257", "ret=none cycles=408922aaaaaaab53 instrs=1545 uops=2320", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/tuned untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sscal/tuned untimed n=1", "ret=none cycles=0 instrs=7 uops=7", "36241d0b0201a7ce435dfc78ab3a2c7e");
    ("blas sscal/tuned untimed n=257", "ret=none cycles=0 instrs=209 uops=209", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/tuned p4e oc n=257", "ret=none cycles=4093e0de9bd37a70 instrs=209 uops=214", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/tuned p4e l2 n=257", "ret=none cycles=40655ffffffffff9 instrs=209 uops=214", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/tuned opteron oc n=257", "ret=none cycles=4083c80000000000 instrs=209 uops=278", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/tuned opteron l2 n=257", "ret=none cycles=4064800000000000 instrs=209 uops=278", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/wnt+ae untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sscal/wnt+ae untimed n=1", "ret=none cycles=0 instrs=8 uops=8", "36241d0b0201a7ce435dfc78ab3a2c7e");
    ("blas sscal/wnt+ae untimed n=257", "ret=none cycles=0 instrs=232 uops=232", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/wnt+ae p4e oc n=257", "ret=none cycles=40a323cde9bd37a7 instrs=232 uops=269", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/wnt+ae p4e l2 n=257", "ret=none cycles=408254519f89467f instrs=232 uops=269", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/wnt+ae opteron oc n=257", "ret=none cycles=4098ae0000000000 instrs=232 uops=333", "0f9240fe2a253277071a214440d28d8e");
    ("blas sscal/wnt+ae opteron l2 n=257", "ret=none cycles=408d540000000000 instrs=232 uops=333", "0f9240fe2a253277071a214440d28d8e");
    ("blas dscal/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dscal/ref untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "4673063487fa0421a3e5be5f6515961c");
    ("blas dscal/ref untimed n=257", "ret=none cycles=0 instrs=1545 uops=1545", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/ref p4e oc n=257", "ret=none cycles=40ad2a9bd37a6f5b instrs=1545 uops=2320", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/ref p4e l2 n=257", "ret=none cycles=4089caaaaaaaab5f instrs=1545 uops=2320", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/ref opteron oc n=257", "ret=none cycles=40a487555555559d instrs=1545 uops=2320", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/ref opteron l2 n=257", "ret=none cycles=408922aaaaaaab53 instrs=1545 uops=2320", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/tuned untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dscal/tuned untimed n=1", "ret=none cycles=0 instrs=7 uops=7", "4673063487fa0421a3e5be5f6515961c");
    ("blas dscal/tuned untimed n=257", "ret=none cycles=0 instrs=415 uops=415", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/tuned p4e oc n=257", "ret=none cycles=40a03319f89467e3 instrs=415 uops=426", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/tuned p4e l2 n=257", "ret=none cycles=406e355555555563 instrs=415 uops=426", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/tuned opteron oc n=257", "ret=none cycles=40915c0000000000 instrs=415 uops=554", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/tuned opteron l2 n=257", "ret=none cycles=4072400000000000 instrs=415 uops=554", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/wnt+ae untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dscal/wnt+ae untimed n=1", "ret=none cycles=0 instrs=8 uops=8", "4673063487fa0421a3e5be5f6515961c");
    ("blas dscal/wnt+ae untimed n=257", "ret=none cycles=0 instrs=456 uops=456", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/wnt+ae p4e oc n=257", "ret=none cycles=40b075321642c859 instrs=456 uops=525", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/wnt+ae p4e l2 n=257", "ret=none cycles=409126fc4a33f12a instrs=456 uops=525", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/wnt+ae opteron oc n=257", "ret=none cycles=40a65e0000000000 instrs=456 uops=653", "0990337d7d8c9e45c37033334edaf521");
    ("blas dscal/wnt+ae opteron l2 n=257", "ret=none cycles=409cb80000000000 instrs=456 uops=653", "0990337d7d8c9e45c37033334edaf521");
    ("blas scopy/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas scopy/ref untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "c759f1db4ef01a41358bb8461e427a0d");
    ("blas scopy/ref untimed n=257", "ret=none cycles=0 instrs=1545 uops=1545", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/ref p4e oc n=257", "ret=none cycles=40a8c59f89467e5e instrs=1545 uops=2320", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/ref p4e l2 n=257", "ret=none cycles=4089c5555555560c instrs=1545 uops=2320", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/ref opteron oc n=257", "ret=none cycles=409dc40000000003 instrs=1545 uops=2320", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/ref opteron l2 n=257", "ret=none cycles=4089055555555600 instrs=1545 uops=2320", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/tuned untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas scopy/tuned untimed n=1", "ret=none cycles=0 instrs=6 uops=6", "c759f1db4ef01a41358bb8461e427a0d");
    ("blas scopy/tuned untimed n=257", "ret=none cycles=0 instrs=154 uops=154", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/tuned p4e oc n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/tuned p4e l2 n=257", "ret=none cycles=406869bd37a6f4e0 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/tuned opteron oc n=257", "ret=none cycles=4095000000000000 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/tuned opteron l2 n=257", "ret=none cycles=405c555555555552 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/wnt+ae untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas scopy/wnt+ae untimed n=1", "ret=none cycles=0 instrs=7 uops=7", "c759f1db4ef01a41358bb8461e427a0d");
    ("blas scopy/wnt+ae untimed n=257", "ret=none cycles=0 instrs=183 uops=183", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/wnt+ae p4e oc n=257", "ret=none cycles=40a2f54de9bd37a8 instrs=183 uops=220", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/wnt+ae p4e l2 n=257", "ret=none cycles=408211a6f4de9bd5 instrs=183 uops=220", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/wnt+ae opteron oc n=257", "ret=none cycles=4092600000000000 instrs=183 uops=220", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas scopy/wnt+ae opteron l2 n=257", "ret=none cycles=408d340000000000 instrs=183 uops=220", "3ecbca08158dbe55482d6f5da5c052a3");
    ("blas dcopy/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dcopy/ref untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "b75757c5aaf15a197d1f125d648aad80");
    ("blas dcopy/ref untimed n=257", "ret=none cycles=0 instrs=1545 uops=1545", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/ref p4e oc n=257", "ret=none cycles=40b0ac6076b981db instrs=1545 uops=2320", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/ref p4e l2 n=257", "ret=none cycles=4089c5555555560c instrs=1545 uops=2320", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/ref opteron oc n=257", "ret=none cycles=40a248aaaaaaaaab instrs=1545 uops=2320", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/ref opteron l2 n=257", "ret=none cycles=4089055555555600 instrs=1545 uops=2320", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/tuned untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dcopy/tuned untimed n=1", "ret=none cycles=0 instrs=6 uops=6", "b75757c5aaf15a197d1f125d648aad80");
    ("blas dcopy/tuned untimed n=257", "ret=none cycles=0 instrs=310 uops=310", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/tuned p4e oc n=257", "ret=none cycles=40b064642c8590b2 instrs=310 uops=321", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/tuned p4e l2 n=257", "ret=none cycles=4071e4de9bd37a70 instrs=310 uops=321", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/tuned opteron oc n=257", "ret=none cycles=40a3c00000000000 instrs=310 uops=321", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/tuned opteron l2 n=257", "ret=none cycles=4068600000000000 instrs=310 uops=321", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/wnt+ae untimed n=0", "ret=none cycles=0 instrs=2 uops=2", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dcopy/wnt+ae untimed n=1", "ret=none cycles=0 instrs=7 uops=7", "b75757c5aaf15a197d1f125d648aad80");
    ("blas dcopy/wnt+ae untimed n=257", "ret=none cycles=0 instrs=359 uops=359", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/wnt+ae p4e oc n=257", "ret=none cycles=40b047b21642c859 instrs=359 uops=428", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/wnt+ae p4e l2 n=257", "ret=none cycles=409105a6f4de9bd5 instrs=359 uops=428", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/wnt+ae opteron oc n=257", "ret=none cycles=40a18a0000000000 instrs=359 uops=428", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas dcopy/wnt+ae opteron l2 n=257", "ret=none cycles=409ca80000000000 instrs=359 uops=428", "bb8d0273605d97594a4447e5552ca5c9");
    ("blas saxpy/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas saxpy/ref untimed n=1", "ret=none cycles=0 instrs=12 uops=12", "83d483ff4ac79854680609b7d5ba2fc9");
    ("blas saxpy/ref untimed n=257", "ret=none cycles=0 instrs=2316 uops=2316", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/ref p4e oc n=257", "ret=none cycles=40b116e6076b9865 instrs=2316 uops=3091", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/ref p4e l2 n=257", "ret=none cycles=4090f95555555606 instrs=2316 uops=3091", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/ref opteron oc n=257", "ret=none cycles=40a2595555555564 instrs=2316 uops=3091", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/ref opteron l2 n=257", "ret=none cycles=4090a15555555612 instrs=2316 uops=3091", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/tuned untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas saxpy/tuned untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "83d483ff4ac79854680609b7d5ba2fc9");
    ("blas saxpy/tuned untimed n=257", "ret=none cycles=0 instrs=349 uops=349", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/tuned p4e oc n=257", "ret=none cycles=409e11e9bd37a6f6 instrs=349 uops=355", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/tuned p4e l2 n=257", "ret=none cycles=406e89bd37a6f4e0 instrs=349 uops=355", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/tuned opteron oc n=257", "ret=none cycles=408db2aaaaaaaaaa instrs=349 uops=483", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/tuned opteron l2 n=257", "ret=none cycles=406a95555555555b instrs=349 uops=483", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/wnt+ae untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas saxpy/wnt+ae untimed n=1", "ret=none cycles=0 instrs=10 uops=10", "83d483ff4ac79854680609b7d5ba2fc9");
    ("blas saxpy/wnt+ae untimed n=257", "ret=none cycles=0 instrs=378 uops=378", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/wnt+ae p4e oc n=257", "ret=none cycles=40af88ef4de9bd39 instrs=378 uops=416", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/wnt+ae p4e l2 n=257", "ret=none cycles=408271a6f4de9bd5 instrs=378 uops=416", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/wnt+ae opteron oc n=257", "ret=none cycles=40a53c0000000000 instrs=378 uops=544", "0d9c330db105b57b98ae1024049a1aba");
    ("blas saxpy/wnt+ae opteron l2 n=257", "ret=none cycles=408d740000000000 instrs=378 uops=544", "0d9c330db105b57b98ae1024049a1aba");
    ("blas daxpy/ref untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas daxpy/ref untimed n=1", "ret=none cycles=0 instrs=12 uops=12", "93deeb65fc345c073ab99d53f9d3ba34");
    ("blas daxpy/ref untimed n=257", "ret=none cycles=0 instrs=2316 uops=2316", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/ref p4e oc n=257", "ret=none cycles=40b49a9bd37a6f7d instrs=2316 uops=3091", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/ref p4e l2 n=257", "ret=none cycles=4090f95555555606 instrs=2316 uops=3091", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/ref opteron oc n=257", "ret=none cycles=40aec60000000075 instrs=2316 uops=3091", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/ref opteron l2 n=257", "ret=none cycles=4090a15555555612 instrs=2316 uops=3091", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/tuned untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas daxpy/tuned untimed n=1", "ret=none cycles=0 instrs=9 uops=9", "93deeb65fc345c073ab99d53f9d3ba34");
    ("blas daxpy/tuned untimed n=257", "ret=none cycles=0 instrs=697 uops=697", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/tuned p4e oc n=257", "ret=none cycles=40a9f2de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/tuned p4e l2 n=257", "ret=none cycles=407974de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/tuned opteron oc n=257", "ret=none cycles=409cf95555555554 instrs=697 uops=965", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/tuned opteron l2 n=257", "ret=none cycles=407755555555554f instrs=697 uops=965", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/wnt+ae untimed n=0", "ret=none cycles=0 instrs=3 uops=3", "ec87a838931d4d5d2e94a04644788a55");
    ("blas daxpy/wnt+ae untimed n=1", "ret=none cycles=0 instrs=10 uops=10", "93deeb65fc345c073ab99d53f9d3ba34");
    ("blas daxpy/wnt+ae untimed n=257", "ret=none cycles=0 instrs=746 uops=746", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/wnt+ae p4e oc n=257", "ret=none cycles=40bd9ca1642c858d instrs=746 uops=816", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/wnt+ae p4e l2 n=257", "ret=none cycles=409135a6f4de9bd5 instrs=746 uops=816", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/wnt+ae opteron oc n=257", "ret=none cycles=40b3b30000000000 instrs=746 uops=1072", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas daxpy/wnt+ae opteron l2 n=257", "ret=none cycles=409cc80000000000 instrs=746 uops=1072", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("blas sdot/ref untimed n=0", "ret=fp:0 cycles=0 instrs=4 uops=4", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sdot/ref untimed n=1", "ret=fp:3fc37efa00000000 cycles=0 instrs=12 uops=12", "0ae274780d0193161ba46de5c8c6a4a1");
    ("blas sdot/ref untimed n=257", "ret=fp:c01ea16240000000 cycles=0 instrs=2060 uops=2060", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/ref p4e oc n=257", "ret=fp:c01ea16240000000 cycles=40b18e3b5cc0ed75 instrs=2060 uops=2835", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/ref p4e l2 n=257", "ret=fp:c01ea16240000000 cycles=4094faaaaaaaaaab instrs=2060 uops=2835", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/ref opteron oc n=257", "ret=fp:c01ea16240000000 cycles=40a25eaaaaaaaaaa instrs=2060 uops=2835", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/ref opteron l2 n=257", "ret=fp:c01ea16240000000 cycles=4090a2aaaaaaaaaa instrs=2060 uops=2835", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/tuned untimed n=0", "ret=fp:0 cycles=0 instrs=6 uops=6", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sdot/tuned untimed n=1", "ret=fp:3fc37efa00000000 cycles=0 instrs=11 uops=11", "0ae274780d0193161ba46de5c8c6a4a1");
    ("blas sdot/tuned untimed n=257", "ret=fp:c01ea16300000000 cycles=0 instrs=287 uops=287", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/tuned p4e oc n=257", "ret=fp:c01ea16300000000 cycles=409dc26f4de9bd3a instrs=287 uops=294", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/tuned p4e l2 n=257", "ret=fp:c01ea16300000000 cycles=4078d55555555555 instrs=287 uops=294", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/tuned opteron oc n=257", "ret=fp:c01ea16300000000 cycles=408caaaaaaaaaaaa instrs=287 uops=422", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/tuned opteron l2 n=257", "ret=fp:c01ea16300000000 cycles=4073455555555555 instrs=287 uops=422", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/wnt+ae untimed n=0", "ret=fp:0 cycles=0 instrs=8 uops=8", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sdot/wnt+ae untimed n=1", "ret=fp:3fc37efa00000000 cycles=0 instrs=14 uops=14", "0ae274780d0193161ba46de5c8c6a4a1");
    ("blas sdot/wnt+ae untimed n=257", "ret=fp:c01ea16300000000 cycles=0 instrs=318 uops=318", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/wnt+ae p4e oc n=257", "ret=fp:c01ea16300000000 cycles=40a067c4a33f128e instrs=318 uops=358", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/wnt+ae p4e l2 n=257", "ret=fp:c01ea16300000000 cycles=406f155555555559 instrs=318 uops=358", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/wnt+ae opteron oc n=257", "ret=fp:c01ea16300000000 cycles=40910eaaaaaaaaab instrs=318 uops=487", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas sdot/wnt+ae opteron l2 n=257", "ret=fp:c01ea16300000000 cycles=406c0aaaaaaaaaae instrs=318 uops=487", "ee419c12d22e8091c7b4c33895e4f5e3");
    ("blas ddot/ref untimed n=0", "ret=fp:0 cycles=0 instrs=4 uops=4", "ec87a838931d4d5d2e94a04644788a55");
    ("blas ddot/ref untimed n=1", "ret=fp:3fc37ef9f3e5b0e2 cycles=0 instrs=12 uops=12", "bd63f28c6a923fc6c84218bdaf9d90bb");
    ("blas ddot/ref untimed n=257", "ret=fp:c01ea162f685a0c8 cycles=0 instrs=2060 uops=2060", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/ref p4e oc n=257", "ret=fp:c01ea162f685a0c8 cycles=40b8233b5cc0ed70 instrs=2060 uops=2835", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/ref p4e l2 n=257", "ret=fp:c01ea162f685a0c8 cycles=4094faaaaaaaaaab instrs=2060 uops=2835", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/ref opteron oc n=257", "ret=fp:c01ea162f685a0c8 cycles=40af9b555555555a instrs=2060 uops=2835", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/ref opteron l2 n=257", "ret=fp:c01ea162f685a0c8 cycles=4090a2aaaaaaaaaa instrs=2060 uops=2835", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/tuned untimed n=0", "ret=fp:0 cycles=0 instrs=6 uops=6", "ec87a838931d4d5d2e94a04644788a55");
    ("blas ddot/tuned untimed n=1", "ret=fp:3fc37ef9f3e5b0e2 cycles=0 instrs=11 uops=11", "bd63f28c6a923fc6c84218bdaf9d90bb");
    ("blas ddot/tuned untimed n=257", "ret=fp:c01ea162f685a0c4 cycles=0 instrs=571 uops=571", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/tuned p4e oc n=257", "ret=fp:c01ea162f685a0c4 cycles=40a9219f89467e26 instrs=571 uops=584", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/tuned p4e l2 n=257", "ret=fp:c01ea162f685a0c4 cycles=40866aaaaaaaaaaa instrs=571 uops=584", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/tuned opteron oc n=257", "ret=fp:c01ea162f685a0c4 cycles=4098315555555555 instrs=571 uops=840", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/tuned opteron l2 n=257", "ret=fp:c01ea162f685a0c4 cycles=4081a2aaaaaaaaaa instrs=571 uops=840", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/wnt+ae untimed n=0", "ret=fp:0 cycles=0 instrs=8 uops=8", "ec87a838931d4d5d2e94a04644788a55");
    ("blas ddot/wnt+ae untimed n=1", "ret=fp:3fc37ef9f3e5b0e2 cycles=0 instrs=14 uops=14", "bd63f28c6a923fc6c84218bdaf9d90bb");
    ("blas ddot/wnt+ae untimed n=257", "ret=fp:c01ea162f685a0c2 cycles=0 instrs=622 uops=622", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/wnt+ae p4e oc n=257", "ret=fp:c01ea162f685a0c2 cycles=40ad37128cfc4a35 instrs=622 uops=694", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/wnt+ae p4e l2 n=257", "ret=fp:c01ea162f685a0c2 cycles=40798aaaaaaaaaa9 instrs=622 uops=694", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/wnt+ae opteron oc n=257", "ret=fp:c01ea162f685a0c2 cycles=409dc00000000000 instrs=622 uops=951", "720970a300a8ad7923fc896faab87e9d");
    ("blas ddot/wnt+ae opteron l2 n=257", "ret=fp:c01ea162f685a0c2 cycles=4077affffffffffe instrs=622 uops=951", "720970a300a8ad7923fc896faab87e9d");
    ("blas sasum/ref untimed n=0", "ret=fp:0 cycles=0 instrs=4 uops=4", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sasum/ref untimed n=1", "ret=fp:3fd3a91fe0000000 cycles=0 instrs=10 uops=10", "69f47a53f0d17d733d8d9ba3a64ad672");
    ("blas sasum/ref untimed n=257", "ret=fp:406077c960000000 cycles=0 instrs=1546 uops=1546", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/ref p4e oc n=257", "ret=fp:406077c960000000 cycles=40a7013f128cfc49 instrs=1546 uops=2321", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/ref p4e l2 n=257", "ret=fp:406077c960000000 cycles=4094deaaaaaaaaab instrs=1546 uops=2321", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/ref opteron oc n=257", "ret=fp:406077c960000000 cycles=409cebfffffffffb instrs=1546 uops=2321", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/ref opteron l2 n=257", "ret=fp:406077c960000000 cycles=409092aaaaaaaaaa instrs=1546 uops=2321", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/tuned untimed n=0", "ret=fp:0 cycles=0 instrs=6 uops=6", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sasum/tuned untimed n=1", "ret=fp:3fd3a91fe0000000 cycles=0 instrs=10 uops=10", "69f47a53f0d17d733d8d9ba3a64ad672");
    ("blas sasum/tuned untimed n=257", "ret=fp:406077c940000000 cycles=0 instrs=212 uops=212", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/tuned p4e oc n=257", "ret=fp:406077c940000000 cycles=4093da33f128cfc6 instrs=212 uops=218", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/tuned p4e l2 n=257", "ret=fp:406077c940000000 cycles=4078655555555555 instrs=212 uops=218", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/tuned opteron oc n=257", "ret=fp:406077c940000000 cycles=40844aaaaaaaaaaa instrs=212 uops=346", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/tuned opteron l2 n=257", "ret=fp:406077c940000000 cycles=4073155555555555 instrs=212 uops=346", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/wnt+ae untimed n=0", "ret=fp:0 cycles=0 instrs=8 uops=8", "ec87a838931d4d5d2e94a04644788a55");
    ("blas sasum/wnt+ae untimed n=1", "ret=fp:3fd3a91fe0000000 cycles=0 instrs=13 uops=13", "69f47a53f0d17d733d8d9ba3a64ad672");
    ("blas sasum/wnt+ae untimed n=257", "ret=fp:406077c940000000 cycles=0 instrs=237 uops=237", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/wnt+ae p4e oc n=257", "ret=fp:406077c940000000 cycles=40961919f89467e3 instrs=237 uops=276", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/wnt+ae p4e l2 n=257", "ret=fp:406077c940000000 cycles=406db55555555556 instrs=237 uops=276", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/wnt+ae opteron oc n=257", "ret=fp:406077c940000000 cycles=40850d5555555555 instrs=237 uops=405", "ab622551320830f84b48f1dd90542ff1");
    ("blas sasum/wnt+ae opteron l2 n=257", "ret=fp:406077c940000000 cycles=40735aaaaaaaaaaa instrs=237 uops=405", "ab622551320830f84b48f1dd90542ff1");
    ("blas dasum/ref untimed n=0", "ret=fp:0 cycles=0 instrs=4 uops=4", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dasum/ref untimed n=1", "ret=fp:3fd3a91fdc06665a cycles=0 instrs=10 uops=10", "303947dd7af8f99d28415744ec9e770b");
    ("blas dasum/ref untimed n=257", "ret=fp:406077c9471eb6c4 cycles=0 instrs=1546 uops=1546", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/ref p4e oc n=257", "ret=fp:406077c9471eb6c4 cycles=40ad7e0000000004 instrs=1546 uops=2321", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/ref p4e l2 n=257", "ret=fp:406077c9471eb6c4 cycles=4094deaaaaaaaaab instrs=1546 uops=2321", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/ref opteron oc n=257", "ret=fp:406077c9471eb6c4 cycles=40a4b60000000002 instrs=1546 uops=2321", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/ref opteron l2 n=257", "ret=fp:406077c9471eb6c4 cycles=409092aaaaaaaaaa instrs=1546 uops=2321", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/tuned untimed n=0", "ret=fp:0 cycles=0 instrs=6 uops=6", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dasum/tuned untimed n=1", "ret=fp:3fd3a91fdc06665a cycles=0 instrs=10 uops=10", "303947dd7af8f99d28415744ec9e770b");
    ("blas dasum/tuned untimed n=257", "ret=fp:406077c9471eb6c2 cycles=0 instrs=418 uops=418", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/tuned p4e oc n=257", "ret=fp:406077c9471eb6c2 cycles=40a03319f89467e3 instrs=418 uops=430", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/tuned p4e l2 n=257", "ret=fp:406077c9471eb6c2 cycles=408632aaaaaaaaaa instrs=418 uops=430", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/tuned opteron oc n=257", "ret=fp:406077c9471eb6c2 cycles=409182aaaaaaaaaa instrs=418 uops=686", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/tuned opteron l2 n=257", "ret=fp:406077c9471eb6c2 cycles=40818aaaaaaaaaaa instrs=418 uops=686", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/wnt+ae untimed n=0", "ret=fp:0 cycles=0 instrs=8 uops=8", "ec87a838931d4d5d2e94a04644788a55");
    ("blas dasum/wnt+ae untimed n=1", "ret=fp:3fd3a91fdc06665a cycles=0 instrs=13 uops=13", "303947dd7af8f99d28415744ec9e770b");
    ("blas dasum/wnt+ae untimed n=257", "ret=fp:406077c9471eb6c4 cycles=0 instrs=461 uops=461", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/wnt+ae p4e oc n=257", "ret=fp:406077c9471eb6c4 cycles=40a35aa33f128cfd instrs=461 uops=532", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/wnt+ae p4e l2 n=257", "ret=fp:406077c9471eb6c4 cycles=4078daaaaaaaaaab instrs=461 uops=532", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/wnt+ae opteron oc n=257", "ret=fp:406077c9471eb6c4 cycles=4092aeaaaaaaaaaa instrs=461 uops=789", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas dasum/wnt+ae opteron l2 n=257", "ret=fp:406077c9471eb6c4 cycles=4081ad5555555555 instrs=461 uops=789", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas isamax/ref untimed n=0", "ret=int:0 cycles=0 instrs=5 uops=5", "ec87a838931d4d5d2e94a04644788a55");
    ("blas isamax/ref untimed n=1", "ret=int:0 cycles=0 instrs=12 uops=12", "69f47a53f0d17d733d8d9ba3a64ad672");
    ("blas isamax/ref untimed n=257", "ret=int:62 cycles=0 instrs=1304 uops=1304", "ab622551320830f84b48f1dd90542ff1");
    ("blas isamax/ref p4e oc n=257", "ret=int:62 cycles=40ab3fe9bd37a6fa instrs=1304 uops=2850", "ab622551320830f84b48f1dd90542ff1");
    ("blas isamax/ref p4e l2 n=257", "ret=int:62 cycles=409e115555555551 instrs=1304 uops=2850", "ab622551320830f84b48f1dd90542ff1");
    ("blas isamax/ref opteron oc n=257", "ret=int:62 cycles=40a34eaaaaaaaaad instrs=1304 uops=2850", "ab622551320830f84b48f1dd90542ff1");
    ("blas isamax/ref opteron l2 n=257", "ret=int:62 cycles=409b76aaaaaaaaac instrs=1304 uops=2850", "ab622551320830f84b48f1dd90542ff1");
    ("blas isamax/tuned untimed n=0", "ret=int:0 cycles=0 instrs=11 uops=11", "e5dacec01b2565a462198b2a23c44f5e");
    ("blas isamax/tuned untimed n=1", "ret=int:0 cycles=0 instrs=25 uops=25", "943dc6eb4589cb30f782882f25d5b106");
    ("blas isamax/tuned untimed n=257", "ret=int:62 cycles=0 instrs=2145 uops=2145", "e2bf5df4803a215308e4b4df8be7a9b9");
    ("blas isamax/tuned p4e oc n=257", "ret=int:62 cycles=40af729bd37a6f50 instrs=2145 uops=2685", "e2bf5df4803a215308e4b4df8be7a9b9");
    ("blas isamax/tuned p4e l2 n=257", "ret=int:62 cycles=40a5935555555558 instrs=2145 uops=2685", "e2bf5df4803a215308e4b4df8be7a9b9");
    ("blas isamax/tuned opteron oc n=257", "ret=int:62 cycles=40a21f5555555556 instrs=2145 uops=2685", "e2bf5df4803a215308e4b4df8be7a9b9");
    ("blas isamax/tuned opteron l2 n=257", "ret=int:62 cycles=409feeaaaaaaaaae instrs=2145 uops=2685", "e2bf5df4803a215308e4b4df8be7a9b9");
    ("blas isamax/wnt+ae untimed n=0", "ret=int:0 cycles=0 instrs=13 uops=13", "ec87a838931d4d5d2e94a04644788a55");
    ("blas isamax/wnt+ae untimed n=1", "ret=int:0 cycles=0 instrs=28 uops=28", "12f6855a4f8229e5d5164f1ecbdb241f");
    ("blas isamax/wnt+ae untimed n=257", "ret=int:62 cycles=0 instrs=1653 uops=1653", "f79c2e04f4a98eb54b65b1870d98da3f");
    ("blas isamax/wnt+ae p4e oc n=257", "ret=int:62 cycles=40a9748cfc4a33f5 instrs=1653 uops=2307", "f79c2e04f4a98eb54b65b1870d98da3f");
    ("blas isamax/wnt+ae p4e l2 n=257", "ret=int:62 cycles=409a84aaaaaaaab0 instrs=1653 uops=2307", "f79c2e04f4a98eb54b65b1870d98da3f");
    ("blas isamax/wnt+ae opteron oc n=257", "ret=int:62 cycles=40a091aaaaaaaaa8 instrs=1653 uops=2307", "f79c2e04f4a98eb54b65b1870d98da3f");
    ("blas isamax/wnt+ae opteron l2 n=257", "ret=int:62 cycles=40926f5555555554 instrs=1653 uops=2307", "f79c2e04f4a98eb54b65b1870d98da3f");
    ("blas idamax/ref untimed n=0", "ret=int:0 cycles=0 instrs=5 uops=5", "ec87a838931d4d5d2e94a04644788a55");
    ("blas idamax/ref untimed n=1", "ret=int:0 cycles=0 instrs=12 uops=12", "303947dd7af8f99d28415744ec9e770b");
    ("blas idamax/ref untimed n=257", "ret=int:62 cycles=0 instrs=1304 uops=1304", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas idamax/ref p4e oc n=257", "ret=int:62 cycles=40b3f23f128cfc46 instrs=1304 uops=2850", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas idamax/ref p4e l2 n=257", "ret=int:62 cycles=409e8eaaaaaaaaa7 instrs=1304 uops=2850", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas idamax/ref opteron oc n=257", "ret=int:62 cycles=40a7ee000000000c instrs=1304 uops=2850", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas idamax/ref opteron l2 n=257", "ret=int:62 cycles=409bcc0000000002 instrs=1304 uops=2850", "b8c1e809a492d24fc3b3d0a3e940a5f6");
    ("blas idamax/tuned untimed n=0", "ret=int:0 cycles=0 instrs=11 uops=11", "e5dacec01b2565a462198b2a23c44f5e");
    ("blas idamax/tuned untimed n=1", "ret=int:0 cycles=0 instrs=25 uops=25", "7ce17976c3c171456657a47378cebd90");
    ("blas idamax/tuned untimed n=257", "ret=int:62 cycles=0 instrs=2145 uops=2145", "bc06fcce359109173750d1cca88f2062");
    ("blas idamax/tuned p4e oc n=257", "ret=int:62 cycles=40b40e4de9bd37a8 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("blas idamax/tuned p4e l2 n=257", "ret=int:62 cycles=40a5935555555558 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("blas idamax/tuned opteron oc n=257", "ret=int:62 cycles=40ab635555555556 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("blas idamax/tuned opteron l2 n=257", "ret=int:62 cycles=409feeaaaaaaaaae instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("blas idamax/wnt+ae untimed n=0", "ret=int:0 cycles=0 instrs=13 uops=13", "ec87a838931d4d5d2e94a04644788a55");
    ("blas idamax/wnt+ae untimed n=1", "ret=int:0 cycles=0 instrs=28 uops=28", "546e65a239e87b2e5afb4c73af093a56");
    ("blas idamax/wnt+ae untimed n=257", "ret=int:62 cycles=0 instrs=1653 uops=1653", "6c511ed0937614f8d9b55b8d64657635");
    ("blas idamax/wnt+ae p4e oc n=257", "ret=int:62 cycles=40aed88cfc4a33f4 instrs=1653 uops=2307", "6c511ed0937614f8d9b55b8d64657635");
    ("blas idamax/wnt+ae p4e l2 n=257", "ret=int:62 cycles=409b4aaaaaaaaab0 instrs=1653 uops=2307", "6c511ed0937614f8d9b55b8d64657635");
    ("blas idamax/wnt+ae opteron oc n=257", "ret=int:62 cycles=40a269aaaaaaaaac instrs=1653 uops=2307", "6c511ed0937614f8d9b55b8d64657635");
    ("blas idamax/wnt+ae opteron l2 n=257", "ret=int:62 cycles=4092f00000000001 instrs=1653 uops=2307", "6c511ed0937614f8d9b55b8d64657635");
    ("adversarial daxpy assoc1 timed n=257", "ret=none cycles=40a9f2de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy assoc1 timed oc n=257", "ret=none cycles=40a9f2de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy assoc1 timed l2 n=257", "ret=none cycles=407974de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy tinyL1 timed n=257", "ret=none cycles=40ad309bd37a6f50 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy tinyL1 timed oc n=257", "ret=none cycles=40ad309bd37a6f50 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy tinyL1 timed l2 n=257", "ret=none cycles=407974de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy line16 timed n=257", "ret=none cycles=40a9f2de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy line16 timed oc n=257", "ret=none cycles=40a9f2de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial daxpy line16 timed l2 n=257", "ret=none cycles=407974de9bd37a70 instrs=697 uops=709", "b5c75a8b10fca4473ef03c2d776ec3e4");
    ("adversarial scopy assoc1 timed n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy assoc1 timed oc n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy assoc1 timed l2 n=257", "ret=none cycles=406869bd37a6f4e0 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy tinyL1 timed n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy tinyL1 timed oc n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy tinyL1 timed l2 n=257", "ret=none cycles=406869bd37a6f4e0 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy line16 timed n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy line16 timed oc n=257", "ret=none cycles=40a37a2c8590b217 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial scopy line16 timed l2 n=257", "ret=none cycles=406869bd37a6f4e0 instrs=154 uops=159", "3ecbca08158dbe55482d6f5da5c052a3");
    ("adversarial idamax assoc1 timed n=257", "ret=int:62 cycles=40b40e4de9bd37a8 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax assoc1 timed oc n=257", "ret=int:62 cycles=40b40e4de9bd37a8 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax assoc1 timed l2 n=257", "ret=int:62 cycles=40a5935555555558 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax tinyL1 timed n=257", "ret=int:62 cycles=40b3464de9bd37a9 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax tinyL1 timed oc n=257", "ret=int:62 cycles=40b3464de9bd37a9 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax tinyL1 timed l2 n=257", "ret=int:62 cycles=409e3aaaaaaaaab0 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax line16 timed n=257", "ret=int:62 cycles=40b3464de9bd37a9 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax line16 timed oc n=257", "ret=int:62 cycles=40b3464de9bd37a9 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("adversarial idamax line16 timed l2 n=257", "ret=int:62 cycles=40a0515555555558 instrs=2145 uops=2685", "bc06fcce359109173750d1cca88f2062");
    ("noflush ddot cold", "ret=fp:c010aaf6811ced3e cycles=40a05fcc0ed7303c instrs=296 uops=307", "d9e4bedfe436857d67005590f03c8aa6");
    ("noflush ddot warm", "ret=fp:c010aaf6811ced3e cycles=4078055555555555 instrs=296 uops=307", "d9e4bedfe436857d67005590f03c8aa6");
    ("trap budget", "trap: instruction budget exceeded", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap unknown label", "trap: jump to unknown block \"nope\"", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap unaligned vload", "trap: unaligned vector load at 8", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap unaligned vstore", "trap: unaligned vector store at 24", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap unaligned voperand", "trap: unaligned vector operand at 8", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap oob load", "trap: memory access out of range: addr=-16 size=8", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap oob vload", "trap: memory access out of range: addr=1073741824 size=16", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("trap missing binding", "trap: no binding for parameter \"N\"", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("labels never-taken missing target untimed", "ret=int:1 cycles=0 instrs=1 uops=1", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("labels never-taken missing target timed", "ret=int:1 cycles=403a000000000000 instrs=1 uops=2", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("labels duplicate names", "ret=int:20 cycles=3ffaaaaaaaaaaaaa instrs=2 uops=3", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("predictor alternating branch", "ret=int:32 cycles=409c59fffffffff9 instrs=131 uops=324", "b5cfa9d6c8febd618f91ac2843d50a1c");
    ("alias self-addressed load untimed", "ret=int:65536 cycles=0 instrs=4 uops=4", "86188c55d9bf9f1ed595ea5a982da722");
    ("alias self-addressed load p4e", "ret=int:65536 cycles=4076980000000000 instrs=4 uops=4", "86188c55d9bf9f1ed595ea5a982da722");
    ("alias self-addressed load opteron", "ret=int:65536 cycles=4060700000000000 instrs=4 uops=4", "86188c55d9bf9f1ed595ea5a982da722");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=0", "ret=fp:0 cycles=0 instrs=3 uops=3", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=0", "ret=fp:0 cycles=4011555555555555 instrs=3 uops=7", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=0", "ret=fp:0 cycles=4011555555555555 instrs=3 uops=7", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=1", "ret=fp:bfcec579575d80f4 cycles=0 instrs=7 uops=7", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=1", "ret=fp:bfcec579575d80f4 cycles=4078855555555555 instrs=7 uops=14", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=1", "ret=fp:bfcec579575d80f4 cycles=4078855555555555 instrs=7 uops=14", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=2", "ret=fp:bff2ecad9866b805 cycles=0 instrs=11 uops=11", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=2", "ret=fp:bff2ecad9866b805 cycles=4078d55555555555 instrs=11 uops=21", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=2", "ret=fp:bff2ecad9866b805 cycles=4078d55555555555 instrs=11 uops=21", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=3", "ret=fp:3fff429c78a792c0 cycles=0 instrs=15 uops=15", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=3", "ret=fp:3fff429c78a792c0 cycles=4079255555555555 instrs=15 uops=28", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=3", "ret=fp:3fff429c78a792c0 cycles=4079255555555555 instrs=15 uops=28", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=5", "ret=fp:c000c7e93930d491 cycles=0 instrs=23 uops=23", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=5", "ret=fp:c000c7e93930d491 cycles=4079c55555555555 instrs=23 uops=42", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=5", "ret=fp:c000c7e93930d491 cycles=4079c55555555555 instrs=23 uops=42", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=8", "ret=fp:4019e729b73f08b7 cycles=0 instrs=35 uops=35", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=8", "ret=fp:4019e729b73f08b7 cycles=407ab55555555555 instrs=35 uops=63", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=8", "ret=fp:4019e729b73f08b7 cycles=407ab55555555555 instrs=35 uops=63", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=17", "ret=fp:4015db42b7e2c172 cycles=0 instrs=71 uops=71", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=17", "ret=fp:4015db42b7e2c172 cycles=407d855555555555 instrs=71 uops=126", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=17", "ret=fp:4015db42b7e2c172 cycles=407d855555555555 instrs=71 uops=126", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro ref untimed n=34", "ret=fp:4011b724f03b8c46 cycles=0 instrs=139 uops=139", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz24-f2ed8fc77801.repro ref timed n=34", "ret=fp:4011b724f03b8c46 cycles=40816aaaaaaaaaaa instrs=139 uops=245", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz24-f2ed8fc77801.repro ref timed tinyL1 n=34", "ret=fp:4011b724f03b8c46 cycles=40816aaaaaaaaaaa instrs=139 uops=245", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=0", "ret=fp:0 cycles=0 instrs=2 uops=2", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=0", "ret=fp:0 cycles=4010000000000000 instrs=2 uops=5", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=0", "ret=fp:0 cycles=400d555555555555 instrs=2 uops=5", "484165f384d0173ac7067930b84827af");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=1", "ret=fp:bfcec579575d80f4 cycles=0 instrs=4 uops=4", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=1", "ret=fp:bfcec579575d80f4 cycles=40788aaaaaaaaaab instrs=4 uops=10", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=1", "ret=fp:bfcec579575d80f4 cycles=40788aaaaaaaaaab instrs=4 uops=10", "0c3939df289e9bdef56e038271acb865");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=2", "ret=fp:bff2ecad9866b805 cycles=0 instrs=7 uops=7", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=2", "ret=fp:bff2ecad9866b805 cycles=4078caaaaaaaaaab instrs=7 uops=12", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=2", "ret=fp:bff2ecad9866b805 cycles=4078caaaaaaaaaab instrs=7 uops=12", "b3345ce93923da18f97dcc2668af2afb");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=3", "ret=fp:3fff429c78a792c0 cycles=0 instrs=9 uops=9", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=3", "ret=fp:3fff429c78a792c0 cycles=40791aaaaaaaaaab instrs=9 uops=17", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=3", "ret=fp:3fff429c78a792c0 cycles=40791aaaaaaaaaab instrs=9 uops=17", "0446609d828ea82838703ab1d97eab5a");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=5", "ret=fp:c000c7e93930d491 cycles=0 instrs=14 uops=14", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=5", "ret=fp:c000c7e93930d491 cycles=4079baaaaaaaaaab instrs=14 uops=24", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=5", "ret=fp:c000c7e93930d491 cycles=4079baaaaaaaaaab instrs=14 uops=24", "47ed204f9ac2edfca27970ef572764ed");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=8", "ret=fp:4019e729b73f08b7 cycles=0 instrs=22 uops=22", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=8", "ret=fp:4019e729b73f08b7 cycles=407aaaaaaaaaaaab instrs=22 uops=33", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=8", "ret=fp:4019e729b73f08b7 cycles=407aaaaaaaaaaaab instrs=22 uops=33", "19a55b72a11b1c8b6cbac5b41db7d9a2");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=17", "ret=fp:4015db42b7e2c172 cycles=0 instrs=44 uops=44", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=17", "ret=fp:4015db42b7e2c172 cycles=407d7aaaaaaaaaab instrs=44 uops=66", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=17", "ret=fp:4015db42b7e2c172 cycles=407d7aaaaaaaaaab instrs=44 uops=66", "b0bfbd98daacefc0e0367c824a5122d1");
    ("corpus fz24-f2ed8fc77801.repro opt untimed n=34", "ret=fp:4011b724f03b8c46 cycles=0 instrs=87 uops=87", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz24-f2ed8fc77801.repro opt timed n=34", "ret=fp:4011b724f03b8c46 cycles=4081655555555556 instrs=87 uops=124", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz24-f2ed8fc77801.repro opt timed tinyL1 n=34", "ret=fp:4011b724f03b8c46 cycles=4081655555555556 instrs=87 uops=124", "7d5cfafee47ae73a9d91e85cd3189a7e");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=0", "ret=fp:0 cycles=0 instrs=4 uops=4", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro ref timed n=0", "ret=fp:0 cycles=4012aaaaaaaaaaaa instrs=4 uops=8", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=0", "ret=fp:0 cycles=4012aaaaaaaaaaaa instrs=4 uops=8", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=1", "ret=fp:bfcec57960000000 cycles=0 instrs=8 uops=8", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro ref timed n=1", "ret=fp:bfcec57960000000 cycles=40788aaaaaaaaaab instrs=8 uops=15", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=1", "ret=fp:bfcec57960000000 cycles=40788aaaaaaaaaab instrs=8 uops=15", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=2", "ret=fp:bff2ecada0000000 cycles=0 instrs=12 uops=12", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro ref timed n=2", "ret=fp:bff2ecada0000000 cycles=4078daaaaaaaaaab instrs=12 uops=22", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=2", "ret=fp:bff2ecada0000000 cycles=4078daaaaaaaaaab instrs=12 uops=22", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=3", "ret=fp:3fff429c80000000 cycles=0 instrs=16 uops=16", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro ref timed n=3", "ret=fp:3fff429c80000000 cycles=40792aaaaaaaaaab instrs=16 uops=29", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=3", "ret=fp:3fff429c80000000 cycles=40792aaaaaaaaaab instrs=16 uops=29", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=5", "ret=fp:c000c7e940000000 cycles=0 instrs=24 uops=24", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro ref timed n=5", "ret=fp:c000c7e940000000 cycles=4079caaaaaaaaaab instrs=24 uops=43", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=5", "ret=fp:c000c7e940000000 cycles=4079caaaaaaaaaab instrs=24 uops=43", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=8", "ret=fp:4019e729e0000000 cycles=0 instrs=36 uops=36", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro ref timed n=8", "ret=fp:4019e729e0000000 cycles=407abaaaaaaaaaab instrs=36 uops=64", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=8", "ret=fp:4019e729e0000000 cycles=407abaaaaaaaaaab instrs=36 uops=64", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=17", "ret=fp:4015db42a0000000 cycles=0 instrs=72 uops=72", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro ref timed n=17", "ret=fp:4015db42a0000000 cycles=407d8aaaaaaaaaab instrs=72 uops=127", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=17", "ret=fp:4015db42a0000000 cycles=407d8aaaaaaaaaab instrs=72 uops=127", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro ref untimed n=34", "ret=fp:4011b72580000000 cycles=0 instrs=140 uops=140", "b252de8583ac065ad7ecdec5e3249dc3");
    ("corpus fz3-0bc344208ec0.repro ref timed n=34", "ret=fp:4011b72580000000 cycles=40816d5555555556 instrs=140 uops=246", "b252de8583ac065ad7ecdec5e3249dc3");
    ("corpus fz3-0bc344208ec0.repro ref timed tinyL1 n=34", "ret=fp:4011b72580000000 cycles=40816d5555555556 instrs=140 uops=246", "b252de8583ac065ad7ecdec5e3249dc3");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=0", "ret=fp:0 cycles=0 instrs=3 uops=3", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro opt timed n=0", "ret=fp:0 cycles=4011555555555555 instrs=3 uops=6", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=0", "ret=fp:0 cycles=4011555555555555 instrs=3 uops=6", "ebea9104f9d94f78fa3d4eac74863a53");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=1", "ret=fp:bfcec57960000000 cycles=0 instrs=5 uops=5", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro opt timed n=1", "ret=fp:bfcec57960000000 cycles=4078955555555555 instrs=5 uops=11", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=1", "ret=fp:bfcec57960000000 cycles=4078955555555555 instrs=5 uops=11", "435dcf51048e3a3259ce4ce6da74886b");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=2", "ret=fp:bff2ecada0000000 cycles=0 instrs=7 uops=7", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro opt timed n=2", "ret=fp:bff2ecada0000000 cycles=4078e55555555555 instrs=7 uops=16", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=2", "ret=fp:bff2ecada0000000 cycles=4078e55555555555 instrs=7 uops=16", "45820ea19a63fa5997e6a242418d72f8");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=3", "ret=fp:3fff429c80000000 cycles=0 instrs=10 uops=10", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro opt timed n=3", "ret=fp:3fff429c80000000 cycles=4079255555555555 instrs=10 uops=15", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=3", "ret=fp:3fff429c80000000 cycles=4079255555555555 instrs=10 uops=15", "296847ba3bc5277924635253aa3cc77f");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=5", "ret=fp:c000c7e940000000 cycles=0 instrs=14 uops=14", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro opt timed n=5", "ret=fp:c000c7e940000000 cycles=4079c55555555555 instrs=14 uops=25", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=5", "ret=fp:c000c7e940000000 cycles=4079c55555555555 instrs=14 uops=25", "7679083c9041529f0186720bb76fe130");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=8", "ret=fp:4019e729e0000000 cycles=0 instrs=21 uops=21", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro opt timed n=8", "ret=fp:4019e729e0000000 cycles=407ab55555555555 instrs=21 uops=34", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=8", "ret=fp:4019e729e0000000 cycles=407ab55555555555 instrs=21 uops=34", "9e288d60e3534c06559b892034d523e8");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=17", "ret=fp:4015db42a0000000 cycles=0 instrs=42 uops=42", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro opt timed n=17", "ret=fp:4015db42a0000000 cycles=407d855555555555 instrs=42 uops=61", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=17", "ret=fp:4015db42a0000000 cycles=407d855555555555 instrs=42 uops=61", "f5ee6518533fcabe0ce4c383a8bdd56f");
    ("corpus fz3-0bc344208ec0.repro opt untimed n=34", "ret=fp:4011b72580000000 cycles=0 instrs=82 uops=82", "b252de8583ac065ad7ecdec5e3249dc3");
    ("corpus fz3-0bc344208ec0.repro opt timed n=34", "ret=fp:4011b72580000000 cycles=40816aaaaaaaaaaa instrs=82 uops=110", "b252de8583ac065ad7ecdec5e3249dc3");
    ("corpus fz3-0bc344208ec0.repro opt timed tinyL1 n=34", "ret=fp:4011b72580000000 cycles=40816aaaaaaaaaaa instrs=82 uops=110", "b252de8583ac065ad7ecdec5e3249dc3");
  ]

(* Run a group of cases and check them, in order, against the goldens
   whose name starts with [group]: a changed outcome, a new case and a
   golden no case produced all fail, and the message prints the lines
   to put in the table. *)
let check_group group cases =
  let got = List.map observe cases in
  let want =
    List.filter (fun (k, _, _) -> String.starts_with ~prefix:(group ^ " ") k) goldens
  in
  if got <> want then begin
    let fresh = List.filter (fun l -> not (List.mem l want)) got in
    let stale = List.filter (fun l -> not (List.mem l got)) want in
    Alcotest.failf "%s: %d cases, %d goldens\nnew lines:\n%s\nstale goldens:\n%s" group
      (List.length got) (List.length want)
      (String.concat "\n" (List.map render fresh))
      (String.concat "\n" (List.map render stale))
  end

(* ---------- BLAS suite: kernels x points x contexts x machines ---------- *)

let contexts = [ ("oc", Timer.Out_of_cache); ("l2", Timer.In_l2) ]
let machines = [ ("p4e", Config.p4e); ("opteron", Config.opteron) ]

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

let test_blas_goldens () =
  check_group "blas"
    (List.concat_map
       (fun id ->
         let name = Defs.name id in
         let spec = Workload.timer_spec id ~seed in
         let ret_fsize = spec.Timer.ret_fsize in
         let mkenv n () = spec.Timer.make_env n in
         let reference, tuned, variant = blas_funcs id in
         let points =
           (name ^ "/ref", reference) :: ((name ^ "/tuned", tuned)
           :: (match variant with Some f -> [ (name ^ "/wnt+ae", f) ] | None -> []))
         in
         List.concat_map
           (fun (what, func) ->
             (* untimed, remainder-heavy sizes *)
             List.map
               (fun n ->
                 case ~ret_fsize (Printf.sprintf "blas %s untimed n=%d" what n) func (mkenv n))
               [ 0; 1; 257 ]
             (* timed, both usage contexts on both machines *)
             @ List.concat_map
                 (fun (mname, mcfg) ->
                   List.map
                     (fun (cname, context) ->
                       case ~ret_fsize ~timing:(Context (mcfg, context))
                         (Printf.sprintf "blas %s %s %s n=257" what mname cname)
                         func (mkenv 257))
                     contexts)
                 machines)
           points)
       Defs.all)

(* ---------- adversarial cache geometries ---------- *)

(* Geometries chosen to defeat the memory system's acceleration state:
   direct-mapped caches (the MRU way filter is the whole set, so every
   conflict evicts through it), a tiny L1 (constant capacity misses and
   eviction/writeback traffic at sizes the default geometry absorbs),
   and a 16-byte L1 line under a 128-byte L2 line (one L2 fill spans
   eight L1 lines, stressing the inclusive fill paths). *)
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
  check_group "adversarial"
    (List.concat_map
       (fun id ->
         let name = Defs.name id in
         let spec = Workload.timer_spec id ~seed in
         let ret_fsize = spec.Timer.ret_fsize in
         let mkenv () = spec.Timer.make_env 257 in
         let _, tuned, _ = blas_funcs id in
         List.concat_map
           (fun (gname, acfg) ->
             case ~ret_fsize ~timing:(Flushed acfg)
               (Printf.sprintf "adversarial %s %s timed n=257" name gname)
               tuned mkenv
             :: List.map
                  (fun (cname, context) ->
                    case ~ret_fsize ~timing:(Context (acfg, context))
                      (Printf.sprintf "adversarial %s %s timed %s n=257" name gname cname)
                      tuned mkenv)
                  contexts)
           adversarial_cfgs)
       [ { Defs.routine = Defs.Axpy; prec = Instr.D };
         { Defs.routine = Defs.Copy; prec = Instr.S };
         { Defs.routine = Defs.Iamax; prec = Instr.D };
       ])

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
  let rfs = spec.Timer.ret_fsize in
  let run ms n =
    let env = spec.Timer.make_env n in
    Memsys.reset ms ~flush:true;
    let r = Exec.exec ~timing:(cfg, ms) ~ret_fsize:rfs cf env in
    (outcome_to_string (Finished r), Digest.to_hex (Digest.bytes (Env.mem env)))
  in
  let ms = Memsys.create cfg in
  let fresh = run ms 257 in
  (* churn: different problem size, then an In_l2-style warm, leaving
     in-flight fills, touched ways and MRU hints populated *)
  ignore (run ms 130 : string * string);
  Env.iter_array_lines (spec.Timer.make_env 130) ~line:cfg.Config.l2.Config.line (fun addr ->
      Memsys.warm_l2 ms ~addr);
  Alcotest.(check (pair string string)) "reused memsys after churn" fresh (run ms 257)

(* reset ~flush:false keeps cache contents (the warm-cache episodes the
   context-adaptation example runs): the warm second episode must not
   be slower than the cold first. *)
let test_reset_noflush_episodes () =
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let spec = Workload.timer_spec id ~seed in
  let ret_fsize = spec.Timer.ret_fsize in
  let _, tuned, _ = blas_funcs id in
  let mkenv () = spec.Timer.make_env 130 in
  let cold = case ~ret_fsize ~timing:(Flushed cfg) "noflush ddot cold" tuned mkenv in
  let warm = case ~ret_fsize ~timing:(Warm_episode cfg) "noflush ddot warm" tuned mkenv in
  check_group "noflush" [ cold; warm ];
  match (run_case cold, run_case warm) with
  | (Finished c, _), (Finished w, _) ->
    Alcotest.(check bool) "warm episode is no slower" true (w.Exec.cycles <= c.Exec.cycles)
  | _ -> Alcotest.fail "an episode trapped"

(* ---------- fuzz-corpus replay ---------- *)

let corpus_cases =
  List.map
    (fun path ->
      let base = Filename.basename path in
      Alcotest.test_case ("corpus " ^ base) `Quick (fun () ->
          let repro = Ifko_fuzz.Corpus.read path in
          let compiled = Ifko_fuzz.Fuzz.compile repro.Ifko_fuzz.Corpus.kernel in
          let ret_fsize =
            match compiled.Ifko_codegen.Lower.arrays with
            | a :: _ -> a.Ifko_codegen.Lower.a_elem
            | [] -> Instr.D
          in
          let funcs =
            ("ref", compiled.Ifko_codegen.Lower.func)
            ::
            (match
               Ifko_transform.Pipeline.apply ~line_bytes:cfg.Config.prefetchable_line
                 compiled repro.Ifko_fuzz.Corpus.params
             with
            | exception _ -> []
            | opt -> [ ("opt", opt.Ifko_codegen.Lower.func) ])
          in
          check_group ("corpus " ^ base)
            (List.concat_map
               (fun (what, func) ->
                 List.concat_map
                   (fun n ->
                     let mkenv () = Ifko_fuzz.Oracle.make_env ~seed compiled n in
                     let c timing how =
                       case ~ret_fsize ~timing
                         (Printf.sprintf "corpus %s %s %s n=%d" base what how n)
                         func mkenv
                     in
                     (* also under an adversarial geometry: corpus kernels
                        are the pipeline's known hard cases, so they make
                        the best probes of the fast-path guards *)
                     [ c Untimed "untimed";
                       c (Flushed cfg) "timed";
                       c (Flushed (List.assoc "tinyL1" adversarial_cfgs)) "timed tinyL1";
                     ])
                   Ifko_fuzz.Oracle.default_sizes)
               funcs)))
    (Ifko_fuzz.Corpus.files ~dir:"corpus")

(* ---------- traps on hand-built CFGs ---------- *)

let gpr i = Reg.virt Reg.Gpr i
let xmm i = Reg.virt Reg.Xmm i
let mem ?(disp = 0) ?index ?(scale = 1) base = Instr.mk_mem ?index ~scale ~disp base

let one_block ?(label = "entry") ?(term = Block.Ret None) instrs =
  let f = Cfg.create ~name:"t" ~params:[] in
  f.Cfg.blocks <- [ Block.make label ~instrs ~term ];
  f

let test_trap_goldens () =
  let t ?max_instrs what f = case ?max_instrs ("trap " ^ what) f (fun () -> Env.create ()) in
  (* instruction budget, checked before each instruction *)
  let loop = Cfg.create ~name:"t" ~params:[] in
  loop.Cfg.blocks <-
    [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 0, 0) ] ~term:(Block.Jmp "entry") ];
  let p = Cfg.create ~name:"t" ~params:[ ("N", gpr 0) ] in
  p.Cfg.blocks <- [ Block.make "entry" ~instrs:[] ~term:(Block.Ret None) ];
  check_group "trap"
    [ t "budget" ~max_instrs:10 loop;
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
      t "missing binding" p;
    ];
  (* a parameter bound to a value of the other register class traps
     rather than writing outside the register file of its class *)
  let w = Cfg.create ~name:"t" ~params:[ ("x", gpr 40) ] in
  w.Cfg.blocks <- [ Block.make "entry" ~instrs:[] ~term:(Block.Ret None) ];
  let env = Env.create () in
  Env.bind_fp env "x" Instr.D 1.0;
  match Exec.run w env with
  | exception Exec.Trap m ->
    Alcotest.(check string) "wrong register class"
      "parameter \"x\" is bound to a value of the wrong register class" m
  | _ -> Alcotest.fail "expected a trap"

(* An address that is both out of range and unaligned must report the
   bounds trap on every vector op. *)
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
   reject the function eagerly.  With duplicate labels, the entry and
   every jump go to the last block of that name. *)
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
  let ret k = Block.make "out" ~instrs:[ Instr.Ildi (gpr 1, k) ] ~term:(Block.Ret (Some (gpr 1))) in
  let dup = Cfg.create ~name:"t" ~params:[] in
  dup.Cfg.blocks <-
    [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 1, 1) ] ~term:(Block.Jmp "out");
      ret 10;
      Block.make "entry" ~instrs:[ Instr.Ildi (gpr 1, 2) ] ~term:(Block.Jmp "out");
      ret 20
    ];
  check_group "labels"
    (List.map
       (fun (timing, how) ->
         case ~timing (Printf.sprintf "labels never-taken missing target %s" how) f Env.create)
       [ (Untimed, "untimed"); (Flushed cfg, "timed") ]
    @ [ case ~timing:(Flushed cfg) "labels duplicate names" dup Env.create ])

(* A data-dependent alternating branch makes mispredictions depend on
   per-block predictor state. *)
let test_predictor_goldens () =
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
  check_group "predictor"
    [ case ~timing:(Flushed cfg) "predictor alternating branch" f (fun () -> Env.create ()) ]

(* A load whose destination is its own address base: the timed engine
   must charge the memory system for the address the load read, not for
   the value it wrote.  The line at 64 is stored to first and the loaded
   value points at a cold line, so charging either address for the
   other changes the cycle count. *)
let test_alias_goldens () =
  let f =
    one_block
      ~term:(Block.Ret (Some (gpr 0)))
      [ Instr.Ildi (gpr 1, 65536);
        Instr.Ildi (gpr 0, 64);
        Instr.Ist (mem (gpr 0), gpr 1);
        Instr.Ild (gpr 0, mem (gpr 0))
      ]
  in
  check_group "alias"
    (List.map
       (fun (timing, how) -> case ~timing ("alias self-addressed load " ^ how) f Env.create)
       [ (Untimed, "untimed"); (Flushed cfg, "p4e"); (Flushed Config.opteron, "opteron") ])

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
  [ Alcotest.test_case "BLAS kernels match goldens" `Quick test_blas_goldens;
    Alcotest.test_case "adversarial cache geometries" `Quick test_adversarial_geometries;
    Alcotest.test_case "reset-reuse bit-identity" `Quick test_reset_reuse_identity;
    Alcotest.test_case "reset without flush episodes" `Quick test_reset_noflush_episodes;
    Alcotest.test_case "trap goldens" `Quick test_trap_goldens;
    Alcotest.test_case "vector trap order unified" `Quick test_vector_trap_order;
    Alcotest.test_case "lazy label resolution" `Quick test_lazy_label_resolution;
    Alcotest.test_case "branch predictor goldens" `Quick test_predictor_goldens;
    Alcotest.test_case "self-addressed load goldens" `Quick test_alias_goldens;
    Alcotest.test_case "digest forced from two domains" `Quick test_digest_two_domains;
  ]
  @ corpus_cases
