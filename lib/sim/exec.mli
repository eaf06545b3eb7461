(** The LIL executor: architectural semantics plus (optionally) the
    cycle-approximate timing model.

    {!compile} decodes a function once into threaded code: each
    instruction is specialized into a closure (operand slots, memory
    shapes, comparison/arithmetic functions all resolved once), labels
    become integer block indices, and the register files are pre-sized
    from a decode-time scan.  Each instruction's effect is decoded once,
    into a semantic closure: untimed runs call it directly, and timed
    runs call a closure that runs it and then charges the timing model,
    so untimed runs pay nothing for timing and both share one
    semantics.  {!exec} replays them.  What a run observably does
    — return-value bits, trap messages and the points they are raised
    at, [cycles]/[instr_count]/[uop_count], the final memory image — is
    pinned by the execution goldens in test/test_exec_compiled.ml,
    recorded from (and checked equal to) the tree-walking interpreter
    this engine replaced.

    The timing model is a greedy out-of-order scheduler — a
    width-limited front end, per-unit service times, register-ready
    times for true (read-after-write) dependencies only (register
    renaming removes the false ones, as on the modelled machines),
    memory completion times from {!Ifko_machine.Memsys}, and a one-bit
    branch predictor per block. *)

type ret_val = Rint of int | Rfp of float

type result = {
  ret : ret_val option;
  cycles : float;  (** 0 when run without timing *)
  instr_count : int;
  uop_count : int;
}

exception Trap of string
(** Raised on semantic violations: unaligned vector access, jump to a
    missing label, instruction budget exceeded.  A trap indicates a
    compiler bug, and the test suite treats it as such. *)

type compiled
(** A function pre-decoded into threaded code.  Compile once per
    candidate, then {!exec} across contexts, sample sizes and reps. *)

val compile : Cfg.func -> compiled
(** Decode [func] (virtual or physical registers both work) into
    closure arrays.  Never traps itself: an unresolvable jump target
    traps only when the jump is taken. *)

val func : compiled -> Cfg.func
(** The function a {!compiled} was decoded from. *)

val digest : compiled -> string
(** Hex MD5 of the rendered CFG ([Cfg.to_string]), computed on the
    first call and kept — callers that key caches by compiled code (the
    sampled timer's resume-transient memo) use this instead of
    re-rendering the function per measurement, and code that is never
    timed sampled never pays for it.  Safe to call from several domains
    at once on one [compiled]: all get the same string.  The function
    must not be mutated after {!compile}. *)

val fusion : compiled -> int * int
(** [(blocks, instrs)]: how many straight-line bodies were fused into
    superblock closures and how many instructions they cover.  The
    engines make one closure dispatch per body on the (common)
    within-budget path instead of one per instruction; reported by the
    [--profile] modes of the bench driver and [ifko sim]. *)

val exec :
  ?timing:Ifko_machine.Config.t * Ifko_machine.Memsys.t ->
  ?max_instrs:int ->
  ?ret_fsize:Instr.fsize ->
  compiled ->
  Env.t ->
  result
(** Execute pre-decoded code against [env].  Parameters are
    initialized from the environment's bindings by name; the frame
    pointer is set to the environment's stack.  [ret_fsize] selects
    how a floating-point return register is read (default double).
    Default [max_instrs] is 200 million. *)

val run :
  ?timing:Ifko_machine.Config.t * Ifko_machine.Memsys.t ->
  ?max_instrs:int ->
  ?ret_fsize:Instr.fsize ->
  Cfg.func ->
  Env.t ->
  result
(** [compile] + [exec] in one call — the convenient form for
    single-shot execution.  Callers that run the same function more
    than once should compile once and use {!exec}. *)
