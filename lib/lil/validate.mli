(** Structural invariant checker for LIL functions.

    Run after lowering and after every transformation in the test
    suite; a validation failure indicates a compiler bug, never a user
    error. *)

exception Invalid of string

val check : Cfg.func -> unit
(** Checks that:
    - block labels are unique and every branch targets an existing block;
    - register classes are consistent per instruction (e.g. FP ops only
      name [Xmm] registers, memory bases/indices are [Gpr]);
    - vector lane indices are in range for their precision;
    - [Br] decrements are non-negative and scales are 1, 2, 4 or 8;
    - at least one block ends in [Ret].
    @raise Invalid with a diagnostic on the first violation. *)

val instr_rules : bad:(string -> unit) -> Instr.t -> unit
(** The per-instruction rules {!check} applies: register classes,
    memory scales and vector lanes.  [bad] is called with each broken
    rule's text, in rule order ("register r3 should be a GPR"); the
    text is built only for a broken rule.  {!check} raises {!Invalid}
    on the first, prefixed with the rendered instruction; the linter
    collects them all. *)

(** Where a structure rule broke, for {!rules}: the function as a
    whole (no blocks, never returns), a duplicated block [Label], a
    terminator naming an unknown [Target] block, a terminator operand
    ([Term]: branch register classes, negative fused decrement), or an
    instruction (block, index, instruction) breaking an
    {!instr_rules} rule. *)
type site =
  | Func
  | Label of string
  | Target of string
  | Term of string
  | Instr of string * int * Instr.t

val rules : bad:(site -> string -> unit) -> Cfg.func -> unit
(** Every rule {!check} applies, in the order it applies them, calling
    [bad] with the site and the rule's text for each one broken.  A
    function without blocks reports only that.  {!check} raises on the
    first, adding the instruction or ["block L terminator: "] in front;
    the linter collects them all. *)

val check_physical : Cfg.func -> unit
(** After register allocation: additionally checks that every register
    is physical and within the architectural file (6 allocatable GPRs
    plus frame/stack pointers, 8 XMM).
    @raise Invalid on violation. *)
