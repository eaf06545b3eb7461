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

val check_physical : Cfg.func -> unit
(** After register allocation: additionally checks that every register
    is physical and within the architectural file (6 allocatable GPRs
    plus frame/stack pointers, 8 XMM).
    @raise Invalid on violation. *)
