(** Backward live-register dataflow over a LIL function.

    Used by dead-code elimination, peephole load folding, register
    allocation and the legality checks of the fundamental
    transformations.

    Sets are word bit sets indexed by {!Reg.hash} ({!Regbits}): dense
    over one function's registers, so a block's summary and the
    worklist's transfer are a few word operations per block.  The hot
    passes read the bits; {!live_in}, {!live_out} and
    {!live_before_each} give the [Reg.Set] view the off-path analyses
    ({!Lint}, {!Vecinfo}) use.

    A result stays valid for as long as the registers live at each
    block boundary do, which is longer than the function stays
    unchanged: the transform pipeline keeps one result across passes
    that cannot move a block boundary's liveness (a peephole load fold,
    control-flow cleanup) and recomputes after the others, passing the
    previous result as [prev] so the label index, the predecessor slots
    and the summaries of untouched blocks are reused. *)

type t

val compute : ?prev:t -> Cfg.func -> t
(** Run the worklist analysis to a fixed point.  With [prev] (an
    earlier result for [f]), its graph is reused when [f] still has the
    same blocks with the same successor labels
    ({!Dataflow.graph_fits}), and so is the summary of every block
    whose instruction list and terminator are physically the ones it
    was built from. *)

val live_in : t -> string -> Reg.Set.t
(** Registers live on entry to the named block. *)

val live_out : t -> string -> Reg.Set.t
(** Registers live on exit from the named block (union of successors'
    [live_in], in the graph the result was computed on). *)

val live_before_each : t -> Block.t -> (Instr.t * Reg.Set.t) list
(** [live_before_each t b] pairs every instruction of [b] with the set
    of registers live {e after} it executes, in block order.  The
    terminator's uses are included at the end of the block. *)

(** {2 Bit-level view} *)

val width : t -> int
(** Words per set: the width to create working sets with. *)

val in_bits : t -> string -> Regbits.t
(** Registers live on entry to the named block (empty for an unknown
    label).  Shared with [t]: do not mutate. *)

val out_bits : t -> Block.t -> Regbits.t
(** A fresh set of the registers live on exit from [b], as the union
    of its {e current} successors' live-in.  Control-flow cleanup
    (threading a jump through an empty block, dropping unreachable
    blocks, merging a block into its only predecessor) leaves every
    remaining block's live-in unchanged, so this stays exact across it
    where {!live_out} would not. *)

val forget : t -> Regbits.t -> unit
(** [forget t regs] removes [regs] from every set of [t], in place:
    exact when [regs] are no longer read anywhere in the function (so
    are live nowhere), as after faint-code elimination. *)
