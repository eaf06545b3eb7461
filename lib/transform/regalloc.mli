(** Register allocation.

    An iterated linear scan: live intervals are built from global
    liveness over the laid-out blocks, allocated greedily to the
    architectural file (6 general-purpose registers — two of the
    x86-like eight are reserved for the stack and frame pointers — and
    8 XMM registers), and when demand exceeds supply the least
    valuable conflicting interval is spilled to a 16-byte frame slot
    and the scan re-runs on the rewritten code.

    The small register file is a deliberate model choice: it is what
    limits how far unrolling and accumulator expansion pay off, exactly
    as on the paper's x86 targets. *)

exception Failure of string

val run : ?live:Ifko_analysis.Liveness.t -> Cfg.func -> unit
(** Allocate in place: every register in the function (including
    [params]) becomes physical, spill code is inserted, and
    [frame_slots] is updated.  [live], a liveness result valid for the
    function, saves computing one; each spill round recomputes it.  @raise Failure if a register needed in a
    fused branch cannot be kept in a register (never happens on code
    the pipeline produces). *)
