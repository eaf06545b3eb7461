(** Dead-code elimination.

    Removes instructions whose results are never used (per global
    liveness) and that have no side effect.  Together with copy
    propagation this cleans the naive lowering output and, after loop
    transformations, removes index maintenance the body no longer
    needs.

    One run reaches its own fixpoint: a block is swept backward from
    its live-out, and a removed instruction's operands are never made
    live, so a whole dead chain inside a block goes in one sweep;
    removals that shrink another block's live-out re-sweep that block.
    A second run therefore changes nothing.  The result is the one
    repeated liveness-based elimination converges to: an instruction
    stays while one of its results is read, so dead cycles (beyond the
    faint self-updates below) stay, exactly as before. *)

open Ifko_analysis

let has_side_effect i =
  Instr.is_store i || (match i with Instr.Prefetch _ -> true | _ -> false)

(* The register a pure self-update [r <- r op imm] updates: its only
   operand is [r]. *)
let self_updated = function
  | Instr.Iop (_, d, s, Instr.Oimm _) when Reg.equal d s -> Some d
  | _ -> None

(* Faint-code elimination: a register whose only uses are its own pure
   self-updates ([r <- r op imm]) keeps itself alive through the loop,
   so liveness-based elimination never removes it (the unrolled loop's
   unused index maintenance is the canonical case).  Remove such
   updates directly, and return the registers they updated: those are
   now read nowhere. *)
let remove_faint width (f : Cfg.func) =
  let foreign = Regbits.create width in
  let note = Regbits.add foreign in
  List.iter
    (fun b ->
      List.iter
        (fun i -> if Option.is_none (self_updated i) then Instr.iter_uses note i)
        b.Block.instrs;
      Block.iter_term_uses note b.Block.term;
      List.iter note (Block.term_defs b.Block.term))
    f.Cfg.blocks;
  let faint i =
    match self_updated i with Some d -> not (Regbits.mem foreign d) | None -> false
  in
  let removed = Regbits.create width in
  List.iter
    (fun b ->
      if List.exists faint b.Block.instrs then
        b.Block.instrs <-
          List.filter
            (fun i ->
              if faint i then begin
                Option.iter (Regbits.add removed) (Instr.def i);
                false
              end
              else true)
            b.Block.instrs)
    f.Cfg.blocks;
  if Regbits.is_empty removed then None else Some removed

(** [enabled_by_dropping dropped f]: whether dropping the unreachable
    blocks [dropped] from [f] can let a run after one that reached its
    fixpoint remove more.  Liveness in the reachable blocks never
    depended on them, so only faint code can: [dropped] read a register
    that a pure self-update in [f] updates. *)
let enabled_by_dropping dropped (f : Cfg.func) =
  dropped <> []
  &&
  let read = Reg.Tbl.create 16 in
  let note r = Reg.Tbl.replace read r () in
  List.iter
    (fun b ->
      List.iter (Instr.iter_uses note) b.Block.instrs;
      Block.iter_term_uses note b.Block.term)
    dropped;
  List.exists
    (fun b ->
      List.exists
        (fun i -> match self_updated i with Some d -> Reg.Tbl.mem read d | None -> false)
        b.Block.instrs)
    f.Cfg.blocks

(* Sweep [b] backward from [live] (its live-out, consumed): an
   instruction whose result is not live after it goes, and adds none of
   its operands to the live set. *)
let sweep (b : Block.t) live =
  let add = Regbits.add live and remove = Regbits.remove live in
  List.iter remove (Block.term_defs b.Block.term);
  Block.iter_term_uses add b.Block.term;
  let rec go kept changed = function
    | [] -> (kept, changed)
    | i :: before -> (
      match Instr.def i with
      | Some d when (not (has_side_effect i)) && not (Regbits.mem live d) ->
        go kept true before
      | _ ->
        Instr.iter_def remove i;
        Instr.iter_uses add i;
        go (i :: kept) changed before)
  in
  let kept, changed = go [] false (List.rev b.Block.instrs) in
  if changed then b.Block.instrs <- kept;
  changed

(** [run_live live f] eliminates to the fixpoint, starting from [live],
    a liveness result valid for [f]; returns whether [f] changed and a
    liveness result valid for the result. *)
let run_live live (f : Cfg.func) =
  let changed = ref false in
  let rec pass live ~dirty =
    let dirty =
      match remove_faint (Liveness.width live) f with
      | Some regs ->
        Liveness.forget live regs;
        changed := true;
        fun _ -> true
      | None -> dirty
    in
    let swept =
      List.fold_left
        (fun acc b -> if dirty b then sweep b (Liveness.out_bits live b) || acc else acc)
        false f.Cfg.blocks
    in
    if not swept then live
    else begin
      changed := true;
      (* Removals shrink liveness only for the registers they read;
         re-sweep just the blocks whose live-out moved. *)
      let live' = Liveness.compute ~prev:live f in
      let moved =
        List.filter
          (fun b -> not (Regbits.equal (Liveness.out_bits live b) (Liveness.out_bits live' b)))
          f.Cfg.blocks
      in
      pass live' ~dirty:(fun b -> List.memq b moved)
    end
  in
  let live = pass live ~dirty:(fun _ -> true) in
  (!changed, live)

let run (f : Cfg.func) = fst (run_live (Liveness.compute f) f)
