(** Peephole optimizations.

    Exploits the fact that the modelled ISA, like x86, is not a true
    load/store architecture: folding a load into the memory operand of
    the arithmetic instruction that consumes it frees a register —
    which matters when the ISA exposes only eight (paper,
    Section 2.2.4).  Also cleans trivial identities left by lowering
    and earlier transformations. *)

open Ifko_analysis

(* Fold [Fld t, m; ...; Fop op d, a, t] into [Fopm op d, a, m] when [t]
   has exactly that one use in the block, is not live out, and neither
   [t] nor [m]'s address registers are redefined in between (stores in
   between block the fold: they might alias [m]).

   Use counts come from a table built once per block (every live
   instruction's uses plus the terminator's) and kept exact across
   folds: a fold subtracts the uses of the killed load and of the old
   consumer and adds those of the new [Fopm]/[Vopm].  Rescanning the
   block for every load made the pass quadratic in the block length. *)
let fold_loads (b : Block.t) live_out =
  let changed = ref false in
  let arr = Array.of_list b.Block.instrs in
  let n = Array.length arr in
  let killed = Array.make n false in
  let counts : int Reg.Tbl.t = Reg.Tbl.create 64 in
  let uses_count r = Option.value ~default:0 (Reg.Tbl.find_opt counts r) in
  let count delta r = Reg.Tbl.replace counts r (uses_count r + delta) in
  Array.iter (fun instr -> List.iter (count 1) (Instr.uses instr)) arr;
  List.iter (count 1) (Block.term_uses b.Block.term);
  let fold i j instr' =
    List.iter (count (-1)) (Instr.uses arr.(i));
    List.iter (count (-1)) (Instr.uses arr.(j));
    List.iter (count 1) (Instr.uses instr');
    arr.(j) <- instr';
    killed.(i) <- true;
    changed := true
  in
  for i = 0 to n - 1 do
    if not killed.(i) then
      match arr.(i) with
      | (Instr.Fld (sz, t, m) | Instr.Vld (sz, t, m)) when not (Reg.Set.mem t live_out) ->
        let vector = match arr.(i) with Instr.Vld _ -> true | _ -> false in
        if uses_count t = 1 then begin
          (* find the single use; check the window is clean *)
          let rec scan j blocked =
            if j >= n || blocked then ()
            else if killed.(j) then scan (j + 1) blocked
            else
              let instr = arr.(j) in
              let defs = Instr.defs instr in
              let clobbers =
                List.exists
                  (fun d ->
                    Reg.equal d t || Reg.equal d m.Instr.base
                    || match m.Instr.index with Some x -> Reg.equal d x | None -> false)
                  defs
              in
              match instr with
              | Instr.Fop (sz', op, d, a, u)
                when (not vector) && sz' = sz && Reg.equal u t && not (Reg.equal a t) ->
                fold i j (Instr.Fopm (sz', op, d, a, m))
              | Instr.Vop (sz', op, d, a, u)
                when vector && sz' = sz && Reg.equal u t && not (Reg.equal a t) ->
                fold i j (Instr.Vopm (sz', op, d, a, m))
              | instr ->
                let blocked' =
                  clobbers || Instr.is_store instr
                  || List.exists (Reg.equal t) (Instr.uses instr)
                in
                scan (j + 1) blocked'
          in
          scan (i + 1) false
        end
      | _ -> ()
  done;
  if !changed then begin
    b.Block.instrs <-
      List.filteri (fun i _ -> not killed.(i)) (Array.to_list arr)
  end;
  !changed

(* Trivial identities. *)
let simplify (b : Block.t) =
  let changed = ref false in
  b.Block.instrs <-
    List.filter_map
      (fun i ->
        match i with
        | Instr.Iop (Instr.Iadd, d, s, Instr.Oimm 0) when Reg.equal d s ->
          changed := true;
          None
        | Instr.Iop (Instr.Isub, d, s, Instr.Oimm 0) when Reg.equal d s ->
          changed := true;
          None
        | Instr.Imov (d, s) when Reg.equal d s ->
          changed := true;
          None
        | Instr.Fmov (_, d, s) when Reg.equal d s ->
          changed := true;
          None
        | Instr.Vmov (_, d, s) when Reg.equal d s ->
          changed := true;
          None
        | Instr.Nop ->
          changed := true;
          None
        | i -> Some i)
      b.Block.instrs;
  !changed

let run (f : Cfg.func) =
  let live = Liveness.compute f in
  List.fold_left
    (fun acc b ->
      let c1 = fold_loads b (Liveness.live_out live b.Block.label) in
      let c2 = simplify b in
      acc || c1 || c2)
    false f.Cfg.blocks
