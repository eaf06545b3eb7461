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
  let live_out = Lazy.from_fun live_out in
  let changed = ref false in
  let arr = Array.of_list b.Block.instrs in
  let n = Array.length arr in
  let killed = Array.make n false in
  (* indexed by [Reg.hash] *)
  let top = ref 0 in
  let note r = top := max !top (Reg.hash r) in
  Array.iter (Instr.iter_uses note) arr;
  Block.iter_term_uses note b.Block.term;
  let counts = Array.make (!top + 1) 0 in
  let uses_count r =
    let h = Reg.hash r in
    if h < Array.length counts then counts.(h) else 0
  in
  let count delta r = counts.(Reg.hash r) <- counts.(Reg.hash r) + delta in
  Array.iter (Instr.iter_uses (count 1)) arr;
  Block.iter_term_uses (count 1) b.Block.term;
  let fold i j instr' =
    Instr.iter_uses (count (-1)) arr.(i);
    Instr.iter_uses (count (-1)) arr.(j);
    Instr.iter_uses (count 1) instr';
    arr.(j) <- instr';
    killed.(i) <- true;
    changed := true
  in
  let reads t instr =
    let found = ref false in
    Instr.iter_uses (fun r -> if Reg.equal r t then found := true) instr;
    !found
  in
  for i = 0 to n - 1 do
    if not killed.(i) then
      match arr.(i) with
      | (Instr.Fld (sz, t, m) | Instr.Vld (sz, t, m))
        when uses_count t = 1 && not (Regbits.mem (Lazy.force live_out) t) ->
        let vector = match arr.(i) with Instr.Vld _ -> true | _ -> false in
        (* find the single use; check the window is clean *)
        let rec scan j blocked =
          if j >= n || blocked then ()
          else if killed.(j) then scan (j + 1) blocked
          else
            let instr = arr.(j) in
            let clobbers =
              match Instr.def instr with
              | Some d ->
                Reg.equal d t || Reg.equal d m.Instr.base
                || (match m.Instr.index with Some x -> Reg.equal d x | None -> false)
              | None -> false
            in
            match instr with
            | Instr.Fop (sz', op, d, a, u)
              when (not vector) && sz' = sz && Reg.equal u t && not (Reg.equal a t) ->
              fold i j (Instr.Fopm (sz', op, d, a, m))
            | Instr.Vop (sz', op, d, a, u)
              when vector && sz' = sz && Reg.equal u t && not (Reg.equal a t) ->
              fold i j (Instr.Vopm (sz', op, d, a, m))
            | instr ->
              let blocked' = clobbers || Instr.is_store instr || reads t instr in
              scan (j + 1) blocked'
        in
        scan (i + 1) false
      | _ -> ()
  done;
  if !changed then begin
    b.Block.instrs <-
      List.filteri (fun i _ -> not killed.(i)) (Array.to_list arr)
  end;
  !changed

(* Trivial identities.  [`Moved] when a removed identity read and
   wrote one register: the block no longer reads it first, so
   block-boundary liveness may shrink.  Dropping a [Nop] cannot move
   it, and neither can a load fold (the folded register is not live
   out and had that single use; the address registers are read later
   in the same block, with no write in between). *)
let simplify (b : Block.t) =
  let result = ref `Unchanged in
  let trivial = function
    | Instr.Iop ((Instr.Iadd | Instr.Isub), d, s, Instr.Oimm 0)
    | Instr.Imov (d, s)
    | Instr.Fmov (_, d, s)
    | Instr.Vmov (_, d, s) ->
      Reg.equal d s
    | Instr.Nop -> true
    | _ -> false
  in
  if List.exists trivial b.Block.instrs then
    b.Block.instrs <-
      List.filter
        (fun i ->
          if not (trivial i) then true
          else begin
            (match i with
            | Instr.Nop -> if !result = `Unchanged then result := `Changed
            | _ -> result := `Moved);
            false
          end)
        b.Block.instrs;
  !result

(** [run_block b ~live_out] folds loads, then drops trivial identities;
    the result is [simplify]'s, or [`Changed] for a fold alone.
    [live_out] is called only when a load could fold. *)
let run_block (b : Block.t) ~live_out =
  let folded = fold_loads b live_out in
  match simplify b with `Unchanged when folded -> `Changed | r -> r

let run (f : Cfg.func) =
  (* computed only if some load could fold: after register allocation
     the reused physical registers rarely leave one a single use *)
  let live = lazy (Liveness.compute f) in
  List.fold_left
    (fun acc b ->
      run_block b ~live_out:(fun () -> Liveness.out_bits (Lazy.force live) b) <> `Unchanged
      || acc)
    false f.Cfg.blocks
