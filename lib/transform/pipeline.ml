open Ifko_codegen
module Liveness = Ifko_analysis.Liveness

let snapshot (compiled : Lower.compiled) =
  let func = Cfg.copy compiled.Lower.func in
  let loopnest =
    Option.map
      (fun (ln : Loopnest.t) ->
        Loopnest.
          {
            preheader = ln.preheader;
            header = ln.header;
            latch = ln.latch;
            mid = ln.mid;
            exit = ln.exit;
            cleanup = ln.cleanup;
            cnt = ln.cnt;
            index = ln.index;
            step = ln.step;
            per_iter = ln.per_iter;
            vectorized = ln.vectorized;
            unrolled = ln.unrolled;
            lc_fused = ln.lc_fused;
            speculate = ln.speculate;
            template = ln.template;
          })
      compiled.Lower.loopnest
  in
  { compiled with Lower.func; loopnest }

let protected_labels (compiled : Lower.compiled) =
  match compiled.Lower.loopnest with
  | None -> []
  | Some ln ->
    let fixed =
      [ ln.Loopnest.preheader; ln.Loopnest.header; ln.Loopnest.latch; ln.Loopnest.mid;
        ln.Loopnest.exit ]
    in
    (match ln.Loopnest.cleanup with
    | Some (h, l) -> h :: l :: fixed
    | None -> fixed)

(** Maximum rounds of the repeatable block before giving up on the
    fixpoint. *)
let max_repeat = 20

(* The repeatable block, run to the fixpoint a naive loop reaches (all
   four passes per round until a round changes nothing) without
   re-running a pass that is known to change nothing:

   - copy propagation and peephole are block-local.  Each remembers the
     instruction list and terminator registers it last left unchanged
     in each block (lists and terminators are immutable, so physical
     identity is content identity) and, for peephole, the block's
     live-out; a block they match is skipped.  A block a pass changed
     stays due for it, so neither pass is assumed idempotent.
   - dead-code elimination reaches its own fixpoint in one run.  Only
     copy propagation, a peephole identity that read and wrote one
     register, and dropping an unreachable block that read a
     self-updated register ([Deadcode.enabled_by_dropping]) can enable
     it; a load fold cannot, and neither can threading or merging,
     which keep the instructions and every remaining block's live-in.
   - control-flow cleanup reaches its own fixpoint in one run as well
     ([Branchopt.may_change]); after a change anywhere, it runs only
     while some jump targets an empty block ending in a jump.

   One liveness result serves the round: peephole reads it, dead-code
   elimination starts from it and returns one valid for its output, and
   control-flow cleanup leaves it valid ([Liveness.out_bits]).  It is
   recomputed only after copy propagation changed a block or peephole
   dropped a self-copy.  Returns the rounds the naive loop would have
   run, its confirming round included, and the liveness of the
   result. *)
let repeatable_live ?on_pass ?(protect = []) (f : Cfg.func) =
  let notify name = match on_pass with Some cb -> cb name | None -> () in
  let last = ref None (* the latest liveness result, for reuse *) in
  let valid = ref false (* whether [!last] is exact for [f] now *) in
  let live () =
    match !last with
    | Some l when !valid -> l
    | prev ->
      let l = Liveness.compute ?prev f in
      last := Some l;
      valid := true;
      l
  in
  let copyprop_seen = Hashtbl.create 16 and peephole_seen = Hashtbl.create 16 in
  let seen tbl (b : Block.t) ~out =
    match Hashtbl.find_opt tbl b.Block.label with
    | Some (instrs, term, out') ->
      instrs == b.Block.instrs && Block.same_regs term b.Block.term
      && Option.equal Regbits.equal out out'
    | None -> false
  in
  let remember tbl (b : Block.t) ~out =
    Hashtbl.replace tbl b.Block.label (b.Block.instrs, b.Block.term, out)
  in
  let peephole_out b = if !valid then Some (Liveness.out_bits (live ()) b) else None in
  let deadcode_due = ref true in
  (* whether anything changed since control-flow cleanup last ran *)
  let branchopt_stale = ref true in
  let branchopt_due () = !branchopt_stale && Branchopt.may_change f in
  let pending () =
    !deadcode_due || branchopt_due ()
    || List.exists
         (fun b ->
           (not (seen copyprop_seen b ~out:None))
           || not (seen peephole_seen b ~out:(peephole_out b)))
         f.Cfg.blocks
  in
  let round n =
    let changed = ref false in
    let fired name =
      changed := true;
      branchopt_stale := true;
      notify (Printf.sprintf "%s (round %d)" name n)
    in
    let copied =
      List.fold_left
        (fun acc b ->
          if seen copyprop_seen b ~out:None then acc
          else if Copyprop.run_block b then true
          else begin
            remember copyprop_seen b ~out:None;
            acc
          end)
        false f.Cfg.blocks
    in
    if copied then begin
      fired "copyprop";
      valid := false;
      deadcode_due := true
    end;
    let peeped =
      let l = live () in
      List.fold_left
        (fun acc b ->
          let out = Liveness.out_bits l b in
          if seen peephole_seen b ~out:(Some out) then acc
          else
            match Peephole.run_block b ~live_out:(fun () -> out) with
            | `Unchanged ->
              remember peephole_seen b ~out:(Some out);
              acc
            | `Changed -> max acc 1
            | `Moved -> 2)
        0 f.Cfg.blocks
    in
    if peeped > 0 then fired "peephole";
    if peeped = 2 then begin
      valid := false;
      deadcode_due := true
    end;
    if !deadcode_due then begin
      let c, l = Deadcode.run_live (live ()) f in
      last := Some l;
      valid := true;
      deadcode_due := false;
      if c then fired "deadcode"
    end;
    if n = 0 || branchopt_due () then begin
      branchopt_stale := false;
      let o = Branchopt.apply ~protect f in
      if Deadcode.enabled_by_dropping o.Branchopt.dropped f then deadcode_due := true;
      if o.Branchopt.changed then fired "branchopt"
    end
    else branchopt_stale := false;
    !changed
  in
  let rec go n =
    let changed = round n in
    if changed && n = max_repeat then begin
      prerr_endline
        (Ifko_analysis.Diag.to_string
           (Ifko_analysis.Diag.warning "IFK009"
              "repeatable transforms on %s still changing after %d rounds; fixpoint not \
               reached"
              f.Cfg.fname max_repeat));
      n + 1
    end
    else if not changed then n + 1
    else if not (pending ()) then n + 2
    else go (n + 1)
  in
  let rounds = go 0 in
  (rounds, if !valid then !last else None)

(** [repeatable ?on_pass f] runs the repeatable transformations to a
    fixpoint; [on_pass] is invoked with a pass name after every
    sub-pass that changed the function (the per-pass checking hook).
    If the fixpoint is not reached within {!max_repeat} rounds a
    diagnostic is emitted on stderr instead of stopping silently. *)
let repeatable ?on_pass ?protect f = fst (repeatable_live ?on_pass ?protect f)

(** [apply ?check ?inject ~line_bytes compiled params] is one FKO
    invocation: the fundamental transformations in fixed order, the
    repeatable block to a fixpoint, register allocation.

    With [?check] (a {!Passcheck.t}), the lint suite and translation
    validation run after {e each} pass, raising
    {!Passcheck.Pass_failed} naming the first pass that broke an
    invariant.  [?inject] is fault injection for testing that
    machinery: [(pass, break)] runs [break] on the compiled kernel
    right after the named pass, simulating a bug in it.

    A transform may refuse its requested parameters when the
    {!Ifko_analysis.Legality} oracle cannot prove it safe; the point
    then compiles {e without} that transform and [?on_skip] receives
    the rejection diagnostic (IFK012) so callers can log or surface
    it. *)
let started = Atomic.make 0
let runs () = Atomic.get started

let apply ?(skip_regalloc = false) ?check ?inject ?on_skip ~line_bytes
    (compiled : Lower.compiled) (params : Params.t) =
  Atomic.incr started;
  let c = snapshot compiled in
  let f = c.Lower.func in
  let reference =
    Option.map (fun ck -> Passcheck.capture ck ~pass:"lowering" c) check
  in
  let checked pass =
    (match inject with
    | Some (target, break) when target = pass -> break c
    | _ -> ());
    match (check, reference) with
    | Some ck, Some reference -> Passcheck.verify ck ~pass ~reference c
    | _ -> ()
  in
  let fundamental pass enabled run =
    if enabled then begin
      (match run () with
      | Ok () -> ()
      | Error d -> (
        match on_skip with
        | Some cb -> cb d
        | None -> ()));
      checked pass
    end
  in
  let ok run () = run (); Ok () in
  (* Fundamental transformations, fixed order. *)
  fundamental "SV" params.Params.sv (fun () -> Simd.apply c);
  fundamental "UR" (params.Params.unroll > 1) (fun () -> Unroll.apply c params.Params.unroll);
  fundamental "CISC" params.Params.cisc (ok (fun () -> Ciscidx.apply c));
  fundamental "LC" params.Params.lc (ok (fun () -> Loopctl.apply c));
  fundamental "AE" (params.Params.ae > 1) (fun () -> Accexp.apply c params.Params.ae);
  fundamental "BF" (params.Params.bf > 0) (ok (fun () -> Blockfetch.apply c params.Params.bf));
  fundamental "PF"
    (params.Params.prefetch <> [])
    (ok (fun () -> Prefetch_xform.apply c ~line_bytes params.Params.prefetch));
  fundamental "WNT" params.Params.wnt (fun () -> Ntwrite.apply c);
  (* Repeatable block to fixed point, then allocation, then a final
     cleanup of any trivialities the spill code introduced. *)
  let on_pass = if check = None then None else Some checked in
  let _, live = repeatable_live ?on_pass ~protect:(protected_labels c) f in
  (* Final unprotected control-flow cleanup: nothing needs the loop
     bookkeeping labels any more, so the body can absorb the latch
     (removing a jump per iteration).  The loop-nest labels in [c] may
     go stale here; only the code matters from this point on. *)
  ignore (Branchopt.run f : bool);
  checked "branchopt (final)";
  Validate.check f;
  if not skip_regalloc then begin
    Regalloc.run ?live f;
    checked "regalloc";
    ignore (Peephole.run f : bool);
    checked "peephole (post-regalloc)";
    Validate.check_physical f
  end;
  c

(* Prefetch shapes.  Array [i] of a shape prefetches at the sentinel
   distance [(i + 1) * sentinel_unit] with [template_kind]; every
   displacement PF emits for it is [sentinel i + j * line], so a
   displacement's magnitude names its array and its line offset. *)
let sentinel_unit = 1 lsl 24
let sentinel i = (i + 1) * sentinel_unit
let template_kind = Instr.Nta

let shape (p : Params.t) =
  {
    p with
    Params.prefetch =
      List.mapi
        (fun i (a, (pf : Params.pf_param)) ->
          ( a,
            match pf.Params.pf_ins with
            | None -> Params.no_prefetch
            | Some _ -> { Params.pf_ins = Some template_kind; pf_dist = sentinel i } ))
        p.Params.prefetch;
  }

let instantiate (template : Cfg.func) (p : Params.t) =
  let settings = Array.of_list p.Params.prefetch in
  let patch kind (m : Instr.mem) =
    let ahead = abs m.Instr.disp in
    let i = (ahead / sentinel_unit) - 1 in
    let setting =
      if i < 0 || i >= Array.length settings then None else Some (snd settings.(i))
    in
    match setting with
    | Some { Params.pf_ins = Some k; pf_dist } when kind = template_kind ->
      let d = pf_dist + (ahead - sentinel i) in
      Instr.Prefetch (k, { m with Instr.disp = (if m.Instr.disp < 0 then -d else d) })
    | _ ->
      invalid_arg
        (Printf.sprintf "Pipeline.instantiate: %s: prefetch %s matches no array of %s"
           template.Cfg.fname
           (Instr.to_string (Instr.Prefetch (kind, m)))
           (Params.canonical p))
  in
  let f = Cfg.copy template in
  List.iter
    (fun (b : Block.t) ->
      if List.exists (function Instr.Prefetch _ -> true | _ -> false) b.Block.instrs then
        b.Block.instrs <-
          List.map
            (function Instr.Prefetch (kind, m) -> patch kind m | i -> i)
            b.Block.instrs)
    f.Cfg.blocks;
  f
