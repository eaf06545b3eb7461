open Ifko_analysis

exception Failure of string

type interval = {
  reg : Reg.t;
  mutable istart : int;
  mutable iend : int;
  mutable weight : int;  (** number of uses+defs; cheap spill = low weight *)
  mutable pinned : bool;  (** written by a fused branch: must stay in a register *)
}

(* Build live intervals over the linearized function.

   An interval spans every position at which its register is live, but
   only the def, use and block-boundary positions need touching: a
   register live after instruction [k] was either defined at or before
   [k] in the block or is in the block's live-in (touched at the block
   start), and is either used after [k] in the block (terminator
   included) or is in the block's live-out (touched at the
   terminator).  Those touches already bound [k], so the intervals are
   the ones a touch at every live point would give, without building a
   live set per instruction. *)
let build_intervals live (f : Cfg.func) =
  (* by [Reg.hash], [none] for a register not seen yet: the liveness
     result is as wide as the function's registers need *)
  let none = { reg = Reg.frame_ptr; istart = 0; iend = 0; weight = 0; pinned = false } in
  let tbl = Array.make (Liveness.width live * Regbits.bits) none in
  let touch pos r =
    let iv = tbl.(Reg.hash r) in
    if iv != none then begin
      if pos < iv.istart then iv.istart <- pos;
      if pos > iv.iend then iv.iend <- pos
    end
    else tbl.(Reg.hash r) <- { reg = r; istart = pos; iend = pos; weight = 0; pinned = false }
  in
  let weigh r =
    let iv = tbl.(Reg.hash r) in
    if iv != none then iv.weight <- iv.weight + 1
  in
  (* Parameters are defined at entry. *)
  List.iter (fun (_, r) -> touch 0 r) f.Cfg.params;
  let pos = ref 0 in
  List.iter
    (fun b ->
      incr pos;
      Regbits.iter (touch !pos) (Liveness.in_bits live b.Block.label);
      List.iter
        (fun i ->
          incr pos;
          let touch_weigh r =
            touch !pos r;
            weigh r
          in
          Instr.iter_def touch_weigh i;
          Instr.iter_uses touch_weigh i)
        b.Block.instrs;
      incr pos;
      Block.iter_term_uses (touch !pos) b.Block.term;
      List.iter (touch !pos) (Block.term_defs b.Block.term);
      Block.iter_term_uses weigh b.Block.term;
      Regbits.iter (touch !pos) (Liveness.out_bits live b);
      match b.Block.term with
      | Block.Br { lhs; dec; _ } when dec > 0 ->
        let iv = tbl.(Reg.hash lhs) in
        if iv != none then iv.pinned <- true
      | _ -> ())
    f.Cfg.blocks;
  Array.fold_left (fun acc iv -> if iv == none then acc else iv :: acc) [] tbl

(* One linear-scan pass.  Returns either a complete assignment or the
   set of virtual registers to spill.  [spillable] excludes registers
   whose spilling cannot make progress (pinned counters, the reload
   temporaries of earlier rounds, minimal def-use ranges). *)
let scan ~spillable intervals =
  (* By start, then register: a total order, so the table's iteration
     order in [build_intervals] does not matter. *)
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.istart b.istart with 0 -> Reg.compare a.reg b.reg | c -> c)
      intervals
  in
  (* free register ids and active (interval, id) pairs, per class *)
  let free_gpr = ref (List.init 6 Fun.id) and free_xmm = ref (List.init 8 Fun.id) in
  let active_gpr = ref [] and active_xmm = ref [] in
  let assignment : int Reg.Tbl.t = Reg.Tbl.create 32 in
  let spills = ref [] in
  List.iter
    (fun iv ->
      let free, active =
        match iv.reg.Reg.cls with
        | Reg.Gpr -> (free_gpr, active_gpr)
        | Reg.Xmm -> (free_xmm, active_xmm)
      in
      (* Expire finished intervals. *)
      let still_active, done_ = List.partition (fun (a, _) -> a.iend >= iv.istart) !active in
      active := still_active;
      if done_ <> [] then free := List.map snd done_ @ !free;
      match !free with
      | id :: rest ->
        free := rest;
        Reg.Tbl.replace assignment iv.reg id;
        active := (iv, id) :: still_active
      | [] ->
        (* Poletto's heuristic: spill the eligible candidate whose
           interval ends furthest away (ties: fewest uses).  Spilling a
           short-lived value cannot reduce pressure, so such intervals
           are never victims. *)
        let eligible (a, _) = (not a.pinned) && spillable a.reg && a.iend - a.istart > 3 in
        let candidates = List.filter eligible ((iv, -1) :: still_active) in
        (match
           List.sort
             (fun (a, _) (b, _) ->
               match Int.compare b.iend a.iend with 0 -> Int.compare a.weight b.weight | c -> c)
             candidates
         with
        | [] -> raise (Failure "register pressure cannot be relieved by spilling")
        | (victim, vid) :: _ ->
          spills := victim.reg :: !spills;
          if vid >= 0 then begin
            (* hand the victim's register to the current interval *)
            Reg.Tbl.remove assignment victim.reg;
            Reg.Tbl.replace assignment iv.reg vid;
            active := (iv, vid) :: List.filter (fun (a, _) -> a != victim) still_active
          end))
    sorted;
  if !spills = [] then `Assigned assignment else `Spill !spills

(* Rewrite every touch of the spilled registers through fresh
   temporaries around loads/stores to a dedicated frame slot. *)
let insert_spill_code (f : Cfg.func) spilled =
  let slot_of : int Reg.Tbl.t = Reg.Tbl.create 8 in
  List.iter (fun r -> Reg.Tbl.replace slot_of r (Cfg.alloc_slot f)) spilled;
  let slot_mem disp = Instr.mk_mem ~disp Reg.frame_ptr in
  let load cls t disp =
    match cls with
    | Reg.Gpr -> Instr.Ild (t, slot_mem disp)
    | Reg.Xmm -> Instr.Vld (Instr.D, t, slot_mem disp)
  in
  let store cls disp t =
    match cls with
    | Reg.Gpr -> Instr.Ist (slot_mem disp, t)
    | Reg.Xmm -> Instr.Vst (Instr.D, slot_mem disp, t)
  in
  let is_spilled r = Reg.Tbl.mem slot_of r in
  (* Parameters that were spilled must be saved to their slot at entry,
     while their register is still live. *)
  let entry = Cfg.entry f in
  let param_saves =
    List.filter_map
      (fun (_, r) ->
        match Reg.Tbl.find_opt slot_of r with
        | Some disp -> Some (store r.Reg.cls disp r)
        | None -> None)
      f.Cfg.params
  in
  entry.Block.instrs <- param_saves @ entry.Block.instrs;
  List.iter
    (fun b ->
      let out = ref [] in
      let emit i = out := i :: !out in
      List.iter
        (fun i ->
          (* Skip the entry saves we just inserted. *)
          if List.memq i param_saves then emit i
          else begin
            let used = List.filter is_spilled (Instr.uses i) in
            let defined = List.filter is_spilled (Instr.defs i) in
            let mapping = Reg.Tbl.create 4 in
            List.iter
              (fun r ->
                if not (Reg.Tbl.mem mapping r) then begin
                  let t = Cfg.fresh_reg f r.Reg.cls in
                  Reg.Tbl.replace mapping r t;
                  emit (load r.Reg.cls t (Reg.Tbl.find slot_of r))
                end)
              used;
            List.iter
              (fun r ->
                if not (Reg.Tbl.mem mapping r) then
                  Reg.Tbl.replace mapping r (Cfg.fresh_reg f r.Reg.cls))
              defined;
            let subst r = Option.value ~default:r (Reg.Tbl.find_opt mapping r) in
            emit (Instr.map_regs subst i);
            List.iter
              (fun r -> emit (store r.Reg.cls (Reg.Tbl.find slot_of r) (Reg.Tbl.find mapping r)))
              defined
          end)
        b.Block.instrs;
      (* Terminator uses. *)
      let term_used = List.filter is_spilled (Block.term_uses b.Block.term) in
      let mapping = Reg.Tbl.create 2 in
      List.iter
        (fun r ->
          if not (Reg.Tbl.mem mapping r) then begin
            let t = Cfg.fresh_reg f r.Reg.cls in
            Reg.Tbl.replace mapping r t;
            emit (load r.Reg.cls t (Reg.Tbl.find slot_of r))
          end)
        term_used;
      if Reg.Tbl.length mapping > 0 then
        b.Block.term <-
          Block.map_term_regs
            (fun r -> Option.value ~default:r (Reg.Tbl.find_opt mapping r))
            b.Block.term;
      b.Block.instrs <- List.rev !out)
    f.Cfg.blocks

let apply_assignment (f : Cfg.func) assignment =
  let subst (r : Reg.t) =
    if r.Reg.phys then r
    else
      match Reg.Tbl.find_opt assignment r with
      | Some id -> Reg.phys r.Reg.cls id
      | None -> (
        (* Never-live register (e.g. unused parameter): any register of
           its class will do; pick one deterministically. *)
        match r.Reg.cls with
        | Reg.Gpr -> Reg.phys Reg.Gpr (r.Reg.id mod 6)
        | Reg.Xmm -> Reg.phys Reg.Xmm (r.Reg.id mod 8))
  in
  List.iter
    (fun b ->
      b.Block.instrs <- List.map (Instr.map_regs subst) b.Block.instrs;
      b.Block.term <- Block.map_term_regs subst b.Block.term)
    f.Cfg.blocks;
  subst

let run ?live (f : Cfg.func) =
  (* Registers created by spill rewriting (ids at or above the floor)
     must never become victims themselves. *)
  let temp_floor = ref max_int in
  let spillable (r : Reg.t) = r.Reg.phys = false && r.Reg.id < !temp_floor in
  let rec attempt round live =
    if round > 32 then raise (Failure "spilling did not converge");
    match scan ~spillable (build_intervals live f) with
    | `Assigned assignment ->
      let subst = apply_assignment f assignment in
      f.Cfg.params <- List.map (fun (n, r) -> (n, subst r)) f.Cfg.params
    | `Spill spills ->
      temp_floor := min !temp_floor (Ifko_util.Ids.peek f.Cfg.reg_ids);
      insert_spill_code f spills;
      (* spill code moved liveness; the graph and the summaries of
         blocks without spill code carry over *)
      attempt (round + 1) (Liveness.compute ~prev:live f)
  in
  attempt 0 (match live with Some l -> l | None -> Liveness.compute f)
