(** The LIL lint suite: dataflow-based static checkers producing
    {!Diag} diagnostics instead of first-failure exceptions.

    The search pays for every point it times; a transform bug that
    produces a wrong-but-runnable kernel silently corrupts the whole
    tuning run.  These checkers catch the cheap-to-detect breakages
    statically — before any simulation — and the pipeline can run them
    after every pass ({!Pipeline.apply}'s [~check] mode) to name the
    exact transform that broke an invariant.

    Checkers (codes documented in {!Diag}):
    - CFG well-formedness: labels, branch targets, return, operand
      register classes, memory scales, vector lanes (IFK001/IFK002) —
      the collected-diagnostics form of {!Validate.check}
    - def-before-use of virtual registers, as a forward must-analysis
      on the {!Dataflow} engine (IFK003)
    - dead stores: register definitions never read (IFK004)
    - blocks unreachable from the entry (IFK005)
    - 16-byte vector accesses whose displacement or per-iteration
      stride breaks alignment (IFK006)
    - prefetch distances that are useless (behind the moving pointer)
      or absurd (tens of lines ahead) (IFK007)
    - per-block register-pressure estimates against the architectural
      file, reported back to the search (IFK008)
    - provable out-of-bounds accesses, via {!Depend}'s affine forms
      (IFK010)
    - overlapping write ranges, from {!Depend}'s distance/direction
      vectors (IFK011)
    - arrays silently demoted from prefetch by irregular pointer
      motion (IFK013)
    - stride/interval contradictions between {!Ptrinfo} and {!Absint},
      and stale loop-nest bookkeeping (IFK014) *)

open Ifko_codegen

(* ---------- CFG and instruction well-formedness (IFK001/IFK002) ---------- *)

(* Validate's own structure rules: broken labels, targets and returns
   are IFK001, broken operands IFK002. *)
let check_structure ?pass (f : Cfg.func) =
  let diags = ref [] in
  Validate.rules f ~bad:(fun site msg ->
      let d =
        match site with
        | Validate.Func -> Diag.error ?pass "IFK001" "%s" msg
        | Validate.Label block -> Diag.error ?pass ~block "IFK001" "%s" msg
        | Validate.Target block -> Diag.error ?pass ~block "IFK001" "terminator: %s" msg
        | Validate.Term block -> Diag.error ?pass ~block "IFK002" "terminator: %s" msg
        | Validate.Instr (block, instr, i) ->
          Diag.error ?pass ~block ~instr "IFK002" "%s: %s" (Instr.to_string i) msg
      in
      diags := d :: !diags);
  List.rev !diags

(* ---------- def-before-use of virtual registers (IFK003) ---------- *)

module Must = Dataflow.Make (Dataflow.Reg_must_domain)

let check_def_before_use ?pass (f : Cfg.func) =
  let open Dataflow.Reg_must_domain in
  let block_defs (b : Block.t) =
    List.fold_left
      (fun acc i -> List.fold_left (fun acc r -> Reg.Set.add r acc) acc (Instr.defs i))
      Reg.Set.empty b.Block.instrs
    |> fun s ->
    List.fold_left (fun acc r -> Reg.Set.add r acc) s (Block.term_defs b.Block.term)
  in
  let transfer b = function
    | Top -> Top
    | Known s -> Known (Reg.Set.union s (block_defs b))
  in
  let boundary =
    Known
      (Reg.Set.add Reg.frame_ptr
         (Reg.Set.add Reg.stack_ptr
            (Reg.Set.of_list (List.map snd f.Cfg.params))))
  in
  let r = Must.run ~direction:Dataflow.Forward ~boundary ~transfer f in
  let diags = ref [] and reported = ref Reg.Set.empty in
  let use ~block ~instr what defined reg =
    if
      (not reg.Reg.phys)
      && (not (Reg.Set.mem reg defined))
      && not (Reg.Set.mem reg !reported)
    then begin
      reported := Reg.Set.add reg !reported;
      diags :=
        Diag.error ?pass ~block ?instr "IFK003"
          "%s reads %s, but no definition reaches it" what (Reg.to_string reg)
        :: !diags
    end
  in
  List.iter
    (fun b ->
      let block = b.Block.label in
      match Must.entry_value r block with
      | Top -> () (* unreachable; IFK005 reports it *)
      | Known entry ->
        let defined = ref entry in
        List.iteri
          (fun idx i ->
            List.iter (use ~block ~instr:(Some idx) (Instr.to_string i) !defined) (Instr.uses i);
            List.iter (fun d -> defined := Reg.Set.add d !defined) (Instr.defs i))
          b.Block.instrs;
        List.iter
          (use ~block ~instr:None "terminator" !defined)
          (Block.term_uses b.Block.term))
    f.Cfg.blocks;
  List.rev !diags

(* ---------- dead stores (IFK004) ---------- *)

let check_dead_stores ?pass (f : Cfg.func) =
  let live = Liveness.compute f in
  let diags = ref [] in
  List.iter
    (fun b ->
      List.iteri
        (fun idx (i, live_after) ->
          match Instr.defs i with
          | [ d ] when (not d.Reg.phys) && not (Reg.Set.mem d live_after) ->
            diags :=
              Diag.warning ?pass ~block:b.Block.label ~instr:idx "IFK004"
                "%s defines %s, which is never read" (Instr.to_string i) (Reg.to_string d)
              :: !diags
          | _ -> ())
        (Liveness.live_before_each live b))
    f.Cfg.blocks;
  List.rev !diags

(* ---------- unreachable blocks (IFK005) ---------- *)

let check_reachability ?pass (f : Cfg.func) =
  match f.Cfg.blocks with
  | [] -> []
  | entry :: _ ->
    let reached = Hashtbl.create 16 in
    let by_label = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace by_label b.Block.label b) f.Cfg.blocks;
    let rec walk label =
      if not (Hashtbl.mem reached label) then begin
        Hashtbl.replace reached label ();
        match Hashtbl.find_opt by_label label with
        | Some b -> List.iter walk (Block.successors b.Block.term)
        | None -> ()
      end
    in
    walk entry.Block.label;
    List.filter_map
      (fun b ->
        if Hashtbl.mem reached b.Block.label then None
        else
          Some
            (Diag.warning ?pass ~block:b.Block.label "IFK005"
               "block is unreachable from the entry"))
      f.Cfg.blocks

(* ---------- register pressure (IFK008) ---------- *)

let count_classes set =
  Reg.Set.fold
    (fun (r : Reg.t) (g, x) ->
      match r.Reg.cls with Reg.Gpr -> (g + 1, x) | Reg.Xmm -> (g, x + 1))
    set (0, 0)

(** [pressure f] estimates, per block, the maximum number of
    simultaneously live GPR and XMM registers at any instruction
    boundary — the quantity register allocation has to fit into the
    architectural file, and what the search wants to know before
    committing to an unroll/accumulator point. *)
let pressure (f : Cfg.func) =
  let live = Liveness.compute f in
  List.map
    (fun b ->
      let worst =
        List.fold_left
          (fun (g, x) (_, set) ->
            let g', x' = count_classes set in
            (max g g', max x x'))
          (count_classes (Liveness.live_in live b.Block.label))
          (Liveness.live_before_each live b)
      in
      (b.Block.label, worst))
    f.Cfg.blocks

(** Function-wide maximum of {!pressure}: [(gpr, xmm)]. *)
let max_pressure (f : Cfg.func) =
  List.fold_left
    (fun (g, x) (_, (g', x')) -> (max g g', max x x'))
    (0, 0) (pressure f)

let check_pressure ?pass (f : Cfg.func) =
  List.filter_map
    (fun (label, (g, x)) ->
      let over_gpr = g > Reg.allocatable Reg.Gpr
      and over_xmm = x > Reg.allocatable Reg.Xmm in
      if over_gpr || over_xmm then
        Some
          (Diag.info ?pass ~block:label "IFK008"
             "register pressure %d GPR / %d XMM exceeds the file (%d/%d): spills likely" g x
             (Reg.allocatable Reg.Gpr) (Reg.allocatable Reg.Xmm))
      else None)
    (pressure f)

(* ---------- loop-aware checkers (IFK006/IFK007) ---------- *)

(** Map from a moving array's pointer register to its name and
    per-iteration advance in bytes, via {!Ptrinfo}. *)
let moving_by_reg (compiled : Lower.compiled) =
  List.map
    (fun (m : Ptrinfo.moving) ->
      (m.Ptrinfo.array.Lower.a_reg, (m.Ptrinfo.array.Lower.a_name, m.Ptrinfo.stride)))
    (Ptrinfo.analyze compiled)

let vector_mem = function
  | Instr.Vld (_, _, m) | Instr.Vst (_, m, _) | Instr.Vstnt (_, m, _)
  | Instr.Vopm (_, _, _, _, m) -> Some m
  | _ -> None

(** Simulated arrays are 16-byte aligned and their pointers advance by
    the loop stride, so an aligned 16-byte access stays aligned iff the
    displacement and the stride are both multiples of 16.  A violation
    is an error: the simulator (like real SSE [movaps]) faults on it.

    Only the loopnest blocks the stride was measured over are checked —
    a sibling loop (e.g. the speculative maxloc vector loop, whose
    pointer advances a full block per trip) moves the same register at
    a different rate, so the stride says nothing about it. *)
let check_vector_alignment ?pass moving (blocks : Block.t list) =
  let diags = ref [] in
  (* One diagnostic per array: an unrolled loop repeats the same broken
     access once per copy, and repeating the finding drowns the rest. *)
  let seen = Hashtbl.create 4 in
  List.iter
    (fun b ->
      List.iteri
        (fun idx i ->
          match vector_mem i with
          | Some m when m.Instr.index = None -> (
            match List.assoc_opt m.Instr.base moving with
            | Some (name, _) when Hashtbl.mem seen name -> ()
            | Some (name, stride) ->
              let emit fmt =
                Printf.ksprintf
                  (fun msg ->
                    Hashtbl.replace seen name ();
                    diags :=
                      Diag.error ?pass ~block:b.Block.label ~instr:idx "IFK006" "%s: %s"
                        (Instr.to_string i) msg
                      :: !diags)
                  fmt
              in
              if m.Instr.disp mod 16 <> 0 then
                emit "16-byte access to %s at displacement %d is unaligned" name
                  m.Instr.disp
              else if stride mod 16 <> 0 then
                emit
                  "%s advances %d B/iteration, so this 16-byte access drifts off \
                   alignment"
                  name stride
            | None -> ())
          | Some _ | None -> ())
        b.Block.instrs)
    blocks;
  List.rev !diags

(** A prefetch is useful when it lands ahead of the moving pointer by
    at least one iteration's advance and no more than a few dozen cache
    lines (past that the line is evicted again before use).  Scoped to
    the loopnest blocks for the same reason as IFK006. *)
let check_prefetch_distance ?pass ?line_bytes moving (blocks : Block.t list) =
  let diags = ref [] in
  (* Like IFK006: one diagnostic per array, not one per unrolled copy. *)
  let seen = Hashtbl.create 4 in
  List.iter
    (fun b ->
      List.iteri
        (fun idx i ->
          match i with
          | Instr.Prefetch (_, m) when m.Instr.index = None -> (
            match List.assoc_opt m.Instr.base moving with
            | Some (name, _) when Hashtbl.mem seen name -> ()
            | Some (name, stride) ->
              let dist = m.Instr.disp in
              let warn fmt =
                Printf.ksprintf
                  (fun msg ->
                    Hashtbl.replace seen name ();
                    diags :=
                      Diag.warning ?pass ~block:b.Block.label ~instr:idx "IFK007" "%s: %s"
                        (Instr.to_string i) msg
                      :: !diags)
                  fmt
              in
              if stride = 0 then warn "prefetches %s, which never advances" name
              else if dist <= 0 then
                warn "prefetch distance %d B is behind the moving pointer %s" dist name
              else if dist < abs stride then
                warn
                  "prefetch distance %d B is inside the current iteration of %s (advance \
                   %d B)"
                  dist name (abs stride)
              else
                Option.iter
                  (fun line ->
                    if dist > 32 * line then
                      warn
                        "prefetch distance %d B for %s is more than 32 lines (%d B) ahead"
                        dist name (32 * line))
                  line_bytes
            | None -> ())
          | _ -> ())
        b.Block.instrs)
    blocks;
  List.rev !diags

(* ---------- dependence-based checkers (IFK010-IFK014) ---------- *)

(** Provable out-of-bounds (IFK010, error).  An affine access touches
    bytes [stride*i + disp .. +width) from its array base; HIL arrays
    start at their pointer parameter, so any iteration reaching a
    negative offset reads or writes memory the kernel does not own.
    Guarded accesses are excluded — a conditional body may never
    execute the reference on the offending iteration — as are
    non-faulting prefetches.  Fires only when some executed iteration
    provably goes below the base: the first one (any [stride >= 0] with
    [disp < 0]) or, for descending accesses with a known trip count,
    the last. *)
let check_bounds ?pass (dep : Depend.t) =
  if dep.Depend.trips = Some 0 then []
  else
    List.filter_map
      (fun (a : Depend.access) ->
        match a.Depend.affine with
        | Some { Depend.stride; disp }
          when a.Depend.faulting && not a.Depend.guarded ->
          let worst =
            if stride >= 0 then Some (disp, 0)
            else
              match dep.Depend.trips with
              | Some u when u > 0 -> Some ((stride * (u - 1)) + disp, u - 1)
              | _ -> None
          in
          (match worst with
          | Some (off, iter) when off < 0 ->
            Some
              (Diag.error ?pass ~block:a.Depend.block ~instr:a.Depend.instr "IFK010"
                 "%s reaches byte %d, %d B before the array base, on iteration %d"
                 (Depend.access_name a) off (-off) iter)
          | _ -> None)
        | _ -> None)
      dep.Depend.accesses

(** Overlapping write ranges (IFK011, warning).  Two stores — or one
    store re-visiting bytes across iterations — proven to hit the same
    memory.  Legal, but it serializes the stores and usually signals a
    kernel bug, so the search wants to know. *)
let check_write_overlap ?pass (dep : Depend.t) =
  List.filter_map
    (fun (p : Depend.pair) ->
      if not (p.Depend.src.Depend.store && p.Depend.dst.Depend.store) then None
      else
        match p.Depend.relation with
        | Depend.Dependent _ ->
          Some
            (Diag.warning ?pass ~block:p.Depend.src.Depend.block
               ~instr:p.Depend.src.Depend.instr "IFK011" "%s and %s overlap: %s"
               (Depend.access_name p.Depend.src)
               (Depend.access_name p.Depend.dst)
               (Depend.relation_to_string p.Depend.relation))
        | Depend.Independent | Depend.Unknown _ -> None)
    dep.Depend.pairs

(** Arrays silently demoted from prefetch (IFK013, info).  {!Ptrinfo}
    drops arrays whose pointer moves irregularly; the prefetch
    transform then skips them without a word.  Surface the demotion so
    a kernel author who expected the array to be prefetched learns why
    it is not. *)
let check_prefetch_demotion ?pass (cls : Ptrinfo.classified) =
  List.filter_map
    (fun (a : Lower.array_param) ->
      if a.Lower.a_noprefetch then None
      else
        Some
          (Diag.info ?pass "IFK013"
             "array %s: pointer is redefined non-incrementally in the loop; demoted from \
              prefetch"
             a.Lower.a_name))
    cls.Ptrinfo.irregular

(** Stride/interval contradictions and stale bookkeeping (IFK014).
    A disagreement between {!Ptrinfo}'s syntactic strides and
    {!Absint}'s congruences means one analysis is being fooled
    (warning); stale loop-nest labels mean every loop-aware analysis
    silently sees "no loop" (info — expected after the pipeline's
    final cleanup, alarming on a fresh kernel). *)
let check_stride_consistency ?pass (compiled : Lower.compiled)
    (cls : Ptrinfo.classified) =
  let stale =
    if cls.Ptrinfo.stale then
      [ Diag.info ?pass "IFK014"
          "loop-nest labels are stale: loop-aware checkers and transforms are disabled" ]
    else []
  in
  stale
  @ List.map
      (fun ((m : Ptrinfo.moving), reason) ->
        Diag.warning ?pass "IFK014" "array %s: %s" m.Ptrinfo.array.Lower.a_name reason)
      (Depend.stride_contradictions compiled)

(* ---------- entry points ---------- *)

(** [check_func f] runs every checker that needs only the CFG.  If the
    structure itself is broken (IFK001 errors) the dataflow checkers
    are skipped — their results would be meaningless. *)
let check_func ?pass (f : Cfg.func) =
  let structure = check_structure ?pass f in
  if not (Diag.is_clean structure) then structure
  else
    structure
    @ check_def_before_use ?pass f
    @ check_dead_stores ?pass f
    @ check_reachability ?pass f
    @ check_pressure ?pass f

(** [check ?line_bytes compiled] is {!check_func} plus the loop-aware
    checkers that need to know which pointers move and by how much. *)
let check ?pass ?line_bytes (compiled : Lower.compiled) =
  let f = compiled.Lower.func in
  let base = check_func ?pass f in
  if not (Diag.is_clean base) then base
  else
    let moving = moving_by_reg compiled in
    let loop = Ptrinfo.loop_blocks compiled in
    let cls = Ptrinfo.classify compiled in
    let dep = Depend.analyze compiled in
    base
    @ check_vector_alignment ?pass moving loop
    @ check_prefetch_distance ?pass ?line_bytes moving loop
    @ check_bounds ?pass dep
    @ check_write_overlap ?pass dep
    @ check_prefetch_demotion ?pass cls
    @ check_stride_consistency ?pass compiled cls
