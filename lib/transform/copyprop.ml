(** Block-local forward copy propagation.

    Replaces uses of a copied register with its source until either
    side is redefined.  Run inside the repeatable-optimization block
    (paper Section 2.2.4), where it synergizes with dead-code
    elimination: propagation turns the copy dead, elimination removes
    it. *)

let run_block (b : Block.t) =
  let changed = ref false in
  (* active copies, newest first: (dst id, src reg), one per dst id *)
  let copies = ref [] in
  let kill (r : Reg.t) =
    (* the copy into [r] dies, and so does any copy whose source is [r] *)
    if !copies <> [] then
      copies := List.filter (fun (d, s) -> d <> r.Reg.id && not (Reg.equal s r)) !copies
  in
  let source (r : Reg.t) =
    match List.assoc_opt r.Reg.id !copies with
    | Some s when s.Reg.cls = r.Reg.cls -> Some s
    | _ -> None
  in
  let subst r =
    match source r with
    | Some s ->
      changed := true;
      s
    | None -> r
  in
  let renames i =
    !copies <> []
    &&
    let found = ref false in
    Instr.iter_uses (fun r -> if Option.is_some (source r) then found := true) i;
    !found
  in
  let new_instrs =
    List.map
      (fun i ->
        let i' = if renames i then Instr.map_regs_uses_only subst i else i in
        Instr.iter_def kill i';
        (match i' with
        | Instr.Imov (d, s) | Instr.Fmov (_, d, s) | Instr.Vmov (_, d, s) ->
          if not (Reg.equal d s) then copies := (d.Reg.id, s) :: !copies
        | _ -> ());
        i')
      b.Block.instrs
  in
  (* Propagate into the terminator too — but never rename the counter a
     fused branch writes. *)
  let new_term =
    match b.Block.term with
    | _ when !copies = [] -> b.Block.term
    | Block.Br t when t.dec > 0 ->
      Block.Br
        { t with rhs = (match t.rhs with Instr.Oreg r -> Instr.Oreg (subst r) | imm -> imm) }
    | t -> Block.map_term_regs subst t
  in
  (* An unchanged block keeps its lists: callers tell untouched blocks
     by physical identity. *)
  if !changed then begin
    b.Block.instrs <- new_instrs;
    b.Block.term <- new_term
  end;
  !changed

let run (f : Cfg.func) = List.fold_left (fun acc b -> run_block b || acc) false f.Cfg.blocks
