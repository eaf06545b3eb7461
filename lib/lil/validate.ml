exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* [what] names the checked item for the error message.  It is a thunk
   because the message is almost never built: rendering every
   instruction with [Instr.to_string] up front cost more than all the
   checks together.  The text is the same either way. *)
let check_class what (r : Reg.t) cls =
  match (r.Reg.cls, cls) with
  | Reg.Gpr, Reg.Gpr | Reg.Xmm, Reg.Xmm -> ()
  | _ ->
    fail "%s: register %s should be %s" (what ()) (Reg.to_string r)
      (match cls with Reg.Gpr -> "a GPR" | Reg.Xmm -> "an XMM register")

let check_mem what (m : Instr.mem) =
  check_class what m.Instr.base Reg.Gpr;
  Option.iter (fun idx -> check_class what idx Reg.Gpr) m.Instr.index;
  (match m.Instr.scale with
  | 1 | 2 | 4 | 8 -> ()
  | s -> fail "%s: invalid scale %d" (what ()) s)

let check_instr instr =
  let what () = Instr.to_string instr in
  let gpr r = check_class what r Reg.Gpr in
  let xmm r = check_class what r Reg.Xmm in
  let mem m = check_mem what m in
  match instr with
  | Instr.Ild (d, m) ->
    gpr d;
    mem m
  | Ist (m, s) ->
    gpr s;
    mem m
  | Imov (d, s) ->
    gpr d;
    gpr s
  | Ildi (d, _) -> gpr d
  | Iop (_, d, a, b) ->
    gpr d;
    gpr a;
    (match b with Oreg r -> gpr r | Oimm _ -> ())
  | Lea (d, m) ->
    gpr d;
    mem m
  | Fld (_, d, m) | Vld (_, d, m) ->
    xmm d;
    mem m
  | Fst (_, m, s) | Fstnt (_, m, s) | Vst (_, m, s) | Vstnt (_, m, s) ->
    xmm s;
    mem m
  | Fmov (_, d, s)
  | Vmov (_, d, s)
  | Vbcast (_, d, s)
  | Fabs (_, d, s)
  | Fsqrt (_, d, s)
  | Fneg (_, d, s)
  | Vabs (_, d, s)
  | Vsqrt (_, d, s) ->
    xmm d;
    xmm s
  | Fldi (_, d, _) | Vldi (_, d, _) -> xmm d
  | Fop (_, _, d, a, b) | Vop (_, _, d, a, b) | Vcmp (_, _, d, a, b) ->
    xmm d;
    xmm a;
    xmm b
  | Fopm (_, _, d, a, m) | Vopm (_, _, d, a, m) ->
    xmm d;
    xmm a;
    mem m
  | Vmovmsk (_, d, s) ->
    gpr d;
    xmm s
  | Vextract (sz, d, s, lane) ->
    xmm d;
    xmm s;
    if lane < 0 || lane >= Instr.lanes sz then
      fail "%s: lane %d out of range for precision" (what ()) lane
  | Vreduce (_, _, d, s) ->
    xmm d;
    xmm s
  | Touch (_, m) | Prefetch (_, m) -> mem m
  | Nop -> ()

let check_term labels b =
  let what () = Printf.sprintf "block %s terminator" b.Block.label in
  List.iter
    (fun l -> if not (Hashtbl.mem labels l) then fail "%s: unknown target %S" (what ()) l)
    (Block.successors b.Block.term);
  match b.Block.term with
  | Block.Br { lhs; rhs; dec; _ } ->
    check_class what lhs Reg.Gpr;
    (match rhs with Instr.Oreg r -> check_class what r Reg.Gpr | Instr.Oimm _ -> ());
    if dec < 0 then fail "%s: negative fused decrement" (what ())
  | Block.Fbr { lhs; rhs; _ } ->
    check_class what lhs Reg.Xmm;
    check_class what rhs Reg.Xmm
  | Block.Jmp _ | Block.Ret _ -> ()

let check (f : Cfg.func) =
  if f.Cfg.blocks = [] then fail "function %s has no blocks" f.Cfg.fname;
  (* Label set as a hash table: the duplicate scan and the successor
     checks in [check_term] are O(1) per lookup instead of O(blocks). *)
  let labels = Hashtbl.create (List.length f.Cfg.blocks) in
  List.iter
    (fun b ->
      let l = b.Block.label in
      if Hashtbl.mem labels l then fail "duplicate block label %S" l;
      Hashtbl.add labels l ())
    f.Cfg.blocks;
  List.iter
    (fun b ->
      List.iter check_instr b.Block.instrs;
      check_term labels b)
    f.Cfg.blocks;
  let has_ret =
    List.exists
      (fun b -> match b.Block.term with Block.Ret _ -> true | _ -> false)
      f.Cfg.blocks
  in
  if not has_ret then fail "function %s never returns" f.Cfg.fname

let check_physical (f : Cfg.func) =
  check f;
  Reg.Set.iter
    (fun (r : Reg.t) ->
      if not r.Reg.phys then fail "virtual register %s survived allocation" (Reg.to_string r);
      let limit =
        match r.Reg.cls with
        | Reg.Gpr -> 8 (* 6 allocatable + frame/stack pointers *)
        | Reg.Xmm -> Reg.allocatable Reg.Xmm
      in
      if r.Reg.id < 0 || r.Reg.id >= limit then
        fail "register %s outside the architectural file" (Reg.to_string r))
    (Cfg.all_regs f)
