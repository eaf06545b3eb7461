exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let class_name = function Reg.Gpr -> "a GPR" | Reg.Xmm -> "an XMM register"

(* Every rule reports a broken check by calling [bad] with its text,
   and the text is built only then: rendering every instruction with
   [Instr.to_string] up front cost more than all the checks together.
   [check] raises on the first; the linter collects them all. *)
let want ~bad cls (r : Reg.t) =
  match (r.Reg.cls, cls) with
  | Reg.Gpr, Reg.Gpr | Reg.Xmm, Reg.Xmm -> ()
  | _ -> bad (Printf.sprintf "register %s should be %s" (Reg.to_string r) (class_name cls))

let instr_rules ~bad instr =
  let gpr = want ~bad Reg.Gpr and xmm = want ~bad Reg.Xmm in
  let mem (m : Instr.mem) =
    gpr m.Instr.base;
    Option.iter gpr m.Instr.index;
    match m.Instr.scale with
    | 1 | 2 | 4 | 8 -> ()
    | s -> bad (Printf.sprintf "invalid scale %d" s)
  in
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
  | Vsqrt (_, d, s)
  | Vreduce (_, _, d, s) ->
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
      bad (Printf.sprintf "lane %d out of range for precision" lane)
  | Touch (_, m) | Prefetch (_, m) -> mem m
  | Nop -> ()

let check_instr instr =
  instr_rules instr ~bad:(fun msg -> fail "%s: %s" (Instr.to_string instr) msg)

let check_term labels b =
  let bad msg = fail "block %s terminator: %s" b.Block.label msg in
  List.iter
    (fun l -> if not (Hashtbl.mem labels l) then bad (Printf.sprintf "unknown target %S" l))
    (Block.successors b.Block.term);
  match b.Block.term with
  | Block.Br { lhs; rhs; dec; _ } ->
    want ~bad Reg.Gpr lhs;
    (match rhs with Instr.Oreg r -> want ~bad Reg.Gpr r | Instr.Oimm _ -> ());
    if dec < 0 then bad "negative fused decrement"
  | Block.Fbr { lhs; rhs; _ } ->
    want ~bad Reg.Xmm lhs;
    want ~bad Reg.Xmm rhs
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
