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

type site =
  | Func
  | Label of string
  | Target of string
  | Term of string
  | Instr of string * int * Instr.t

let term_rules ~bad b =
  let label = b.Block.label in
  let bad_term msg = bad (Term label) msg in
  match b.Block.term with
  | Block.Br { lhs; rhs; dec; _ } ->
    want ~bad:bad_term Reg.Gpr lhs;
    (match rhs with Instr.Oreg r -> want ~bad:bad_term Reg.Gpr r | Instr.Oimm _ -> ());
    if dec < 0 then bad_term "negative fused decrement"
  | Block.Fbr { lhs; rhs; _ } ->
    want ~bad:bad_term Reg.Xmm lhs;
    want ~bad:bad_term Reg.Xmm rhs
  | Block.Jmp _ | Block.Ret _ -> ()

let rules ~bad (f : Cfg.func) =
  if f.Cfg.blocks = [] then bad Func (Printf.sprintf "function %s has no blocks" f.Cfg.fname)
  else begin
    (* Label set as a hash table: the duplicate scan and the successor
       checks are O(1) per lookup instead of O(blocks). *)
    let labels = Hashtbl.create (List.length f.Cfg.blocks) in
    List.iter
      (fun b ->
        let l = b.Block.label in
        if Hashtbl.mem labels l then bad (Label l) (Printf.sprintf "duplicate block label %S" l)
        else Hashtbl.add labels l ())
      f.Cfg.blocks;
    List.iter
      (fun b ->
        let label = b.Block.label in
        List.iteri
          (fun k i -> instr_rules i ~bad:(bad (Instr (label, k, i))))
          b.Block.instrs;
        List.iter
          (fun l ->
            if not (Hashtbl.mem labels l) then
              bad (Target label) (Printf.sprintf "unknown target %S" l))
          (Block.successors b.Block.term);
        term_rules ~bad b)
      f.Cfg.blocks;
    let has_ret =
      List.exists
        (fun b -> match b.Block.term with Block.Ret _ -> true | _ -> false)
        f.Cfg.blocks
    in
    if not has_ret then bad Func (Printf.sprintf "function %s never returns" f.Cfg.fname)
  end

let check (f : Cfg.func) =
  rules f ~bad:(fun site msg ->
      match site with
      | Func | Label _ -> raise (Invalid msg)
      | Target l | Term l -> fail "block %s terminator: %s" l msg
      | Instr (_, _, i) -> fail "%s: %s" (Instr.to_string i) msg)

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
