(** Basic blocks and terminators. *)

(** Block terminators.

    [Br] is a conditional branch on an integer comparison; when
    [dec > 0] the branch additionally performs [lhs <- lhs - dec]
    before comparing — this models the fused count-down-and-branch
    loop control (x86 [sub]/[jcc] macro-fusion, or [dec/jnz]) that the
    LC transformation produces, which the machine model charges as a
    single micro-operation.  [Fbr] branches on a scalar FP
    comparison. *)
type term =
  | Jmp of string
  | Br of {
      cmp : Instr.cmp;
      lhs : Reg.t;
      rhs : Instr.operand;
      ifso : string;
      ifnot : string;
      dec : int;
    }
  | Fbr of {
      fsize : Instr.fsize;
      cmp : Instr.cmp;
      lhs : Reg.t;
      rhs : Reg.t;
      ifso : string;
      ifnot : string;
    }
  | Ret of Reg.t option

type t = { label : string; mutable instrs : Instr.t list; mutable term : term }

let make ?(instrs = []) ~term label = { label; instrs; term }

(** [successors t] lists the labels a terminator may transfer to. *)
let successors = function
  | Jmp l -> [ l ]
  | Br { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Fbr { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Ret _ -> []

(** Registers read by a terminator. *)
let term_uses = function
  | Jmp _ -> []
  | Br { lhs; rhs; _ } -> lhs :: Instr.operand_uses rhs
  | Fbr { lhs; rhs; _ } -> [ lhs; rhs ]
  | Ret (Some r) -> [ r ]
  | Ret None -> []

(** Registers written by a terminator (the fused-decrement branch
    updates its counter). *)
let term_defs = function
  | Br { lhs; dec; _ } when dec > 0 -> [ lhs ]
  | Jmp _ | Br _ | Fbr _ | Ret _ -> []

(** {!term_uses} without the list. *)
let iter_term_uses g = function
  | Jmp _ | Ret None -> ()
  | Br { lhs; rhs; _ } -> (
    g lhs;
    match rhs with Instr.Oreg r -> g r | Instr.Oimm _ -> ())
  | Fbr { lhs; rhs; _ } ->
    g lhs;
    g rhs
  | Ret (Some r) -> g r

let map_term_regs f = function
  | Jmp l -> Jmp l
  | Br b ->
    Br
      {
        b with
        lhs = f b.lhs;
        rhs = (match b.rhs with Instr.Oreg r -> Instr.Oreg (f r) | imm -> imm);
      }
  | Fbr b -> Fbr { b with lhs = f b.lhs; rhs = f b.rhs }
  | Ret r -> Ret (Option.map f r)

(** Retarget the labels of a terminator through [f]. *)
let map_term_labels f = function
  | Jmp l -> Jmp (f l)
  | Br b -> Br { b with ifso = f b.ifso; ifnot = f b.ifnot }
  | Fbr b -> Fbr { b with ifso = f b.ifso; ifnot = f b.ifnot }
  | Ret r -> Ret r

(** [same_regs a b] holds when [a] and [b] differ at most in their
    target labels. *)
let same_regs a b =
  a == b || map_term_labels (fun _ -> "") a = map_term_labels (fun _ -> "") b

let term_to_string = function
  | Jmp l -> Printf.sprintf "jmp    %s" l
  | Br { cmp; lhs; rhs; ifso; ifnot; dec } ->
    let prefix = if dec > 0 then Printf.sprintf "dec%d&" dec else "" in
    Printf.sprintf "%sj%s    %s, %s -> %s else %s" prefix (Instr.string_of_cmp cmp)
      (Reg.to_string lhs) (Instr.string_of_operand rhs) ifso ifnot
  | Fbr { fsize; cmp; lhs; rhs; ifso; ifnot } ->
    Printf.sprintf "jf%s%s  %s, %s -> %s else %s" (Instr.string_of_cmp cmp)
      (Instr.suffix fsize) (Reg.to_string lhs) (Reg.to_string rhs) ifso ifnot
  | Ret None -> "ret"
  | Ret (Some r) -> Printf.sprintf "ret    %s" (Reg.to_string r)
