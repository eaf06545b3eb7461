(** Registers of the LIL (low-level intermediate language).

    LIL models a 32-bit-x86-like ISA: a small file of general-purpose
    registers and eight 16-byte SIMD registers ([Xmm]) shared between
    scalar and vector floating point, exactly the situation the paper
    highlights ("relatively important when the ISA has only eight
    registers, but the underlying hardware may have more than a
    hundred").  Before register allocation all registers are virtual
    ([phys = false], unbounded ids); allocation rewrites them to
    physical ids. *)

type cls = Gpr | Xmm

type t = { id : int; cls : cls; phys : bool }

(** Number of allocatable physical registers per class.  Two GPRs are
    reserved (stack pointer and frame/spill pointer), leaving six. *)
let allocatable = function Gpr -> 6 | Xmm -> 8

(** The reserved frame-pointer register used to address spill slots. *)
let frame_ptr = { id = 6; cls = Gpr; phys = true }

(** The reserved stack-pointer register (never allocated). *)
let stack_ptr = { id = 7; cls = Gpr; phys = true }

let virt cls id = { id; cls; phys = false }
let phys cls id = { id; cls; phys = true }
let equal a b = a.id = b.id && a.cls = b.cls && a.phys = b.phys

(* A typed compare: [id], then [cls] ([Gpr] < [Xmm]), then [phys]
   ([false] < [true]).  That is field by field, in declaration order,
   exactly the order polymorphic [compare] gives on this record, so
   every [Set]/[Map] iterates as it did under [Stdlib.compare] -- but
   without a call into the C runtime under every set operation. *)
let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c
  else
    match (a.cls, b.cls) with
    | Gpr, Xmm -> -1
    | Xmm, Gpr -> 1
    | Gpr, Gpr | Xmm, Xmm -> Bool.compare a.phys b.phys

let gpr_names = [| "eax"; "ecx"; "edx"; "ebx"; "esi"; "edi"; "ebp"; "esp" |]

let to_string r =
  match (r.cls, r.phys) with
  | Gpr, true when r.id >= 0 && r.id < 8 -> gpr_names.(r.id)
  | Xmm, true -> Printf.sprintf "xmm%d" r.id
  | Gpr, true -> Printf.sprintf "gpr%d" r.id
  | Gpr, false -> Printf.sprintf "g%d" r.id
  | Xmm, false -> Printf.sprintf "x%d" r.id

(* Distinct for distinct registers of any realistic id, and computed
   inline instead of through the polymorphic [Hashtbl.hash]. *)
let hash r = (r.id lsl 2) lor (match r.cls with Gpr -> 0 | Xmm -> 2) lor Bool.to_int r.phys

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
