(** LIL instructions.

    The instruction set is a compact model of 32-bit x86 + SSE2/3DNow!:
    scalar and 16-byte-vector floating point in either precision,
    integer/pointer arithmetic, CISC memory-operand arithmetic
    ([Fopm]), software prefetch in its several flavours, and
    non-temporal stores.  It is rich enough to express everything the
    paper's FKO emits, including the hand-tuned ATLAS idioms
    (two-array CISC indexing, vectorized iamax via compare masks,
    block fetch). *)

(** Scalar/vector element precision: [S]ingle (4 bytes) or [D]ouble
    (8 bytes). *)
type fsize = S | D

let fsize_bytes = function S -> 4 | D -> 8

(** Lanes in a 16-byte vector register for each precision. *)
let lanes = function S -> 4 | D -> 2

type fop = Fadd | Fsub | Fmul | Fdiv | Fmax | Fmin

type iop = Iadd | Isub | Imul | Iand | Ior | Ishl | Ishr

type cmp = Lt | Le | Gt | Ge | Eq | Ne

(** Software prefetch flavours, as surveyed by the paper's search:
    [Nta] = SSE [prefetchnta]; [T0]/[T1] = temporal prefetch into the
    cache of level X+1; [W] = 3DNow! [prefetchw] (prefetch for
    write). *)
type pf_kind = Nta | T0 | T1 | W

(** An x86-style memory operand [disp + base + index*scale]. *)
type mem = { base : Reg.t; index : Reg.t option; scale : int; disp : int }

let mk_mem ?index ?(scale = 1) ?(disp = 0) base = { base; index; scale; disp }

type operand = Oreg of Reg.t | Oimm of int

type t =
  | Ild of Reg.t * mem  (** integer (pointer-width) load *)
  | Ist of mem * Reg.t  (** integer store *)
  | Imov of Reg.t * Reg.t
  | Ildi of Reg.t * int  (** load integer immediate *)
  | Iop of iop * Reg.t * Reg.t * operand  (** [dst = src1 op src2] *)
  | Lea of Reg.t * mem  (** address arithmetic without memory access *)
  | Fld of fsize * Reg.t * mem  (** scalar FP load *)
  | Fst of fsize * mem * Reg.t  (** scalar FP store *)
  | Fstnt of fsize * mem * Reg.t  (** scalar non-temporal store *)
  | Fmov of fsize * Reg.t * Reg.t
  | Fldi of fsize * Reg.t * float  (** materialize an FP constant *)
  | Fop of fsize * fop * Reg.t * Reg.t * Reg.t  (** [dst = a op b] *)
  | Fopm of fsize * fop * Reg.t * Reg.t * mem
      (** [dst = a op \[mem\]]: the CISC reg-mem arithmetic form the
          peephole pass produces (x86 is not a true load/store ISA) *)
  | Fabs of fsize * Reg.t * Reg.t
  | Fsqrt of fsize * Reg.t * Reg.t
  | Fneg of fsize * Reg.t * Reg.t
  | Vld of fsize * Reg.t * mem  (** aligned 16-byte vector load *)
  | Vst of fsize * mem * Reg.t
  | Vstnt of fsize * mem * Reg.t  (** [movntps/movntpd] *)
  | Vmov of fsize * Reg.t * Reg.t
  | Vbcast of fsize * Reg.t * Reg.t  (** broadcast scalar to all lanes *)
  | Vldi of fsize * Reg.t * float  (** broadcast an FP constant *)
  | Vop of fsize * fop * Reg.t * Reg.t * Reg.t
  | Vopm of fsize * fop * Reg.t * Reg.t * mem
  | Vabs of fsize * Reg.t * Reg.t
  | Vsqrt of fsize * Reg.t * Reg.t
  | Vcmp of fsize * cmp * Reg.t * Reg.t * Reg.t
      (** lanewise compare producing an all-ones/all-zeros mask *)
  | Vmovmsk of fsize * Reg.t * Reg.t  (** GPR <- sign bits of lanes *)
  | Vextract of fsize * Reg.t * Reg.t * int  (** scalar <- lane [i] *)
  | Vreduce of fsize * fop * Reg.t * Reg.t
      (** horizontal reduction of all lanes into a scalar register *)
  | Touch of fsize * mem
      (** a demand load whose data is discarded — the building block of
          AMD's block-fetch technique (unlike [Prefetch] it is a real
          load: never dropped, full priority at the memory controller) *)
  | Prefetch of pf_kind * mem
  | Nop

let operand_uses = function Oreg r -> [ r ] | Oimm _ -> []

let iter_mem g m =
  g m.base;
  match m.index with Some x -> g x | None -> ()

(** [iter_uses g i] applies [g] to every register [i] reads, as
    {!uses} lists them, without building the list (the hot dataflow
    loops call it once per instruction). *)
let iter_uses g = function
  | Ild (_, m) | Lea (_, m) | Fld (_, _, m) | Vld (_, _, m) | Touch (_, m) | Prefetch (_, m)
    ->
    iter_mem g m
  | Ist (m, r) | Fst (_, m, r) | Fstnt (_, m, r) | Vst (_, m, r) | Vstnt (_, m, r) ->
    g r;
    iter_mem g m
  | Imov (_, s)
  | Fmov (_, _, s)
  | Fabs (_, _, s)
  | Fsqrt (_, _, s)
  | Fneg (_, _, s)
  | Vmov (_, _, s)
  | Vbcast (_, _, s)
  | Vabs (_, _, s)
  | Vsqrt (_, _, s)
  | Vmovmsk (_, _, s)
  | Vextract (_, _, s, _)
  | Vreduce (_, _, _, s) -> g s
  | Iop (_, _, a, b) -> (
    g a;
    match b with Oreg r -> g r | Oimm _ -> ())
  | Fop (_, _, _, a, b) | Vop (_, _, _, a, b) | Vcmp (_, _, _, a, b) ->
    g a;
    g b
  | Fopm (_, _, _, a, m) | Vopm (_, _, _, a, m) ->
    g a;
    iter_mem g m
  | Ildi _ | Fldi _ | Vldi _ | Nop -> ()

(** [def i] is the register [i] writes, if any: {!defs} never lists
    more than one. *)
let def = function
  | Ild (r, _)
  | Imov (r, _)
  | Ildi (r, _)
  | Iop (_, r, _, _)
  | Lea (r, _)
  | Fld (_, r, _)
  | Fmov (_, r, _)
  | Fldi (_, r, _)
  | Fop (_, _, r, _, _)
  | Fopm (_, _, r, _, _)
  | Fabs (_, r, _)
  | Fsqrt (_, r, _)
  | Fneg (_, r, _)
  | Vld (_, r, _)
  | Vmov (_, r, _)
  | Vbcast (_, r, _)
  | Vldi (_, r, _)
  | Vop (_, _, r, _, _)
  | Vopm (_, _, r, _, _)
  | Vabs (_, r, _)
  | Vsqrt (_, r, _)
  | Vcmp (_, _, r, _, _)
  | Vmovmsk (_, r, _)
  | Vextract (_, r, _, _)
  | Vreduce (_, _, r, _) -> Some r
  | Ist _ | Fst _ | Fstnt _ | Vst _ | Vstnt _ | Touch _ | Prefetch _ | Nop -> None

(** [iter_def g i] applies [g] to the register [i] writes, if any. *)
let iter_def g i = match def i with Some r -> g r | None -> ()

(** [defs i] is the list of registers written by [i]. *)
let defs i = match def i with Some r -> [ r ] | None -> []

(** [uses i] is the list of registers read by [i] (with multiplicity
    collapsed). *)
let uses i =
  let acc = ref [] in
  iter_uses (fun r -> acc := r :: !acc) i;
  List.rev !acc

(** [is_store i] holds for instructions writing memory. *)
let is_store = function
  | Ist _ | Fst _ | Fstnt _ | Vst _ | Vstnt _ -> true
  | _ -> false

(** [is_load i] holds for instructions reading memory (prefetches are
    hints, not loads). *)
let is_load = function
  | Ild _ | Fld _ | Vld _ | Fopm _ | Vopm _ | Touch _ -> true
  | _ -> false

let map_mem f m =
  let base = f m.base in
  let index = Option.map f m.index in
  { m with base; index }

(** [map_regs f i] renames every register of [i] through [f]. *)
let map_regs f = function
  | Ild (r, m) -> Ild (f r, map_mem f m)
  | Ist (m, r) -> Ist (map_mem f m, f r)
  | Imov (d, s) -> Imov (f d, f s)
  | Ildi (d, i) -> Ildi (f d, i)
  | Iop (op, d, a, b) ->
    Iop (op, f d, f a, match b with Oreg r -> Oreg (f r) | Oimm i -> Oimm i)
  | Lea (d, m) -> Lea (f d, map_mem f m)
  | Fld (sz, d, m) -> Fld (sz, f d, map_mem f m)
  | Fst (sz, m, s) -> Fst (sz, map_mem f m, f s)
  | Fstnt (sz, m, s) -> Fstnt (sz, map_mem f m, f s)
  | Fmov (sz, d, s) -> Fmov (sz, f d, f s)
  | Fldi (sz, d, c) -> Fldi (sz, f d, c)
  | Fop (sz, op, d, a, b) -> Fop (sz, op, f d, f a, f b)
  | Fopm (sz, op, d, a, m) -> Fopm (sz, op, f d, f a, map_mem f m)
  | Fabs (sz, d, s) -> Fabs (sz, f d, f s)
  | Fsqrt (sz, d, s) -> Fsqrt (sz, f d, f s)
  | Fneg (sz, d, s) -> Fneg (sz, f d, f s)
  | Vld (sz, d, m) -> Vld (sz, f d, map_mem f m)
  | Vst (sz, m, s) -> Vst (sz, map_mem f m, f s)
  | Vstnt (sz, m, s) -> Vstnt (sz, map_mem f m, f s)
  | Vmov (sz, d, s) -> Vmov (sz, f d, f s)
  | Vbcast (sz, d, s) -> Vbcast (sz, f d, f s)
  | Vldi (sz, d, c) -> Vldi (sz, f d, c)
  | Vop (sz, op, d, a, b) -> Vop (sz, op, f d, f a, f b)
  | Vopm (sz, op, d, a, m) -> Vopm (sz, op, f d, f a, map_mem f m)
  | Vabs (sz, d, s) -> Vabs (sz, f d, f s)
  | Vsqrt (sz, d, s) -> Vsqrt (sz, f d, f s)
  | Vcmp (sz, c, d, a, b) -> Vcmp (sz, c, f d, f a, f b)
  | Vmovmsk (sz, d, s) -> Vmovmsk (sz, f d, f s)
  | Vextract (sz, d, s, i) -> Vextract (sz, f d, f s, i)
  | Vreduce (sz, op, d, s) -> Vreduce (sz, op, f d, f s)
  | Touch (sz, m) -> Touch (sz, map_mem f m)
  | Prefetch (k, m) -> Prefetch (k, map_mem f m)
  | Nop -> Nop

(** [map_regs_uses_only f i] renames only the registers [i] reads
    (sources and memory-operand components), leaving destinations
    untouched — what forward copy propagation needs. *)
let map_regs_uses_only f = function
  | Ild (d, m) -> Ild (d, map_mem f m)
  | Ist (m, r) -> Ist (map_mem f m, f r)
  | Imov (d, s) -> Imov (d, f s)
  | Ildi (d, i) -> Ildi (d, i)
  | Iop (op, d, a, b) ->
    Iop (op, d, f a, match b with Oreg r -> Oreg (f r) | Oimm i -> Oimm i)
  | Lea (d, m) -> Lea (d, map_mem f m)
  | Fld (sz, d, m) -> Fld (sz, d, map_mem f m)
  | Fst (sz, m, s) -> Fst (sz, map_mem f m, f s)
  | Fstnt (sz, m, s) -> Fstnt (sz, map_mem f m, f s)
  | Fmov (sz, d, s) -> Fmov (sz, d, f s)
  | Fldi (sz, d, c) -> Fldi (sz, d, c)
  | Fop (sz, op, d, a, b) -> Fop (sz, op, d, f a, f b)
  | Fopm (sz, op, d, a, m) -> Fopm (sz, op, d, f a, map_mem f m)
  | Fabs (sz, d, s) -> Fabs (sz, d, f s)
  | Fsqrt (sz, d, s) -> Fsqrt (sz, d, f s)
  | Fneg (sz, d, s) -> Fneg (sz, d, f s)
  | Vld (sz, d, m) -> Vld (sz, d, map_mem f m)
  | Vst (sz, m, s) -> Vst (sz, map_mem f m, f s)
  | Vstnt (sz, m, s) -> Vstnt (sz, map_mem f m, f s)
  | Vmov (sz, d, s) -> Vmov (sz, d, f s)
  | Vbcast (sz, d, s) -> Vbcast (sz, d, f s)
  | Vldi (sz, d, c) -> Vldi (sz, d, c)
  | Vop (sz, op, d, a, b) -> Vop (sz, op, d, f a, f b)
  | Vopm (sz, op, d, a, m) -> Vopm (sz, op, d, f a, map_mem f m)
  | Vabs (sz, d, s) -> Vabs (sz, d, f s)
  | Vsqrt (sz, d, s) -> Vsqrt (sz, d, f s)
  | Vcmp (sz, c, d, a, b) -> Vcmp (sz, c, d, f a, f b)
  | Vmovmsk (sz, d, s) -> Vmovmsk (sz, d, f s)
  | Vextract (sz, d, s, i) -> Vextract (sz, d, f s, i)
  | Vreduce (sz, op, d, s) -> Vreduce (sz, op, d, f s)
  | Touch (sz, m) -> Touch (sz, map_mem f m)
  | Prefetch (k, m) -> Prefetch (k, map_mem f m)
  | Nop -> Nop

let string_of_fop = function
  | Fadd -> "add"
  | Fsub -> "sub"
  | Fmul -> "mul"
  | Fdiv -> "div"
  | Fmax -> "max"
  | Fmin -> "min"

let string_of_iop = function
  | Iadd -> "add"
  | Isub -> "sub"
  | Imul -> "imul"
  | Iand -> "and"
  | Ior -> "or"
  | Ishl -> "shl"
  | Ishr -> "shr"

let string_of_cmp = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let string_of_pf_kind = function
  | Nta -> "prefetchnta"
  | T0 -> "prefetcht0"
  | T1 -> "prefetcht1"
  | W -> "prefetchw"

let suffix = function S -> "s" | D -> "d"

let string_of_mem m =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '[';
  Buffer.add_string buf (Reg.to_string m.base);
  (match m.index with
  | Some idx ->
    Buffer.add_string buf (" + " ^ Reg.to_string idx);
    if m.scale <> 1 then Buffer.add_string buf (Printf.sprintf "*%d" m.scale)
  | None -> ());
  if m.disp <> 0 then Buffer.add_string buf (Printf.sprintf " %+d" m.disp);
  Buffer.add_char buf ']';
  Buffer.contents buf

let string_of_operand = function
  | Oreg r -> Reg.to_string r
  | Oimm i -> string_of_int i

let to_string instr =
  let r = Reg.to_string in
  let m = string_of_mem in
  match instr with
  | Ild (d, mm) -> Printf.sprintf "mov    %s, %s" (r d) (m mm)
  | Ist (mm, s) -> Printf.sprintf "mov    %s, %s" (m mm) (r s)
  | Imov (d, s) -> Printf.sprintf "mov    %s, %s" (r d) (r s)
  | Ildi (d, i) -> Printf.sprintf "mov    %s, %d" (r d) i
  | Iop (op, d, a, b) ->
    Printf.sprintf "%-6s %s, %s, %s" (string_of_iop op) (r d) (r a) (string_of_operand b)
  | Lea (d, mm) -> Printf.sprintf "lea    %s, %s" (r d) (m mm)
  | Fld (sz, d, mm) -> Printf.sprintf "movs%s  %s, %s" (suffix sz) (r d) (m mm)
  | Fst (sz, mm, s) -> Printf.sprintf "movs%s  %s, %s" (suffix sz) (m mm) (r s)
  | Fstnt (sz, mm, s) -> Printf.sprintf "movnts%s %s, %s" (suffix sz) (m mm) (r s)
  | Fmov (sz, d, s) -> Printf.sprintf "movs%s  %s, %s" (suffix sz) (r d) (r s)
  | Fldi (sz, d, c) -> Printf.sprintf "movs%s  %s, =%g" (suffix sz) (r d) c
  | Fop (sz, op, d, a, b) ->
    Printf.sprintf "%ss%s  %s, %s, %s" (string_of_fop op) (suffix sz) (r d) (r a) (r b)
  | Fopm (sz, op, d, a, mm) ->
    Printf.sprintf "%ss%s  %s, %s, %s" (string_of_fop op) (suffix sz) (r d) (r a) (m mm)
  | Fabs (sz, d, s) -> Printf.sprintf "abss%s  %s, %s" (suffix sz) (r d) (r s)
  | Fsqrt (sz, d, s) -> Printf.sprintf "sqrts%s %s, %s" (suffix sz) (r d) (r s)
  | Fneg (sz, d, s) -> Printf.sprintf "negs%s  %s, %s" (suffix sz) (r d) (r s)
  | Vld (sz, d, mm) -> Printf.sprintf "movap%s %s, %s" (suffix sz) (r d) (m mm)
  | Vst (sz, mm, s) -> Printf.sprintf "movap%s %s, %s" (suffix sz) (m mm) (r s)
  | Vstnt (sz, mm, s) -> Printf.sprintf "movntp%s %s, %s" (suffix sz) (m mm) (r s)
  | Vmov (sz, d, s) -> Printf.sprintf "movap%s %s, %s" (suffix sz) (r d) (r s)
  | Vbcast (sz, d, s) -> Printf.sprintf "bcstp%s %s, %s" (suffix sz) (r d) (r s)
  | Vldi (sz, d, c) -> Printf.sprintf "movap%s %s, =%g(all)" (suffix sz) (r d) c
  | Vop (sz, op, d, a, b) ->
    Printf.sprintf "%sp%s  %s, %s, %s" (string_of_fop op) (suffix sz) (r d) (r a) (r b)
  | Vopm (sz, op, d, a, mm) ->
    Printf.sprintf "%sp%s  %s, %s, %s" (string_of_fop op) (suffix sz) (r d) (r a) (m mm)
  | Vabs (sz, d, s) -> Printf.sprintf "absp%s  %s, %s" (suffix sz) (r d) (r s)
  | Vsqrt (sz, d, s) -> Printf.sprintf "sqrtp%s %s, %s" (suffix sz) (r d) (r s)
  | Vcmp (sz, c, d, a, b) ->
    Printf.sprintf "cmp%sp%s %s, %s, %s" (string_of_cmp c) (suffix sz) (r d) (r a) (r b)
  | Vmovmsk (sz, d, s) -> Printf.sprintf "movmskp%s %s, %s" (suffix sz) (r d) (r s)
  | Vextract (sz, d, s, i) -> Printf.sprintf "extrp%s %s, %s[%d]" (suffix sz) (r d) (r s) i
  | Vreduce (sz, op, d, s) ->
    Printf.sprintf "h%sp%s %s, %s" (string_of_fop op) (suffix sz) (r d) (r s)
  | Touch (sz, mm) -> Printf.sprintf "touch%s %s" (suffix sz) (m mm)
  | Prefetch (k, mm) -> Printf.sprintf "%s %s" (string_of_pf_kind k) (m mm)
  | Nop -> "nop"
