open Ifko_machine

type ret_val = Rint of int | Rfp of float

type result = {
  ret : ret_val option;
  cycles : float;
  instr_count : int;
  uop_count : int;
}

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* ---------- architectural state ---------- *)

(* The register files are sized by [exec] to the function's full
   register extent (see [compile]), so every slot a decoded closure
   uses is in range. *)
type state = {
  gpr : int array;
  xmm : Bytes.t;  (* 16 bytes per register *)
  memm : Bytes.t;
}

(* Physical registers occupy slots 0..7; virtual register [i] lives in
   slot [8+i], so allocated and unallocated code both run. *)
let slot (r : Reg.t) = if r.Reg.phys then r.Reg.id else r.Reg.id + 8

let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* ---------- memory access ---------- *)

let check_bounds st addr bytes =
  if addr < 0 || addr + bytes > Bytes.length st.memm then
    trap "memory access out of range: addr=%d size=%d" addr bytes

(* All 16-byte vector accesses trap in the same order: range first,
   then alignment — so an address that is both out of range and
   unaligned reports the same (range) message on every vector op. *)
let check_vec_access st ~what addr =
  check_bounds st addr 16;
  if addr mod 16 <> 0 then trap "unaligned vector %s at %d" what addr

(* ---------- timing model ---------- *)

(* functional units *)
let u_alu = 0
and u_load = 1
and u_store = 2
and u_fpadd = 3
and u_fpmul = 4
and u_fpdiv = 5
and u_branch = 6

let n_units = 7

(* The two mutable clocks (issue frontier and furthest completion)
   live in a float array rather than mutable float fields: float
   fields of a mixed record box on every write, and these are written
   on every simulated instruction. *)
let k_front = 0
and k_last = 1

type timing = {
  cfg : Config.t;
  ms : Memsys.t;
  msio : float array;  (** [Memsys.io ms]: unboxed load/store time channel *)
  clk : float array;  (** [k_front] = issue frontier; [k_last] = furthest completion *)
  gready : float array;  (** per-slot ready times, sized like the register files *)
  xready : float array;
  unit_free : float array;
  service : float array;
  issue_cost : float array;  (** [uops /. issue_width], precomputed per uop count *)
  icost1 : float;  (** [issue_cost.(1)]: the single-uop issue cost *)
  fadd_l : float;
  fmul_l : float;
  fdiv_l : float;
  l1_l : float;
  misp : float;
  vuops : int;
  rob : float array;  (** completion times, circular; bounds issue depth *)
  mutable rob_idx : int;
  mutable uops : int;
  tstate : state;
      (** The architectural state the engine is driving.  The timed
          per-instruction closures take only [timing] — a one-argument
          application of an unknown closure is a direct call through
          the code pointer, where a two-argument one goes through
          [caml_apply2]'s arity check on every instruction — and reach
          the state through this field. *)
}

let make_timing cfg ms st =
  let service = Array.make n_units 1.0 in
  service.(u_alu) <- 0.5;
  service.(u_fpdiv) <- float_of_int cfg.Config.fdiv_lat;
  {
    cfg;
    ms;
    msio = Memsys.io ms;
    clk = Array.make 2 0.0;
    gready = Array.make (Array.length st.gpr) 0.0;
    xready = Array.make (Bytes.length st.xmm / 16) 0.0;
    unit_free = Array.make n_units 0.0;
    service;
    issue_cost =
      Array.init 33 (fun u -> float_of_int u /. float_of_int cfg.Config.issue_width);
    icost1 = 1.0 /. float_of_int cfg.Config.issue_width;
    fadd_l = float_of_int cfg.Config.fadd_lat;
    fmul_l = float_of_int cfg.Config.fmul_lat;
    fdiv_l = float_of_int cfg.Config.fdiv_lat;
    l1_l = float_of_int cfg.Config.l1.Config.latency;
    misp = float_of_int cfg.Config.branch_misp_penalty;
    vuops = cfg.Config.vec_uops;
    rob = Array.make (max 8 cfg.Config.rob_size) 0.0;
    rob_idx = 0;
    uops = 0;
    tstate = st;
  }

(* Timing-clock maximum.  Cycle counts are finite and non-negative
   (never NaN, never -0.0), so this agrees with [Float.max] on every
   value the model produces while staying inlinable — [Float.max]
   crosses a module boundary and boxes both floats per call. *)
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* Record the completion time of the instruction just dispatched (one
   ROB slot per instruction — a close-enough approximation). *)
let[@inline] retire tm completion =
  (* [rob_idx] is always < length by construction (wrap below) *)
  Array.unsafe_set tm.rob tm.rob_idx completion;
  let i = tm.rob_idx + 1 in
  tm.rob_idx <- (if i = Array.length tm.rob then 0 else i);
  if completion > Array.unsafe_get tm.clk k_last then
    Array.unsafe_set tm.clk k_last completion

(* Memory traffic through the memory system's unboxed calling
   convention: dispatch time in, completion time out, via a float
   array rather than boxed float argument/return. *)
let[@inline] mload tm addr (start : float) =
  Array.unsafe_set tm.msio Memsys.io_now start;
  Memsys.load_io tm.ms addr;
  Array.unsafe_get tm.msio Memsys.io_ret

let[@inline] mstore tm addr (start : float) =
  Array.unsafe_set tm.msio Memsys.io_now start;
  Memsys.store_io tm.ms addr

let[@inline] mnt_store tm addr ~bytes (start : float) =
  Array.unsafe_set tm.msio Memsys.io_now start;
  Memsys.nt_store_io tm.ms ~bytes addr

let[@inline] mprefetch tm addr ~kind (start : float) =
  Array.unsafe_set tm.msio Memsys.io_now start;
  Memsys.prefetch_io tm.ms ~kind addr

(* Dispatch [uops] micro-ops on [unit]; returns the execution start.
   Issue cannot proceed past a full reorder buffer: the slot about to
   be reused holds the completion time of the µop issued rob_size ago. *)
let[@inline] acquire tm unit ~srcs ~uops =
  tm.uops <- tm.uops + uops;
  let front = fmax tm.clk.(k_front) tm.rob.(tm.rob_idx) in
  let start = fmax (fmax front srcs) tm.unit_free.(unit) in
  tm.unit_free.(unit) <- start +. (tm.service.(unit) *. float_of_int uops);
  tm.clk.(k_front) <-
    front
    +.
    (if uops < 33 then tm.issue_cost.(uops)
     else float_of_int uops /. float_of_int tm.cfg.Config.issue_width);
  start

(* [acquire] specialized at decode time for the overwhelmingly common
   single-uop dispatch: [service *. 1.0] is the identity and the issue
   cost is the precomputed [icost1], so the general uop scaling (a
   float conversion, a multiply, an array lookup and a range test)
   drops out.  Bit-identical to [acquire ~uops:1] on every input. *)
let[@inline] acquire1 tm unit ~srcs =
  tm.uops <- tm.uops + 1;
  let front = fmax (Array.unsafe_get tm.clk k_front) (Array.unsafe_get tm.rob tm.rob_idx) in
  let start = fmax (fmax front srcs) (Array.unsafe_get tm.unit_free unit) in
  Array.unsafe_set tm.unit_free unit (start +. Array.unsafe_get tm.service unit);
  Array.unsafe_set tm.clk k_front (front +. tm.icost1);
  start

let fp_unit op = match op with Instr.Fmul -> u_fpmul | Instr.Fdiv -> u_fpdiv | _ -> u_fpadd

(* ---------- the threaded-code engine ----------

   [compile] decodes a function once into per-block closure arrays:
   labels become integer block indices, register slots and memory
   operand shapes are resolved at decode time, and every instruction
   is specialized into one semantic closure, which untimed runs call
   directly, and a timed closure that runs it and then charges the
   timing model — so untimed runs pay nothing for timing, and each
   instruction's effect is written once.  [exec] then replays the
   closures.  What a run observably does — values, trap messages
   and the points they are raised at, [cycles]/[instr_count]/
   [uop_count], the final memory image — is pinned by the execution
   goldens in test/test_exec_compiled.ml, so a rewrite for speed must
   leave every one of them unchanged. *)

type cblock = {
  c_pure : (state -> unit) array;
      (** per-instruction closures: the budget-constrained slow path *)
  c_timed : (timing -> unit) array;
  c_pure_all : state -> unit;  (** the whole straight-line body, fused *)
  c_timed_all : timing -> unit;
  c_len : int;
  c_pterm : state -> int;
  c_tterm : state -> timing -> int array -> int;
}

type compiled = {
  c_func : Cfg.func;
  c_digest : string option Atomic.t;
      (* of the rendered CFG; computed on first [digest], see there *)
  c_blocks : cblock array;
  c_entry : int;
  c_rets : Reg.t option array;  (* terminator code [-1 - k] returns [c_rets.(k)] *)
  c_ngpr : int;
  c_nxmm : int;
}

let func c = c.c_func

(* Rendering and hashing the whole CFG costs as much as decoding it,
   and only the sampled timer reads the digest, so it is computed on
   first use.  Compiled code crosses domains through the codecache, so
   two domains may ask at once, and a [Lazy] may raise
   [Lazy.Undefined] there.  The cell is a benign race instead: both
   compute the same string from the same (never mutated) function, and
   whichever store lands is kept. *)
let digest c =
  match Atomic.get c.c_digest with
  | Some d -> d
  | None ->
    let d = Digest.to_hex (Digest.string (Cfg.to_string c.c_func)) in
    Atomic.set c.c_digest (Some d);
    d

let fusion c =
  let instrs = Array.fold_left (fun acc b -> acc + b.c_len) 0 c.c_blocks in
  (Array.length c.c_blocks, instrs)

(* Decode-time operand specialization.  Register files are pre-sized
   by [compile], so closures index the flat arrays directly with
   decode-resolved slots.

   Two measured rules shape the closures below.  A closure call that
   returns a [float] boxes it, so lane reads, lane writes, arithmetic
   and readiness lookups are inlined primitives, expanded inside a
   closure body where the native compiler keeps the intermediates
   unboxed.  A call that returns [unit], [bool] or [int] boxes
   nothing, but it still costs a call, and a timed closure that makes
   one is no longer leaf code: the timed engine ran measurably slower
   that way (DESIGN.md §11).  So whole effects (an instruction's
   semantics, a branch's compare) are written once as local [@inline]
   closures: untimed runs call them, and the compiler expands them
   inside the timed closures. *)

(* Unchecked byte accessors.  Every decode-closure access is either
   into the xmm file (pre-sized by [compile] to the function's full
   register extent before any closure runs) or into simulated memory
   at an offset an explicit [check_bounds]/[check_vec_access] has just
   proved in range — so the stdlib accessors' own bounds checks are
   statically redundant and dropped.  The byte-swap on big-endian
   hosts mirrors [Bytes.get_int64_le]'s definition exactly. *)
external b64_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external b32_get : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external b32_set : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] uget64 b o = if Sys.big_endian then swap64 (b64_get b o) else b64_get b o

let[@inline] uset64 b o v =
  if Sys.big_endian then b64_set b o (swap64 v) else b64_set b o v

let[@inline] uget32 b o = if Sys.big_endian then swap32 (b32_get b o) else b32_get b o

let[@inline] uset32 b o v =
  if Sys.big_endian then b32_set b o (swap32 v) else b32_set b o v

(* 16-byte register moves as two 64-bit primitive accesses:
   [Bytes.blit]/[Bytes.fill] are C calls, far slower at this width.
   Register slots are 16-aligned, so source and destination are either
   identical or disjoint; both words are read before either write, so
   the copy matches blit semantics in every case. *)
let[@inline] copy16 dst dof src sof =
  let w0 = uget64 src sof in
  let w1 = uget64 src (sof + 8) in
  uset64 dst dof w0;
  uset64 dst (dof + 8) w1

let[@inline] zero16 b o =
  uset64 b o 0L;
  uset64 b (o + 8) 0L

let[@inline] getd b o = Int64.float_of_bits (uget64 b o)
let[@inline] setd b o v = uset64 b o (Int64.bits_of_float v)
let[@inline] gets b o = Int32.float_of_bits (uget32 b o)

(* Writing the 32-bit image of [v] rounds it to single precision:
   [bits_of_float (round32 v)] = [bits_of_float v]. *)
let[@inline] sets b o v = uset32 b o (Int32.bits_of_float v)

let xoff (r : Reg.t) = slot r * 16

(* Effective address with decode-resolved slots.  When there is no
   index register the decoder reuses the base slot with scale 0, so a
   single closure shape serves both operand forms. *)
let maddr (m : Instr.mem) =
  let b = slot m.Instr.base in
  match m.Instr.index with
  | None -> (b, b, 0, m.Instr.disp)
  | Some r -> (b, slot r, m.Instr.scale, m.Instr.disp)

let[@inline] ea g b i s d = Array.unsafe_get g b + (Array.unsafe_get g i * s) + d

(* Readiness (class, slot) pairs of a mem operand; with no index the
   base is duplicated — [fmax x x = x], so the combined readiness is
   the latest of the operand's [Instr.mem_uses]. *)
let mready (m : Instr.mem) =
  let bc = m.Instr.base.Reg.cls and b = slot m.Instr.base in
  match m.Instr.index with
  | None -> (bc, b, bc, b)
  | Some r -> (bc, b, r.Reg.cls, slot r)

(* Monomorphic arithmetic/comparison on decode-captured operators.
   The annotations matter: they turn the generic structural compare
   into immediate int/float compares (the two agree on every int and
   on NaN for all six operators), and the match on an immediate
   constructor costs a branch, not a call. *)

let[@inline] fop_x op (a : float) (b : float) =
  match op with
  | Instr.Fadd -> a +. b
  | Instr.Fsub -> a -. b
  | Instr.Fmul -> a *. b
  | Instr.Fdiv -> a /. b
  | Instr.Fmax -> Float.max a b
  | Instr.Fmin -> Float.min a b

let[@inline] iop_x op (a : int) (b : int) =
  match op with
  | Instr.Iadd -> a + b
  | Instr.Isub -> a - b
  | Instr.Imul -> a * b
  | Instr.Iand -> a land b
  | Instr.Ior -> a lor b
  | Instr.Ishl -> a lsl b
  | Instr.Ishr -> a asr b

let[@inline] cmpi_x op (a : int) (b : int) =
  match op with
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b

let[@inline] cmpf_x op (a : float) (b : float) =
  match op with
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b

let[@inline] flat tm op =
  match op with Instr.Fmul -> tm.fmul_l | Instr.Fdiv -> tm.fdiv_l | _ -> tm.fadd_l

(* Timing readiness with decode-resolved (class, slot): the ready
   arrays are pre-grown to the function's register extent by [exec],
   so indexing is unchecked; [wr] inlines [set_ready]. *)

let[@inline] rd tm (cls : Reg.cls) i =
  match cls with
  | Reg.Gpr -> Array.unsafe_get tm.gready i
  | Reg.Xmm -> Array.unsafe_get tm.xready i

let[@inline] wr tm (cls : Reg.cls) i v =
  (match cls with
  | Reg.Gpr -> Array.unsafe_set tm.gready i v
  | Reg.Xmm -> Array.unsafe_set tm.xready i v);
  retire tm v

(* Unchecked register-file access for decode closures: [compile]
   pre-sizes the gpr file to the function's full register extent, so
   every decode-resolved slot is in range by construction. *)
let[@inline] gu st i = Array.unsafe_get st.gpr i
let[@inline] gput st i v = Array.unsafe_set st.gpr i v

(* Timing halves shared across opcodes.  They are closed [@inline]
   functions, so each is expanded inside every timed closure that uses
   it, like the semantic closures below. *)

(* A single-uop op on [unit_] whose result, in slot [di] of class
   [dc], is ready [lat] cycles after it starts. *)
let[@inline] charge_op tm unit_ ~srcs ~lat dc di =
  let start = acquire1 tm unit_ ~srcs in
  wr tm dc di (start +. lat)

(* The same for a vector op: [tm.vuops] uops. *)
let[@inline] charge_vop tm unit_ ~srcs ~lat dc di =
  let start = acquire tm unit_ ~srcs ~uops:tm.vuops in
  wr tm dc di (start +. lat)

let[@inline] charge_load tm ~srcs addr dc di =
  let start = acquire1 tm u_load ~srcs in
  wr tm dc di (mload tm addr start)

(* [nt] is the byte width of a non-temporal store, 0 for a temporal one. *)
let[@inline] charge_store tm ~srcs ~nt addr =
  let start = acquire1 tm u_store ~srcs in
  if nt = 0 then mstore tm addr start else mnt_store tm addr ~bytes:nt start;
  retire tm (start +. 1.0)

let[@inline] by_size (sz : Instr.fsize) d s = match sz with Instr.D -> d | Instr.S -> s

(* Decode one instruction into its (pure, timed) closure pair.  The
   architectural effect is written once, as a semantic closure
   [sem : state -> unit] (one per float size, [sem_d] and [sem_s],
   where the size matters).  The pure array holds it itself.  The
   timed closure runs it on [tm.tstate] and then charges the timing
   model; [sem] is declared [@inline], so the compiler expands it
   there and the timed closure makes no extra call.  A memory op's
   timed closure computes the address before [sem] runs: the
   destination may be the address base (Ild d,[d]).

   The float size is matched at decode time for the pure closure and
   by a branch on the captured size in the timed one.  Each [sem] is a
   straight line of inlined primitives over the flat register files:
   no lane-accessor closures, no boxed floats in flight.  Vector lanes
   are unrolled (D = 2 lanes, S = 4) in lane order, which fixes the
   aliasing behaviour when the destination overlaps a source; the
   execution goldens pin both orders. *)
let decode_instr (ins : Instr.t) : (state -> unit) * (timing -> unit) =
  match ins with
  | Instr.Ild (d, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let di = slot d and dc = d.Reg.cls in
    let[@inline] sem st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 8;
      gput st di @@ Int64.to_int (uget64 st.memm addr)
    in
    ( sem,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        sem st;
        charge_load tm ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) addr dc di )
  | Instr.Ist (m, s) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let si = slot s and sc = s.Reg.cls in
    let[@inline] sem st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 8;
      uset64 st.memm addr (Int64.of_int (gu st si))
    in
    ( sem,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        sem st;
        charge_store tm addr ~nt:0
          ~srcs:(fmax (rd tm sc si) (fmax (rd tm c1 s1) (rd tm c2 s2))) )
  | Instr.Imov (d, s) ->
    let di = slot d and dc = d.Reg.cls and si = slot s and sc = s.Reg.cls in
    let[@inline] sem st = gput st di @@ gu st si in
    ( sem,
      fun tm ->
        sem tm.tstate;
        charge_op tm u_alu ~srcs:(rd tm sc si) ~lat:1.0 dc di )
  | Instr.Ildi (d, v) ->
    let di = slot d and dc = d.Reg.cls in
    let[@inline] sem st = gput st di v in
    ( sem,
      fun tm ->
        sem tm.tstate;
        charge_op tm u_alu ~srcs:0.0 ~lat:1.0 dc di )
  | Instr.Iop (op, d, a, b) ->
    let di = slot d and dc = d.Reg.cls and ai = slot a and ac = a.Reg.cls in
    let lat = match op with Instr.Imul -> 3.0 | _ -> 1.0 in
    (match b with
    | Instr.Oreg r ->
      let bi = slot r and bc = r.Reg.cls in
      let[@inline] sem st = gput st di @@ iop_x op (gu st ai) (gu st bi) in
      ( sem,
        fun tm ->
          sem tm.tstate;
          charge_op tm u_alu ~srcs:(fmax (rd tm ac ai) (rd tm bc bi)) ~lat dc di )
    | Instr.Oimm k ->
      let[@inline] sem st = gput st di @@ iop_x op (gu st ai) k in
      ( sem,
        fun tm ->
          sem tm.tstate;
          charge_op tm u_alu ~srcs:(rd tm ac ai) ~lat dc di ))
  | Instr.Lea (d, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let di = slot d and dc = d.Reg.cls in
    let[@inline] sem st = gput st di @@ ea st.gpr mb mx msc mdp in
    ( sem,
      fun tm ->
        sem tm.tstate;
        charge_op tm u_alu ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) ~lat:1.0 dc di )
  | Instr.Fld (sz, d, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let xo = xoff d and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st =
      let addr = ea st.gpr mb mx msc mdp in
      zero16 st.xmm xo;
      check_bounds st addr 8;
      setd st.xmm xo (getd st.memm addr)
    in
    let[@inline] sem_s st =
      let addr = ea st.gpr mb mx msc mdp in
      zero16 st.xmm xo;
      check_bounds st addr 4;
      sets st.xmm xo (gets st.memm addr)
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        (match sz with Instr.D -> sem_d st | Instr.S -> sem_s st);
        charge_load tm ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) addr dc di )
  | Instr.Fst (sz, m, s) | Instr.Fstnt (sz, m, s) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let so = xoff s and si = slot s and sc = s.Reg.cls in
    let nt = match ins with Instr.Fstnt _ -> Instr.fsize_bytes sz | _ -> 0 in
    let[@inline] sem_d st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 8;
      setd st.memm addr (getd st.xmm so)
    in
    let[@inline] sem_s st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 4;
      sets st.memm addr (gets st.xmm so)
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        (match sz with Instr.D -> sem_d st | Instr.S -> sem_s st);
        charge_store tm addr ~nt
          ~srcs:(fmax (rd tm sc si) (fmax (rd tm c1 s1) (rd tm c2 s2))) )
  | Instr.Fmov (_, d, s) | Instr.Vmov (_, d, s) ->
    let doff = xoff d and soff = xoff s in
    let di = slot d and dc = d.Reg.cls and si = slot s and sc = s.Reg.cls in
    let[@inline] sem st = copy16 st.xmm doff st.xmm soff in
    ( sem,
      fun tm ->
        sem tm.tstate;
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:1.0 dc di )
  | Instr.Fldi (sz, d, c) ->
    let xo = xoff d and di = slot d and dc = d.Reg.cls in
    (* the lane image of the constant is computed at decode time *)
    let bits_d = Int64.bits_of_float c and bits_s = Int32.bits_of_float c in
    let[@inline] sem_d st =
      zero16 st.xmm xo;
      uset64 st.xmm xo bits_d
    in
    let[@inline] sem_s st =
      zero16 st.xmm xo;
      uset32 st.xmm xo bits_s
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_load ~srcs:0.0 ~lat:tm.l1_l dc di )
  | Instr.Fop (sz, op, d, a, b) ->
    let ao = xoff a and bo = xoff b and dxo = xoff d in
    let ai = slot a and ac = a.Reg.cls in
    let bi = slot b and bc = b.Reg.cls in
    let di = slot d and dc = d.Reg.cls in
    let unit_ = fp_unit op in
    let[@inline] sem_d st = setd st.xmm dxo (fop_x op (getd st.xmm ao) (getd st.xmm bo)) in
    let[@inline] sem_s st = sets st.xmm dxo (fop_x op (gets st.xmm ao) (gets st.xmm bo)) in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm unit_ dc di ~lat:(flat tm op)
          ~srcs:(fmax (rd tm ac ai) (rd tm bc bi)) )
  | Instr.Fopm (sz, op, d, a, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let ao = xoff a and dxo = xoff d in
    let ai = slot a and ac = a.Reg.cls in
    let di = slot d and dc = d.Reg.cls in
    let unit_ = fp_unit op in
    let[@inline] sem_d st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 8;
      setd st.xmm dxo (fop_x op (getd st.xmm ao) (getd st.memm addr))
    in
    let[@inline] sem_s st =
      let addr = ea st.gpr mb mx msc mdp in
      check_bounds st addr 4;
      sets st.xmm dxo (fop_x op (gets st.xmm ao) (gets st.memm addr))
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        (match sz with Instr.D -> sem_d st | Instr.S -> sem_s st);
        let lstart = acquire1 tm u_load ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) in
        let data = mload tm addr lstart in
        charge_op tm unit_ ~srcs:(fmax data (rd tm ac ai)) ~lat:(flat tm op) dc di )
  | Instr.Fabs (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st = setd st.xmm dxo (Float.abs (getd st.xmm so)) in
    let[@inline] sem_s st = sets st.xmm dxo (Float.abs (gets st.xmm so)) in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:1.0 dc di )
  | Instr.Fsqrt (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st = setd st.xmm dxo (Float.sqrt (getd st.xmm so)) in
    let[@inline] sem_s st = sets st.xmm dxo (Float.sqrt (gets st.xmm so)) in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        (* square root shares the unpipelined divider *)
        charge_op tm u_fpdiv ~srcs:(rd tm sc si) ~lat:tm.fdiv_l dc di )
  | Instr.Fneg (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st = setd st.xmm dxo (-.getd st.xmm so) in
    let[@inline] sem_s st = sets st.xmm dxo (-.gets st.xmm so) in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:1.0 dc di )
  | Instr.Vld (_, d, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let doff = xoff d and di = slot d and dc = d.Reg.cls in
    let[@inline] sem st =
      let addr = ea st.gpr mb mx msc mdp in
      check_vec_access st ~what:"load" addr;
      copy16 st.xmm doff st.memm addr
    in
    ( sem,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        sem st;
        charge_load tm ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) addr dc di )
  | Instr.Vst (_, m, s) | Instr.Vstnt (_, m, s) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let soff = xoff s and si = slot s and sc = s.Reg.cls in
    let nt = match ins with Instr.Vstnt _ -> 16 | _ -> 0 in
    let[@inline] sem st =
      let addr = ea st.gpr mb mx msc mdp in
      check_vec_access st ~what:"store" addr;
      copy16 st.memm addr st.xmm soff
    in
    ( sem,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        sem st;
        charge_store tm addr ~nt
          ~srcs:(fmax (rd tm sc si) (fmax (rd tm c1 s1) (rd tm c2 s2))) )
  | Instr.Vbcast (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st =
      let bits = uget64 st.xmm so in
      uset64 st.xmm dxo bits;
      uset64 st.xmm (dxo + 8) bits
    in
    let[@inline] sem_s st =
      let bits = uget32 st.xmm so in
      uset32 st.xmm dxo bits;
      uset32 st.xmm (dxo + 4) bits;
      uset32 st.xmm (dxo + 8) bits;
      uset32 st.xmm (dxo + 12) bits
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:2.0 dc di )
  | Instr.Vldi (sz, d, c) ->
    let dxo = xoff d and di = slot d and dc = d.Reg.cls in
    let bits_d = Int64.bits_of_float c and bits_s = Int32.bits_of_float c in
    let[@inline] sem_d st =
      uset64 st.xmm dxo bits_d;
      uset64 st.xmm (dxo + 8) bits_d
    in
    let[@inline] sem_s st =
      uset32 st.xmm dxo bits_s;
      uset32 st.xmm (dxo + 4) bits_s;
      uset32 st.xmm (dxo + 8) bits_s;
      uset32 st.xmm (dxo + 12) bits_s
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_load ~srcs:0.0 ~lat:tm.l1_l dc di )
  | Instr.Vop (sz, op, d, a, b) ->
    let ao = xoff a and bo = xoff b and dxo = xoff d in
    let ai = slot a and ac = a.Reg.cls in
    let bi = slot b and bc = b.Reg.cls in
    let di = slot d and dc = d.Reg.cls in
    let unit_ = fp_unit op in
    let[@inline] sem_d st =
      let x = st.xmm in
      setd x dxo (fop_x op (getd x ao) (getd x bo));
      setd x (dxo + 8) (fop_x op (getd x (ao + 8)) (getd x (bo + 8)))
    in
    let[@inline] sem_s st =
      let x = st.xmm in
      sets x dxo (fop_x op (gets x ao) (gets x bo));
      sets x (dxo + 4) (fop_x op (gets x (ao + 4)) (gets x (bo + 4)));
      sets x (dxo + 8) (fop_x op (gets x (ao + 8)) (gets x (bo + 8)));
      sets x (dxo + 12) (fop_x op (gets x (ao + 12)) (gets x (bo + 12)))
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_vop tm unit_ dc di ~lat:(flat tm op)
          ~srcs:(fmax (rd tm ac ai) (rd tm bc bi)) )
  | Instr.Vopm (sz, op, d, a, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let ao = xoff a and dxo = xoff d in
    let ai = slot a and ac = a.Reg.cls in
    let di = slot d and dc = d.Reg.cls in
    let unit_ = fp_unit op in
    (* [check_vec_access] proves the whole 16-byte operand in range, so
       the lanes need no bounds checks of their own. *)
    let[@inline] sem_d st =
      let addr = ea st.gpr mb mx msc mdp in
      check_vec_access st ~what:"operand" addr;
      let x = st.xmm and mm = st.memm in
      setd x dxo (fop_x op (getd x ao) (getd mm addr));
      setd x (dxo + 8) (fop_x op (getd x (ao + 8)) (getd mm (addr + 8)))
    in
    let[@inline] sem_s st =
      let addr = ea st.gpr mb mx msc mdp in
      check_vec_access st ~what:"operand" addr;
      let x = st.xmm and mm = st.memm in
      sets x dxo (fop_x op (gets x ao) (gets mm addr));
      sets x (dxo + 4) (fop_x op (gets x (ao + 4)) (gets mm (addr + 4)));
      sets x (dxo + 8) (fop_x op (gets x (ao + 8)) (gets mm (addr + 8)));
      sets x (dxo + 12) (fop_x op (gets x (ao + 12)) (gets mm (addr + 12)))
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        (match sz with Instr.D -> sem_d st | Instr.S -> sem_s st);
        let lstart = acquire1 tm u_load ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) in
        let data = mload tm addr lstart in
        charge_vop tm unit_ ~srcs:(fmax data (rd tm ac ai)) ~lat:(flat tm op) dc di )
  | Instr.Vabs (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st =
      let x = st.xmm in
      setd x dxo (Float.abs (getd x so));
      setd x (dxo + 8) (Float.abs (getd x (so + 8)))
    in
    let[@inline] sem_s st =
      let x = st.xmm in
      sets x dxo (Float.abs (gets x so));
      sets x (dxo + 4) (Float.abs (gets x (so + 4)));
      sets x (dxo + 8) (Float.abs (gets x (so + 8)));
      sets x (dxo + 12) (Float.abs (gets x (so + 12)))
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_vop tm u_fpadd ~srcs:(rd tm sc si) ~lat:1.0 dc di )
  | Instr.Vsqrt (sz, d, s) ->
    let so = xoff s and dxo = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st =
      let x = st.xmm in
      setd x dxo (Float.sqrt (getd x so));
      setd x (dxo + 8) (Float.sqrt (getd x (so + 8)))
    in
    let[@inline] sem_s st =
      let x = st.xmm in
      sets x dxo (Float.sqrt (gets x so));
      sets x (dxo + 4) (Float.sqrt (gets x (so + 4)));
      sets x (dxo + 8) (Float.sqrt (gets x (so + 8)));
      sets x (dxo + 12) (Float.sqrt (gets x (so + 12)))
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_vop tm u_fpdiv ~srcs:(rd tm sc si) ~lat:tm.fdiv_l dc di )
  | Instr.Vcmp (sz, cmp, d, a, b) ->
    let ao = xoff a and bo = xoff b and doff = xoff d in
    let ai = slot a and ac = a.Reg.cls in
    let bi = slot b and bc = b.Reg.cls in
    let di = slot d and dc = d.Reg.cls in
    let[@inline] sem_d st =
      let x = st.xmm in
      let t0 = cmpf_x cmp (getd x ao) (getd x bo) in
      uset64 x doff (if t0 then Int64.minus_one else 0L);
      let t1 = cmpf_x cmp (getd x (ao + 8)) (getd x (bo + 8)) in
      uset64 x (doff + 8) (if t1 then Int64.minus_one else 0L)
    in
    let[@inline] sem_s st =
      let x = st.xmm in
      for lane = 0 to 3 do
        let o = lane * 4 in
        let t = cmpf_x cmp (gets x (ao + o)) (gets x (bo + o)) in
        uset32 x (doff + o) (if t then Int32.minus_one else 0l)
      done
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_vop tm u_fpadd ~srcs:(fmax (rd tm ac ai) (rd tm bc bi)) ~lat:3.0 dc di )
  | Instr.Vmovmsk (sz, d, s) ->
    let di = slot d and dc = d.Reg.cls in
    let soff = xoff s and si = slot s and sc = s.Reg.cls in
    let[@inline] sem_d st =
      let mask = ref 0 in
      for lane = 0 to 1 do
        let top =
          Int64.to_int (Int64.shift_right_logical (uget64 st.xmm (soff + (lane * 8))) 63)
        in
        if top land 1 = 1 then mask := !mask lor (1 lsl lane)
      done;
      gput st di @@ !mask
    in
    let[@inline] sem_s st =
      let mask = ref 0 in
      for lane = 0 to 3 do
        let top =
          Int32.to_int (Int32.shift_right_logical (uget32 st.xmm (soff + (lane * 4))) 31)
        in
        if top land 1 = 1 then mask := !mask lor (1 lsl lane)
      done;
      gput st di @@ !mask
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:2.0 dc di )
  | Instr.Vextract (sz, d, s, lane) ->
    (* pure bit move: float_of_bits/bits_of_float round-trips are the
       identity, so the lane is copied without decoding it *)
    let doff = xoff d and di = slot d and dc = d.Reg.cls in
    let si = slot s and sc = s.Reg.cls in
    let so_d = xoff s + (lane * 8) and so_s = xoff s + (lane * 4) in
    let[@inline] sem_d st =
      let bits = uget64 st.xmm so_d in
      zero16 st.xmm doff;
      uset64 st.xmm doff bits
    in
    let[@inline] sem_s st =
      let bits = uget32 st.xmm so_s in
      zero16 st.xmm doff;
      uset32 st.xmm doff bits
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        charge_op tm u_fpadd ~srcs:(rd tm sc si) ~lat:2.0 dc di )
  | Instr.Vreduce (sz, op, d, s) ->
    let so = xoff s and doff = xoff d in
    let si = slot s and sc = s.Reg.cls and di = slot d and dc = d.Reg.cls in
    let unit_ = fp_unit op in
    let[@inline] sem_d st =
      let x = st.xmm in
      let acc = fop_x op (getd x so) (getd x (so + 8)) in
      zero16 x doff;
      setd x doff acc
    in
    (* single precision rounds after every fold step *)
    let[@inline] sem_s st =
      let x = st.xmm in
      let acc = round32 (fop_x op (gets x so) (gets x (so + 4))) in
      let acc = round32 (fop_x op acc (gets x (so + 8))) in
      let acc = round32 (fop_x op acc (gets x (so + 12))) in
      zero16 x doff;
      sets x doff acc
    in
    ( by_size sz sem_d sem_s,
      fun tm ->
        (match sz with Instr.D -> sem_d tm.tstate | Instr.S -> sem_s tm.tstate);
        let start = acquire tm unit_ ~srcs:(rd tm sc si) ~uops:2 in
        wr tm dc di (start +. (2.0 *. flat tm op)) )
  | Instr.Touch (sz, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    let bytes = Instr.fsize_bytes sz in
    let[@inline] sem st = check_bounds st (ea st.gpr mb mx msc mdp) bytes in
    ( sem,
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        sem st;
        let start = acquire1 tm u_load ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) in
        retire tm (mload tm addr start) )
  | Instr.Prefetch (kind, m) ->
    let mb, mx, msc, mdp = maddr m in
    let c1, s1, c2, s2 = mready m in
    ( (fun _ -> ()),
      fun tm ->
        let st = tm.tstate in
        let addr = ea st.gpr mb mx msc mdp in
        let start = acquire1 tm u_load ~srcs:(fmax (rd tm c1 s1) (rd tm c2 s2)) in
        if addr >= 0 && addr < Bytes.length st.memm then mprefetch tm addr ~kind start;
        retire tm (start +. 1.0) )
  | Instr.Nop -> ((fun _ -> ()), fun _ -> ())

(* Jump targets resolve to block indices at decode time; an unresolved
   label compiles to a closure that traps only when executed, so a
   never-taken branch to a missing block still runs (the "labels"
   execution golden). *)
let goto_fn lmap l : state -> int =
  match Hashtbl.find_opt lmap l with
  | Some i -> fun _ -> i
  | None -> fun _ -> trap "jump to unknown block %S" l

(* The one-bit branch predictor: [pred.(bi)] is block [bi]'s last
   outcome, or [-1] before its first, predicted [unseen].  A
   misprediction holds the front end until the branch resolves plus
   the penalty. *)
let[@inline] predict tm pred bi ~unseen taken resolve =
  let predicted = match pred.(bi) with -1 -> unseen | p -> p = 1 in
  if predicted <> taken then tm.clk.(k_front) <- fmax tm.clk.(k_front) (resolve +. tm.misp);
  pred.(bi) <- Bool.to_int taken

(* Terminator closures return the next block index, or [-1 - k] for
   the [k]-th Ret site.  A conditional branch's compare (with [Br]'s
   fused decrement) is written once, as [test], which both closures
   expand.  [Br] predicts taken before its first outcome and [Fbr] not
   taken (the "predictor" execution golden). *)
let decode_term ~bi ~lmap ~ret (t : Block.term) :
    (state -> int) * (state -> timing -> int array -> int) =
  match t with
  | Block.Jmp l ->
    let goto = goto_fn lmap l in
    ( goto,
      fun st tm _pred ->
        let start = acquire1 tm u_branch ~srcs:0.0 in
        retire tm (start +. 1.0);
        goto st )
  | Block.Br { cmp; lhs; rhs; ifso; ifnot; dec } ->
    let li = slot lhs and lc = lhs.Reg.cls in
    let g_so = goto_fn lmap ifso and g_not = goto_fn lmap ifnot in
    (* an immediate right-hand side reads [lhs]'s slot for readiness:
       the maximum of one readiness with itself is that readiness *)
    let imm, k, ri, rc =
      match rhs with
      | Instr.Oreg r -> (false, 0, slot r, r.Reg.cls)
      | Instr.Oimm k -> (true, k, li, lc)
    in
    let[@inline] test st =
      if dec > 0 then gput st li @@ (gu st li - dec);
      cmpi_x cmp (gu st li) (if imm then k else gu st ri)
    in
    ( (fun st -> if test st then g_so st else g_not st),
      fun st tm pred ->
        let taken = test st in
        let start = acquire1 tm u_branch ~srcs:(fmax (rd tm lc li) (rd tm rc ri)) in
        let resolve = start +. 1.0 in
        if dec > 0 then wr tm lc li resolve else retire tm resolve;
        predict tm pred bi ~unseen:true taken resolve;
        if taken then g_so st else g_not st )
  | Block.Fbr { fsize; cmp; lhs; rhs; ifso; ifnot } ->
    let lo = xoff lhs and ro = xoff rhs in
    let li = slot lhs and lc = lhs.Reg.cls in
    let ri = slot rhs and rc = rhs.Reg.cls in
    let g_so = goto_fn lmap ifso and g_not = goto_fn lmap ifnot in
    let[@inline] test st =
      match fsize with
      | Instr.D -> cmpf_x cmp (getd st.xmm lo) (getd st.xmm ro)
      | Instr.S -> cmpf_x cmp (gets st.xmm lo) (gets st.xmm ro)
    in
    ( (fun st -> if test st then g_so st else g_not st),
      fun st tm pred ->
        let taken = test st in
        let start = acquire tm u_branch ~srcs:(fmax (rd tm lc li) (rd tm rc ri)) ~uops:2 in
        let resolve = start +. 3.0 in
        retire tm resolve;
        predict tm pred bi ~unseen:false taken resolve;
        if taken then g_so st else g_not st )
  | Block.Ret r ->
    let code = -1 - ret r in
    ((fun _ -> code), fun _ _ _ -> code)

(* ------------------------------------------------------------------ *)
(* Superblock fusion.

   The timed engine's hot loop used to make one indirect call per
   instruction: [for i = 0 to n-1 do code.(i) st tm done].  Fusing a
   block's straight-line run into a single closure turns that into one
   dispatch per block — the calls between consecutive instructions
   become direct (known) calls inside the fused closure's body.

   The combinators below just sequence their arguments, so the fused
   closure executes the exact same closures in the exact same order as
   the per-instruction loop; a trap raised by instruction [i]
   propagates after instructions [0..i-1] ran, same as before.  Lists
   longer than eight are split into at most eight near-equal chunks
   and fused recursively (arity-8 trees), so dispatch overhead is
   O(n/8 + log n) calls per block instead of n.  One [fuse] serves
   both engines: it is polymorphic in the closures' argument.

   The per-instruction arrays are kept alongside: the budget slow path
   needs to count and trap at instruction granularity. *)

let[@inline] seq2 a b = fun x -> a x; b x
let[@inline] seq3 a b c = fun x -> a x; b x; c x
let[@inline] seq4 a b c d = fun x -> a x; b x; c x; d x
let[@inline] seq5 a b c d e = fun x -> a x; b x; c x; d x; e x
let[@inline] seq6 a b c d e f = fun x -> a x; b x; c x; d x; e x; f x

let[@inline] seq7 a b c d e f g =
 fun x ->
  a x;
  b x;
  c x;
  d x;
  e x;
  f x;
  g x

let[@inline] seq8 a b c d e f g h =
 fun x ->
  a x;
  b x;
  c x;
  d x;
  e x;
  f x;
  g x;
  h x

let rec fuse (code : ('a -> unit) array) lo hi : 'a -> unit =
  let n = hi - lo in
  if n <= 8 then
    match n with
    | 0 -> fun _ -> ()
    | 1 -> Array.unsafe_get code lo
    | 2 -> seq2 code.(lo) code.(lo + 1)
    | 3 -> seq3 code.(lo) code.(lo + 1) code.(lo + 2)
    | 4 -> seq4 code.(lo) code.(lo + 1) code.(lo + 2) code.(lo + 3)
    | 5 -> seq5 code.(lo) code.(lo + 1) code.(lo + 2) code.(lo + 3) code.(lo + 4)
    | 6 ->
      seq6 code.(lo)
        code.(lo + 1)
        code.(lo + 2)
        code.(lo + 3)
        code.(lo + 4)
        code.(lo + 5)
    | 7 ->
      seq7 code.(lo)
        code.(lo + 1)
        code.(lo + 2)
        code.(lo + 3)
        code.(lo + 4)
        code.(lo + 5)
        code.(lo + 6)
    | _ ->
      seq8 code.(lo)
        code.(lo + 1)
        code.(lo + 2)
        code.(lo + 3)
        code.(lo + 4)
        code.(lo + 5)
        code.(lo + 6)
        code.(lo + 7)
  else begin
    (* at most eight chunks of ceil(n/8) each, fused bottom-up *)
    let k = (n + 7) / 8 in
    let parts =
      Array.init ((n + k - 1) / k) (fun i ->
          fuse code (lo + (i * k)) (min hi (lo + ((i + 1) * k))))
    in
    fuse parts 0 (Array.length parts)
  end

let compile (f : Cfg.func) : compiled =
  let blocks = Array.of_list f.Cfg.blocks in
  (* Hashtbl.replace in block order: with duplicate labels a jump goes
     to the last block of that name (the execution goldens pin this
     order). *)
  let lmap = Hashtbl.create (max 16 (2 * Array.length blocks)) in
  Array.iteri (fun i b -> Hashtbl.replace lmap b.Block.label i) blocks;
  (* Pre-size the flat register files: at least the 8 physical slots
     (frame/stack pointer live there), plus every slot the function
     mentions anywhere. *)
  let ngpr = ref 8 and nxmm = ref 8 in
  let see (r : Reg.t) =
    let s = slot r + 1 in
    match r.Reg.cls with
    | Reg.Gpr -> if s > !ngpr then ngpr := s
    | Reg.Xmm -> if s > !nxmm then nxmm := s
  in
  Reg.Set.iter see (Cfg.all_regs f);
  let rets = ref [] and nrets = ref 0 in
  let ret r =
    let k = !nrets in
    incr nrets;
    rets := r :: !rets;
    k
  in
  let cblocks =
    Array.mapi
      (fun bi b ->
        let decoded = List.map decode_instr b.Block.instrs in
        let pterm, tterm = decode_term ~bi ~lmap ~ret b.Block.term in
        let c_pure = Array.of_list (List.map fst decoded) in
        let c_timed = Array.of_list (List.map snd decoded) in
        let n = Array.length c_pure in
        {
          c_pure;
          c_timed;
          c_pure_all = fuse c_pure 0 n;
          c_timed_all = fuse c_timed 0 n;
          c_len = n;
          c_pterm = pterm;
          c_tterm = tterm;
        })
      blocks
  in
  let centry =
    match Hashtbl.find_opt lmap (Cfg.entry f).Block.label with
    | Some i -> i
    | None -> assert false
  in
  {
    c_func = f;
    c_digest = Atomic.make None;
    c_blocks = cblocks;
    c_entry = centry;
    c_rets = Array.of_list (List.rev !rets);
    c_ngpr = !ngpr;
    c_nxmm = !nxmm;
  }

(* Parameters are bound by name from the environment's bindings; the
   frame and stack pointers both start at the environment's stack.
   Every parameter register is in [Cfg.all_regs], so its slot is in
   range of the register file of its class. *)
let bind_args st (f : Cfg.func) env =
  st.gpr.(slot Reg.frame_ptr) <- Env.stack_base env;
  st.gpr.(slot Reg.stack_ptr) <- Env.stack_base env;
  List.iter
    (fun (name, (r : Reg.t)) ->
      let i = slot r in
      match (Env.binding env name, r.Reg.cls) with
      | Env.Int_arg v, Reg.Gpr -> st.gpr.(i) <- v
      | Env.Array_arg { addr; _ }, Reg.Gpr -> st.gpr.(i) <- addr
      | Env.Fp_arg (sz, v), Reg.Xmm -> (
        zero16 st.xmm (i * 16);
        match sz with Instr.D -> setd st.xmm (i * 16) v | Instr.S -> sets st.xmm (i * 16) v)
      | _ -> trap "parameter %S is bound to a value of the wrong register class" name
      | exception Not_found -> trap "no binding for parameter %S" name)
    f.Cfg.params

let exec ?timing ?(max_instrs = 200_000_000) ?(ret_fsize = Instr.D) (c : compiled)
    (env : Env.t) =
  let st =
    {
      gpr = Array.make c.c_ngpr 0;
      xmm = Bytes.make (c.c_nxmm * 16) '\000';
      memm = Env.mem env;
    }
  in
  bind_args st c.c_func env;
  let blocks = c.c_blocks in
  let icount = ref 0 in
  let finish code tm =
    let ret_reg = c.c_rets.(-1 - code) in
    let ret =
      Option.map
        (fun (r : Reg.t) ->
          match (r.Reg.cls, ret_fsize) with
          | Reg.Gpr, _ -> Rint (gu st (slot r))
          | Reg.Xmm, Instr.D -> Rfp (getd st.xmm (xoff r))
          | Reg.Xmm, Instr.S -> Rfp (gets st.xmm (xoff r)))
        ret_reg
    in
    match tm with
    | None -> { ret; cycles = 0.0; instr_count = !icount; uop_count = !icount }
    | Some tm ->
      let fin =
        fmax tm.clk.(k_front)
          (match ret_reg with
          | Some r -> rd tm r.Reg.cls (slot r)
          | None -> tm.clk.(k_last))
      in
      let cycles = Memsys.drain_time tm.ms ~now:(fmax fin tm.clk.(k_last)) in
      { ret; cycles; instr_count = !icount; uop_count = tm.uops }
  in
  (* Block-level budget: when a whole block fits in the remaining
     budget it is charged up front and the body runs with no
     per-instruction check.  [n <= max_instrs - !icount] is
     overflow-safe ([!icount] never exceeds [max_instrs]), and the
     slow path counts and traps per instruction (the budget goldens
     pin the instruction it traps at). *)
  match timing with
  | None ->
    let rec go bi =
      let b = Array.unsafe_get blocks bi in
      let n = b.c_len in
      if n <= max_instrs - !icount then begin
        icount := !icount + n;
        b.c_pure_all st
      end
      else begin
        let code = b.c_pure in
        for i = 0 to n - 1 do
          incr icount;
          if !icount > max_instrs then trap "instruction budget exceeded";
          (Array.unsafe_get code i) st
        done
      end;
      let nxt = b.c_pterm st in
      if nxt >= 0 then go nxt else nxt
    in
    finish (go c.c_entry) None
  | Some (cfg, ms) ->
    let tm = make_timing cfg ms st in
    let pred = Array.make (Array.length blocks) (-1) in
    let rec go bi =
      let b = Array.unsafe_get blocks bi in
      let n = b.c_len in
      if n <= max_instrs - !icount then begin
        icount := !icount + n;
        b.c_timed_all tm
      end
      else begin
        let code = b.c_timed in
        for i = 0 to n - 1 do
          incr icount;
          if !icount > max_instrs then trap "instruction budget exceeded";
          (Array.unsafe_get code i) tm
        done
      end;
      let nxt = b.c_tterm st tm pred in
      if nxt >= 0 then go nxt else nxt
    in
    finish (go c.c_entry) (Some tm)

let run ?timing ?max_instrs ?ret_fsize f env =
  exec ?timing ?max_instrs ?ret_fsize (compile f) env
