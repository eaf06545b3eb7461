(** Affine dependence analysis for the tunable loop nest.

    On top of {!Absint}'s interval-with-stride values this module
    recovers, for every memory access in the loop, an {e affine index
    expression} [byte offset = stride * iter + disp] relative to the
    base of one array parameter, then runs the classical GCD and
    Banerjee tests on every pair of references that could conflict,
    producing distance/direction vectors (the loop nest is one loop
    deep, so each vector has a single entry).

    Aliasing follows the HIL contract: distinct pointer parameters
    never overlap (the Fortran rule) unless one of them carries the
    [MAYALIAS] mark-up, in which case nothing can be proven and every
    pair involving it is reported {!Unknown} — the fail-closed
    verdict {!Legality} turns into a transform rejection. *)

open Ifko_codegen

type affine = { stride : int; disp : int }
(** byte offset from the array base at loop entry: [stride*iter + disp] *)

type access = {
  array : Lower.array_param option;  (** [None]: not provably any array *)
  block : string;
  instr : int;
  store : bool;
  width : int;  (** bytes touched *)
  faulting : bool;  (** software prefetches never fault *)
  pairable : bool;  (** prefetch/touch data is discarded: no dependence *)
  guarded : bool;  (** on a conditional path: may not run every iteration *)
  affine : affine option;
}

type dir = Lt | Eq | Gt | Star

type relation =
  | Independent
  | Dependent of { distance : int option; dir : dir }
  | Unknown of string

type pair = { src : access; dst : access; relation : relation }

type t = {
  has_loop : bool;  (** a fresh, analyzable loop nest was found *)
  stale : bool;  (** a loop nest was marked but its labels are stale *)
  trips : int option;  (** constant trip count, when provable *)
  accesses : access list;
  pairs : pair list;
      (** every evaluated pair: same array or may-aliased arrays, at
          least one side a store, in lexical order *)
  nonaffine : access list;  (** faulting accesses with no affine form *)
}

let dir_to_string = function Lt -> "<" | Eq -> "=" | Gt -> ">" | Star -> "*"

let relation_to_string = function
  | Independent -> "independent"
  | Dependent { distance = Some k; dir } ->
    Printf.sprintf "distance %d (%s)" k (dir_to_string dir)
  | Dependent { distance = None; dir } ->
    Printf.sprintf "distance unknown (%s)" (dir_to_string dir)
  | Unknown why -> Printf.sprintf "unknown (%s)" why

let access_name (a : access) =
  Printf.sprintf "%s %s at %s:%d"
    (if a.store then "store" else "load")
    (match a.array with Some p -> p.Lower.a_name | None -> "?")
    a.block a.instr

(* ---------- loop-body control flow ---------- *)

(** The loop body is acyclic once the back edge into the header is
    removed; reachability over that DAG answers both "does this block
    run every iteration" and "can this definition affect that block's
    entry state". *)
let loop_dag (blocks : Block.t list) =
  let by_label = Hashtbl.create 8 in
  List.iter (fun (b : Block.t) -> Hashtbl.replace by_label b.Block.label b) blocks;
  let header = match blocks with b :: _ -> b.Block.label | [] -> "" in
  let succs l =
    match Hashtbl.find_opt by_label l with
    | None -> []
    | Some b ->
      List.filter
        (fun s -> s <> header && Hashtbl.mem by_label s)
        (Block.successors b.Block.term)
  in
  (* non-empty path [src -> dst] avoiding [avoiding] *)
  let reaches ?avoiding src dst =
    let seen = Hashtbl.create 8 in
    let rec go l =
      if avoiding = Some l then false
      else if l = dst then true
      else if Hashtbl.mem seen l then false
      else begin
        Hashtbl.replace seen l ();
        List.exists go (succs l)
      end
    in
    List.exists go (succs src)
  in
  let latch =
    match List.rev blocks with b :: _ -> b.Block.label | [] -> ""
  in
  let always l =
    l = header || l = latch || not (reaches header latch ~avoiding:l)
  in
  (reaches, always)

(* ---------- per-iteration register deltas ---------- *)

(** [deltas ~always blocks] classifies every GPR the loop touches:
    [Some k] if its only in-loop definitions are unconditional
    self-increments summing to [k] per iteration (the basic induction
    variables: pointers, the index, the trip counter), [None] if any
    other — or any conditionally executed — definition reaches it. *)
let deltas ~always (blocks : Block.t list) =
  let tbl : (int, int option) Hashtbl.t = Hashtbl.create 16 in
  let bump (r : Reg.t) k =
    match Hashtbl.find_opt tbl r.Reg.id with
    | Some None -> ()
    | Some (Some d) -> Hashtbl.replace tbl r.Reg.id (Some (d + k))
    | None -> Hashtbl.replace tbl r.Reg.id (Some k)
  in
  let poison (r : Reg.t) = Hashtbl.replace tbl r.Reg.id None in
  List.iter
    (fun (b : Block.t) ->
      let bump = if always b.Block.label then bump else fun r _ -> poison r in
      List.iter
        (fun i ->
          match i with
          | Instr.Iop (Instr.Iadd, d, s, Instr.Oimm k) when Reg.equal d s -> bump d k
          | Instr.Iop (Instr.Isub, d, s, Instr.Oimm k) when Reg.equal d s -> bump d (-k)
          | i -> List.iter (fun r -> if r.Reg.cls = Reg.Gpr then poison r) (Instr.defs i))
        b.Block.instrs;
      match b.Block.term with
      | Block.Br { lhs; dec; _ } when dec > 0 -> bump lhs (-dec)
      | _ -> ())
    blocks;
  fun (r : Reg.t) ->
    match Hashtbl.find_opt tbl r.Reg.id with
    | Some d -> d  (* None = poisoned *)
    | None -> Some 0  (* never defined in the loop: invariant *)

(** Loop blocks in which [r] is (re)defined. *)
let def_blocks (blocks : Block.t list) (r : Reg.t) =
  List.filter_map
    (fun b ->
      let in_instrs =
        List.exists (fun i -> List.exists (Reg.equal r) (Instr.defs i)) b.Block.instrs
      in
      let in_term = List.exists (Reg.equal r) (Block.term_defs b.Block.term) in
      if in_instrs || in_term then Some b.Block.label else None)
    blocks

(* ---------- intra-iteration symbolic evaluation ---------- *)

(** A linear form over block-entry register values plus a constant. *)
type lin = { parts : (Reg.t * int) list; const : int }

let lin_of_reg r = { parts = [ (r, 1) ]; const = 0 }
let lin_const k = { parts = []; const = k }

let lin_add a b =
  let parts =
    List.fold_left
      (fun acc (r, c) ->
        let rec merge = function
          | [] -> [ (r, c) ]
          | ((r', c') as hd) :: tl ->
            if Reg.equal r r' then
              if c + c' = 0 then tl else (r', c + c') :: tl
            else hd :: merge tl
        in
        merge acc)
      a.parts b.parts
  in
  { parts; const = a.const + b.const }

let lin_scale k l =
  if k = 0 then lin_const 0
  else { parts = List.map (fun (r, c) -> (r, k * c)) l.parts; const = k * l.const }

let lin_neg l = lin_scale (-1) l

(* ---------- access collection ---------- *)

let mem_of = function
  | Instr.Ild (_, m) | Instr.Fld (_, _, m) | Instr.Vld (_, _, m)
  | Instr.Fopm (_, _, _, _, m) | Instr.Vopm (_, _, _, _, m)
  | Instr.Ist (m, _) | Instr.Fst (_, m, _) | Instr.Fstnt (_, m, _)
  | Instr.Vst (_, m, _) | Instr.Vstnt (_, m, _)
  | Instr.Lea (_, m) -> Some m
  | Instr.Touch (_, m) | Instr.Prefetch (_, m) -> Some m
  | _ -> None

let access_shape = function
  | Instr.Ild _ -> Some (false, 4, true, true)
  | Instr.Ist _ -> Some (true, 4, true, true)
  | Instr.Fld (sz, _, _) | Instr.Fopm (sz, _, _, _, _) ->
    Some (false, Instr.fsize_bytes sz, true, true)
  | Instr.Fst (sz, _, _) | Instr.Fstnt (sz, _, _) ->
    Some (true, Instr.fsize_bytes sz, true, true)
  | Instr.Vld _ | Instr.Vopm _ -> Some (false, 16, true, true)
  | Instr.Vst _ | Instr.Vstnt _ -> Some (true, 16, true, true)
  | Instr.Touch (sz, _) ->
    (* a real load, but its data is discarded: bounds matter,
       dependence does not *)
    Some (false, Instr.fsize_bytes sz, true, false)
  | Instr.Prefetch _ -> Some (false, 1, false, false)
  | _ -> None

(* ---------- the analysis ---------- *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let empty ~stale =
  { has_loop = false; stale; trips = None; accesses = []; pairs = []; nonaffine = [] }

(** {!analyze}'s [stale] verdict without the analysis: a loop nest is
    marked but its labels no longer name the loop's blocks. *)
let stale (compiled : Lower.compiled) =
  Option.is_some compiled.Lower.loopnest
  && match Ptrinfo.loop_blocks compiled with [] -> true | _ :: _ -> false

let may_alias (a : Lower.array_param) (b : Lower.array_param) =
  a.Lower.a_mayalias || b.Lower.a_mayalias

(** The dependence-test window: two accesses with strides [s1]/[s2],
    first-iteration displacements [d1]/[d2] and widths [w1]/[w2]
    conflict at iterations [(i, j)] iff
    [s2*j - s1*i + (d2 - d1)] lies in the open interval [(-w2, w1)]
    — i.e. the value [v = s2*j - s1*i] falls in
    [(d1 - d2 - w2, d1 - d2 + w1)]. *)
let relation_of ~trips ~self (a1 : access) f1 (a2 : access) f2 =
  let s1 = f1.stride and d1 = f1.disp and w1 = a1.width in
  let s2 = f2.stride and d2 = f2.disp and w2 = a2.width in
  let vlo = d1 - d2 - w2 and vhi = d1 - d2 + w1 in
  (* candidate v strictly inside (vlo, vhi) *)
  let candidates = List.init (max 0 (vhi - vlo - 1)) (fun k -> vlo + 1 + k) in
  if s1 = s2 then begin
    let s = s1 in
    if s = 0 then
      if vlo < 0 && 0 < vhi then Dependent { distance = None; dir = Star }
      else Independent
    else begin
      let within_trips k =
        match trips with Some u -> abs k <= u - 1 | None -> true
      in
      let ks =
        List.filter_map
          (fun v -> if v mod s = 0 && within_trips (v / s) then Some (v / s) else None)
          candidates
      in
      (* an access does not depend on itself within one iteration *)
      let ks = if self then List.filter (fun k -> k <> 0) ks else ks in
      match List.sort_uniq compare ks with
      | [] -> Independent
      | [ 0 ] -> Dependent { distance = Some 0; dir = Eq }
      | [ k ] -> Dependent { distance = Some k; dir = (if k > 0 then Lt else Gt) }
      | ks ->
        let dir =
          if List.for_all (fun k -> k > 0) ks then Lt
          else if List.for_all (fun k -> k < 0) ks then Gt
          else Star
        in
        Dependent { distance = None; dir }
    end
  end
  else begin
    (* GCD test: v = s2*j - s1*i is always a multiple of gcd(s1, s2);
       Banerjee bounds: v is confined to the box i, j in [0, U). *)
    let g = gcd s1 s2 in
    let bound coeff =
      (* range of coeff * k over k in [0, U): (min, max) as options,
         [None] = unbounded on that side *)
      match trips with
      | Some u ->
        let a = 0 and b = coeff * (u - 1) in
        (Some (min a b), Some (max a b))
      | None ->
        if coeff > 0 then (Some 0, None)
        else if coeff < 0 then (None, Some 0)
        else (Some 0, Some 0)
    in
    let lo_j, hi_j = bound s2 in
    let lo_i, hi_i = bound (-s1) in
    let lo_v =
      match (lo_j, lo_i) with Some a, Some b -> Some (a + b) | _ -> None
    in
    let hi_v =
      match (hi_j, hi_i) with Some a, Some b -> Some (a + b) | _ -> None
    in
    let feasible v =
      (g = 0 && v = 0 || g <> 0 && v mod g = 0)
      && (match lo_v with Some l -> v >= l | None -> true)
      && match hi_v with Some h -> v <= h | None -> true
    in
    if List.exists feasible candidates then Dependent { distance = None; dir = Star }
    else Independent
  end

let analyze (compiled : Lower.compiled) =
  match compiled.Lower.loopnest with
  | None -> empty ~stale:false
  | Some ln -> (
    match Ptrinfo.loop_blocks compiled with
    | [] -> empty ~stale:true
    | blocks ->
      let f = compiled.Lower.func in
      let reaches, always = loop_dag blocks in
      let delta = deltas ~always blocks in
      let absint = Absint.analyze f in
      let header = ln.Loopnest.header in
      let array_of_reg r =
        List.find_opt (fun (a : Lower.array_param) -> Reg.equal a.Lower.a_reg r)
          compiled.Lower.arrays
      in
      (* Constant trip count: the counter starts at a compile-time
         constant and is consumed [per_iter] at a time. *)
      let trips =
        match Absint.at_exit absint ln.Loopnest.preheader ln.Loopnest.cnt with
        | Absint.Val
            { anchor = Absint.Abs; lo = Absint.Fin a; hi = Absint.Fin b; _ }
          when a = b && ln.Loopnest.per_iter > 0 ->
          Some (max 0 (a / ln.Loopnest.per_iter))
        | _ -> None
      in
      (* Resolve a linear form at an access in block [blabel] to an
         affine (array, stride, disp) description, fail-closed. *)
      let resolve blabel (l : lin) =
        let exception No of string in
        try
          let anchor = ref None and stride = ref 0 and disp = ref l.const in
          List.iter
            (fun ((r : Reg.t), c) ->
              (* the block-entry value of [r] must equal its
                 iteration-entry value: no definition of [r] in a loop
                 block that can flow into this block's entry (defs in
                 this block itself are consumed by the walk) *)
              let allowed l' = l' = blabel || not (reaches l' blabel) in
              if not (List.for_all allowed (def_blocks blocks r)) then
                raise (No "register changes earlier in the iteration");
              let d =
                match delta r with
                | Some d -> d
                | None -> raise (No "no per-iteration stride")
              in
              (match Absint.at_entry absint header r with
              | Absint.Val { anchor = a; lo; hi; _ } ->
                let entry0 =
                  if d >= 0 then
                    match lo with
                    | Absint.Fin v -> v
                    | _ -> raise (No "loop-entry value not provable")
                  else
                    match hi with
                    | Absint.Fin v -> v
                    | _ -> raise (No "loop-entry value not provable")
                in
                (match a with
                | Absint.Abs -> disp := !disp + (c * entry0)
                | Absint.Sym p ->
                  if c <> 1 then raise (No "non-unit pointer coefficient")
                  else begin
                    match !anchor with
                    | Some _ -> raise (No "two symbolic bases")
                    | None ->
                      anchor := Some p;
                      disp := !disp + entry0
                  end)
              | Absint.Top -> raise (No "unanalyzable register"));
              stride := !stride + (c * d))
            l.parts;
          match !anchor with
          | None -> (None, None)
          | Some p -> (
            match array_of_reg p with
            | Some a -> (Some a, Some { stride = !stride; disp = !disp })
            | None -> (None, None))
        with No _ -> (None, None)
      in
      (* Walk each loop block, tracking linear forms for the registers
         it redefines; collect every memory access. *)
      let accesses = ref [] in
      List.iter
        (fun (b : Block.t) ->
          let env : (int, lin option) Hashtbl.t = Hashtbl.create 8 in
          let get (r : Reg.t) =
            if r.Reg.cls <> Reg.Gpr then None
            else
              match Hashtbl.find_opt env r.Reg.id with
              | Some v -> v
              | None -> Some (lin_of_reg r)
          in
          let set (r : Reg.t) v = Hashtbl.replace env r.Reg.id v in
          List.iteri
            (fun idx i ->
              (* record the access against the pre-instruction state *)
              (match (mem_of i, access_shape i) with
              | Some m, Some (store, width, faulting, pairable) ->
                let addr =
                  let base = get m.Instr.base in
                  let index =
                    match m.Instr.index with
                    | None -> Some (lin_const 0)
                    | Some idx -> Option.map (lin_scale m.Instr.scale) (get idx)
                  in
                  match (base, index) with
                  | Some b', Some i' -> Some (lin_add (lin_add b' i') (lin_const m.Instr.disp))
                  | _ -> None
                in
                let array, affine =
                  match addr with
                  | None -> (None, None)
                  | Some l -> resolve b.Block.label l
                in
                accesses :=
                  { array; block = b.Block.label; instr = idx; store; width; faulting;
                    pairable; guarded = not (always b.Block.label); affine }
                  :: !accesses
              | _ -> ());
              (* then apply the instruction's effect on the GPR state *)
              match i with
              | Instr.Ildi (d, k) -> set d (Some (lin_const k))
              | Instr.Imov (d, s) -> set d (get s)
              | Instr.Iop (op, d, a, bop) ->
                let va = get a in
                let vb =
                  match bop with
                  | Instr.Oimm k -> Some (lin_const k)
                  | Instr.Oreg r -> get r
                in
                let v =
                  match (op, va, vb) with
                  | Instr.Iadd, Some x, Some y -> Some (lin_add x y)
                  | Instr.Isub, Some x, Some y -> Some (lin_add x (lin_neg y))
                  | Instr.Imul, Some x, Some { parts = []; const = k } ->
                    Some (lin_scale k x)
                  | Instr.Imul, Some { parts = []; const = k }, Some y ->
                    Some (lin_scale k y)
                  | Instr.Ishl, Some x, Some { parts = []; const = k }
                    when k >= 0 && k < 30 -> Some (lin_scale (1 lsl k) x)
                  | _ -> None
                in
                set d v
              | Instr.Lea (d, m) ->
                let v =
                  let base = get m.Instr.base in
                  let index =
                    match m.Instr.index with
                    | None -> Some (lin_const 0)
                    | Some idx -> Option.map (lin_scale m.Instr.scale) (get idx)
                  in
                  match (base, index) with
                  | Some b', Some i' -> Some (lin_add (lin_add b' i') (lin_const m.Instr.disp))
                  | _ -> None
                in
                set d v
              | i ->
                List.iter
                  (fun (r : Reg.t) -> if r.Reg.cls = Reg.Gpr then set r None)
                  (Instr.defs i))
            b.Block.instrs)
        blocks;
      let accesses = List.rev !accesses in
      (* Pair evaluation, in lexical order. *)
      let block_rank =
        let tbl = Hashtbl.create 8 in
        List.iteri (fun i (b : Block.t) -> Hashtbl.replace tbl b.Block.label i) blocks;
        fun l -> Option.value ~default:0 (Hashtbl.find_opt tbl l)
      in
      let pos a = (block_rank a.block, a.instr) in
      let pairs = ref [] in
      let eval ?(self = false) src dst =
        let relation =
          match (src.array, dst.array) with
          | Some pa, Some pb when pa.Lower.a_name = pb.Lower.a_name -> (
            match (src.affine, dst.affine) with
            | Some f1, Some f2 -> relation_of ~trips ~self src f1 dst f2
            | _ -> Unknown "non-affine access")
          | Some pa, Some pb ->
            if may_alias pa pb then
              Unknown
                (Printf.sprintf "%s and %s carry the MAYALIAS mark-up" pa.Lower.a_name
                   pb.Lower.a_name)
            else Independent
          | _ -> Unknown "access not attributable to an array"
        in
        (* Distinct arrays proven disjoint carry no dependence: keep
           the pair list to conflicts and possible conflicts. *)
        let interesting =
          match relation with
          | Independent -> (
            match (src.array, dst.array) with
            | Some pa, Some pb -> pa.Lower.a_name = pb.Lower.a_name
            | _ -> true)
          | Dependent _ | Unknown _ -> true
        in
        if interesting then pairs := { src; dst; relation } :: !pairs
      in
      let rec all_pairs = function
        | [] -> ()
        | a :: rest ->
          (* self-pair: a store conflicting with itself across
             iterations (|stride| < width) *)
          if a.store && a.pairable then eval ~self:true a a;
          List.iter
            (fun b ->
              if (a.store || b.store) && a.pairable && b.pairable then
                if pos a <= pos b then eval a b else eval b a)
            rest;
          all_pairs rest
      in
      all_pairs accesses;
      {
        has_loop = true;
        stale = false;
        trips;
        accesses;
        pairs = List.rev !pairs;
        nonaffine = List.filter (fun a -> a.faulting && a.affine = None) accesses;
      })

(* ---------- verdict helpers ---------- *)

(** Pairs that carry a dependence across iterations, or that cannot be
    proven independent — the fail-closed obstruction set. *)
let blocking t =
  List.filter
    (fun p ->
      match p.relation with
      | Independent | Dependent { distance = Some 0; _ } -> false
      | Dependent _ | Unknown _ -> true)
    t.pairs

(** Did the analysis prove every pair of references either independent
    or loop-independent (distance 0)? *)
let all_independent t = blocking t = []

(** Cross-check {!Ptrinfo}'s syntactic per-iteration strides against
    the congruence {!Absint} infers at the loop header.  A pointer
    whose abstract value is re-anchored away from its own parameter, or
    whose syntactic stride is not a multiple of the inferred stride
    congruence, indicates one of the two analyses is being fooled —
    transforms that trust either must refuse (IFK014). *)
let stride_contradictions (compiled : Lower.compiled) =
  match compiled.Lower.loopnest with
  | None -> []
  | Some ln -> (
    match Ptrinfo.loop_blocks compiled with
    | [] -> []
    | _ ->
      let ai = Absint.analyze compiled.Lower.func in
      let header = ln.Loopnest.header in
      List.filter_map
        (fun (m : Ptrinfo.moving) ->
          let r = m.Ptrinfo.array.Lower.a_reg in
          let name = m.Ptrinfo.array.Lower.a_name in
          match Absint.at_entry ai header r with
          | Absint.Top -> None (* no information is not a contradiction *)
          | Absint.Val { anchor = Absint.Sym p; stride = s'; _ } ->
            if not (Reg.equal p r) then
              Some
                ( m,
                  Printf.sprintf "pointer %s is re-anchored at %s inside the loop" name
                    (Reg.to_string p) )
            else if s' > 0 && m.Ptrinfo.stride mod s' <> 0 then
              Some
                ( m,
                  Printf.sprintf
                    "syntactic stride %d contradicts the inferred congruence %d" m.Ptrinfo.stride
                    s' )
            else None
          | Absint.Val { anchor = Absint.Abs; _ } ->
            Some (m, Printf.sprintf "pointer %s lost its parameter anchor" name))
        (Ptrinfo.analyze compiled))

let to_string t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if not t.has_loop then add "no analyzable loop%s\n" (if t.stale then " (stale loop nest)" else "")
  else begin
    add "accesses: %d (%d non-affine)\n" (List.length t.accesses) (List.length t.nonaffine);
    (match t.trips with Some u -> add "constant trip count: %d\n" u | None -> ());
    List.iter
      (fun a ->
        add "  %s: %s\n" (access_name a)
          (match a.affine with
          | Some { stride; disp } -> Printf.sprintf "%+d*i%+d, %dB" stride disp a.width
          | None -> "non-affine"))
      t.accesses;
    List.iter
      (fun p ->
        add "  %s -> %s: %s\n" (access_name p.src) (access_name p.dst)
          (relation_to_string p.relation))
      t.pairs
  end;
  Buffer.contents buf
