open Ifko_hil

type array_param = {
  a_name : string;
  a_reg : Reg.t;
  a_elem : Instr.fsize;
  a_output : bool;
  a_noprefetch : bool;
  a_mayalias : bool;
}

type compiled = {
  func : Cfg.func;
  loopnest : Loopnest.t option;
  arrays : array_param list;
  ret_ty : Ast.ty option;
  source : Ast.kernel;
}

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type env = {
  func : Cfg.func;
  vars : (string, Reg.t) Hashtbl.t;
  types : Typecheck.env;
  mutable cur_label : string;
  mutable cur_instrs : Instr.t list; (* reversed *)
  mutable cur_open : bool;
  mutable loopnest : Loopnest.t option;
}

let emit env i = env.cur_instrs <- i :: env.cur_instrs

(* Close the current block with [term] and leave no block open. *)
let finish env term =
  if env.cur_open then begin
    let b = Block.make env.cur_label ~instrs:(List.rev env.cur_instrs) ~term in
    env.func.Cfg.blocks <- env.func.Cfg.blocks @ [ b ];
    env.cur_instrs <- [];
    env.cur_open <- false
  end

let start env label =
  if env.cur_open then finish env (Block.Jmp label);
  env.cur_label <- label;
  env.cur_instrs <- [];
  env.cur_open <- true

let var_reg env x =
  match Hashtbl.find_opt env.vars x with
  | Some r -> r
  | None -> fail "lower: variable %S has no register" x

let var_ty env x = Typecheck.lookup env.types x

let fp_precision env e =
  let rec go = function
    | Ast.Var x -> (
      match var_ty env x with Ast.Fp p -> Some p | _ -> None)
    | Ast.Load (p, _) -> (
      match var_ty env p with Ast.Ptr prec -> Some prec | _ -> None)
    | Ast.Binop (_, a, b) -> ( match go a with Some p -> Some p | None -> go b)
    | Ast.Abs e | Ast.Sqrt e | Ast.Neg e -> go e
    | Ast.Int_lit _ | Ast.Fp_lit _ -> None
  in
  go e

let fsize_of_prec = function Ast.Single -> Instr.S | Ast.Double -> Instr.D

let elem_bytes env p =
  match var_ty env p with
  | Ast.Ptr prec -> Ast.fp_bytes prec
  | ty -> fail "lower: %S is not a pointer (%s)" p (Ast.string_of_ty ty)

(* Lower an integer expression; literals stay immediates. *)
let rec int_operand env e =
  match e with
  | Ast.Int_lit k -> Instr.Oimm k
  | e -> Instr.Oreg (int_expr env e)

and int_expr env e =
  match e with
  | Ast.Int_lit k ->
    let r = Cfg.fresh_reg env.func Reg.Gpr in
    emit env (Instr.Ildi (r, k));
    r
  | Ast.Var x -> var_reg env x
  | Ast.Binop (op, a, b) ->
    let ra = int_expr env a in
    let ob = int_operand env b in
    let d = Cfg.fresh_reg env.func Reg.Gpr in
    let iop =
      match op with
      | Ast.Add -> Instr.Iadd
      | Ast.Sub -> Instr.Isub
      | Ast.Mul -> Instr.Imul
      | Ast.Div -> fail "lower: integer division is not supported"
    in
    emit env (Instr.Iop (iop, d, ra, ob));
    d
  | Ast.Neg e ->
    let r = int_expr env e in
    let z = Cfg.fresh_reg env.func Reg.Gpr in
    emit env (Instr.Ildi (z, 0));
    let d = Cfg.fresh_reg env.func Reg.Gpr in
    emit env (Instr.Iop (Instr.Isub, d, z, Instr.Oreg r));
    d
  | Ast.Abs _ -> fail "lower: integer ABS is not supported"
  | Ast.Sqrt _ -> fail "lower: integer SQRT is not supported"
  | Ast.Fp_lit _ | Ast.Load _ -> fail "lower: floating expression in integer context"

and fp_expr env sz e =
  match e with
  | Ast.Fp_lit c ->
    let r = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fldi (sz, r, c));
    r
  | Ast.Int_lit k ->
    let r = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fldi (sz, r, float_of_int k));
    r
  | Ast.Var x -> var_reg env x
  | Ast.Load (p, k) ->
    let base = var_reg env p in
    let r = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fld (sz, r, Instr.mk_mem ~disp:(k * elem_bytes env p) base));
    r
  | Ast.Binop (op, a, b) ->
    let ra = fp_expr env sz a in
    let rb = fp_expr env sz b in
    let d = Cfg.fresh_reg env.func Reg.Xmm in
    let fop =
      match op with
      | Ast.Add -> Instr.Fadd
      | Ast.Sub -> Instr.Fsub
      | Ast.Mul -> Instr.Fmul
      | Ast.Div -> Instr.Fdiv
    in
    emit env (Instr.Fop (sz, fop, d, ra, rb));
    d
  | Ast.Abs e ->
    let r = fp_expr env sz e in
    let d = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fabs (sz, d, r));
    d
  | Ast.Sqrt e ->
    let r = fp_expr env sz e in
    let d = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fsqrt (sz, d, r));
    d
  | Ast.Neg e ->
    let r = fp_expr env sz e in
    let d = Cfg.fresh_reg env.func Reg.Xmm in
    emit env (Instr.Fneg (sz, d, r));
    d

(* Destination-driven lowering of the top-level operator: [dot += x*y]
   becomes a single [Fadd dot, dot, t] so accumulator patterns are
   directly visible to the vectorizer and accumulator expansion. *)
let cmp_of = function
  | Ast.Lt -> Instr.Lt
  | Ast.Le -> Instr.Le
  | Ast.Gt -> Instr.Gt
  | Ast.Ge -> Instr.Ge
  | Ast.Eq -> Instr.Eq
  | Ast.Ne -> Instr.Ne

let assign_into env x e =
  let dst = var_reg env x in
  match var_ty env x with
  | Ast.Int -> (
    match e with
    | Ast.Int_lit k -> emit env (Instr.Ildi (dst, k))
    | Ast.Binop (op, a, b) ->
      let ra = int_expr env a in
      let ob = int_operand env b in
      let iop =
        match op with
        | Ast.Add -> Instr.Iadd
        | Ast.Sub -> Instr.Isub
        | Ast.Mul -> Instr.Imul
        | Ast.Div -> fail "lower: integer division is not supported"
      in
      emit env (Instr.Iop (iop, dst, ra, ob))
    | e ->
      let r = int_expr env e in
      if not (Reg.equal r dst) then emit env (Instr.Imov (dst, r)))
  | Ast.Fp prec -> (
    let sz = fsize_of_prec prec in
    match e with
    | Ast.Fp_lit c -> emit env (Instr.Fldi (sz, dst, c))
    | Ast.Int_lit k -> emit env (Instr.Fldi (sz, dst, float_of_int k))
    | Ast.Load (p, k) ->
      let base = var_reg env p in
      emit env (Instr.Fld (sz, dst, Instr.mk_mem ~disp:(k * elem_bytes env p) base))
    | Ast.Binop (op, a, b) ->
      let ra = fp_expr env sz a in
      let rb = fp_expr env sz b in
      let fop =
        match op with
        | Ast.Add -> Instr.Fadd
        | Ast.Sub -> Instr.Fsub
        | Ast.Mul -> Instr.Fmul
        | Ast.Div -> Instr.Fdiv
      in
      emit env (Instr.Fop (sz, fop, dst, ra, rb))
    | Ast.Abs e ->
      let r = fp_expr env sz e in
      emit env (Instr.Fabs (sz, dst, r))
    | Ast.Sqrt e ->
      let r = fp_expr env sz e in
      emit env (Instr.Fsqrt (sz, dst, r))
    | Ast.Neg e ->
      let r = fp_expr env sz e in
      emit env (Instr.Fneg (sz, dst, r))
    | Ast.Var _ as e ->
      let r = fp_expr env sz e in
      if not (Reg.equal r dst) then emit env (Instr.Fmov (sz, dst, r)))
  | Ast.Ptr _ -> fail "lower: assignment to pointer %S" x

let rec stmt env s =
  match s with
  | Ast.Assign (x, e) -> assign_into env x e
  | Ast.Assign_op (op, x, e) -> assign_into env x (Ast.Binop (op, Ast.Var x, e))
  | Ast.Store (p, k, e) ->
    let prec = match var_ty env p with Ast.Ptr prec -> prec | _ -> assert false in
    let sz = fsize_of_prec prec in
    let r = fp_expr env sz e in
    let base = var_reg env p in
    emit env (Instr.Fst (sz, Instr.mk_mem ~disp:(k * elem_bytes env p) base, r))
  | Ast.Ptr_inc (p, k) ->
    let base = var_reg env p in
    emit env (Instr.Iop (Instr.Iadd, base, base, Instr.Oimm (k * elem_bytes env p)))
  | Ast.Ptr_inc_var (p, v) ->
    (* p += v elements: a single LEA with the element size as scale *)
    let base = var_reg env p in
    let inc = var_reg env v in
    emit env (Instr.Lea (base, Instr.mk_mem ~index:inc ~scale:(elem_bytes env p) base))
  | Ast.Label l ->
    start env l (* closes the running block with a jump to [l] *)
  | Ast.Goto l ->
    finish env (Block.Jmp l);
    start env (Cfg.fresh_label env.func "dead")
  | Ast.If_goto (op, a, b, l) ->
    let cmp = cmp_of op in
    let fallthrough = Cfg.fresh_label env.func "next" in
    (match (fp_precision env a, fp_precision env b) with
    | None, None ->
      let ra = int_expr env a in
      let ob = int_operand env b in
      finish env (Block.Br { cmp; lhs = ra; rhs = ob; ifso = l; ifnot = fallthrough; dec = 0 })
    | pa, pb ->
      let prec = match pa with Some p -> p | None -> Option.get pb in
      let sz = fsize_of_prec prec in
      let ra = fp_expr env sz a in
      let rb = fp_expr env sz b in
      finish env (Block.Fbr { fsize = sz; cmp; lhs = ra; rhs = rb; ifso = l; ifnot = fallthrough }));
    start env fallthrough
  | Ast.If_then (op, a, b, then_body, else_body) ->
    (* a standard diamond; either branch may be empty *)
    let then_l = Cfg.fresh_label env.func "then" in
    let else_l = Cfg.fresh_label env.func "else" in
    let join_l = Cfg.fresh_label env.func "join" in
    let cmp = cmp_of op in
    (match (fp_precision env a, fp_precision env b) with
    | None, None ->
      let ra = int_expr env a in
      let ob = int_operand env b in
      finish env
        (Block.Br { cmp; lhs = ra; rhs = ob; ifso = then_l; ifnot = else_l; dec = 0 })
    | pa, pb ->
      let prec = match pa with Some p -> p | None -> Option.get pb in
      let sz = fsize_of_prec prec in
      let ra = fp_expr env sz a in
      let rb = fp_expr env sz b in
      finish env
        (Block.Fbr { fsize = sz; cmp; lhs = ra; rhs = rb; ifso = then_l; ifnot = else_l }));
    start env then_l;
    List.iter (stmt env) then_body;
    finish env (Block.Jmp join_l);
    start env else_l;
    List.iter (stmt env) else_body;
    finish env (Block.Jmp join_l);
    start env join_l
  | Ast.Return None ->
    finish env (Block.Ret None);
    start env (Cfg.fresh_label env.func "dead")
  | Ast.Return (Some e) ->
    let r =
      match fp_precision env e with
      | None -> int_expr env e
      | Some prec -> fp_expr env (fsize_of_prec prec) e
    in
    finish env (Block.Ret (Some r));
    start env (Cfg.fresh_label env.func "dead")
  | Ast.Loop lp -> lower_loop env lp

and lower_loop env lp =
  let f = env.func in
  let preheader = Cfg.fresh_label f "preheader" in
  let header = Cfg.fresh_label f "header" in
  let body0 = Cfg.fresh_label f "body" in
  let latch = Cfg.fresh_label f "latch" in
  let mid = Cfg.fresh_label f "mid" in
  let exit = Cfg.fresh_label f "exit" in
  start env preheader;
  (* trip = (to - from) for ascending loops, (from - to) for descending *)
  let cnt = Cfg.fresh_reg f Reg.Gpr in
  let lo = int_expr env lp.Ast.loop_from in
  let hi = int_operand env lp.Ast.loop_to in
  (if lp.Ast.loop_step = 1 then
     match hi with
     | Instr.Oreg rhi -> emit env (Instr.Iop (Instr.Isub, cnt, rhi, Instr.Oreg lo))
     | Instr.Oimm k ->
       emit env (Instr.Ildi (cnt, k));
       emit env (Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oreg lo))
   else emit env (Instr.Iop (Instr.Isub, cnt, lo, hi)));
  let index = var_reg env lp.Ast.loop_var in
  emit env (Instr.Imov (index, lo));
  finish env (Block.Jmp header);
  (* header *)
  start env header;
  finish env
    (Block.Br { cmp = Instr.Lt; lhs = cnt; rhs = Instr.Oimm 1; ifso = mid; ifnot = body0; dec = 0 });
  (* body *)
  start env body0;
  List.iter (stmt env) lp.Ast.loop_body;
  finish env (Block.Jmp latch);
  start env latch;
  emit env (Instr.Iop (Instr.Iadd, index, index, Instr.Oimm lp.Ast.loop_step));
  emit env (Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oimm 1));
  finish env (Block.Jmp header);
  start env mid;
  finish env (Block.Jmp exit);
  start env exit;
  if lp.Ast.loop_opt then begin
    if env.loopnest <> None then fail "lower: more than one OPTLOOP";
    let ln =
      Loopnest.
        {
          preheader;
          header;
          latch;
          mid;
          exit;
          cleanup = None;
          cnt;
          index = Some index;
          step = lp.Ast.loop_step;
          per_iter = 1;
          vectorized = None;
          unrolled = 1;
          lc_fused = false;
          speculate = lp.Ast.loop_speculate;
          template = [];
        }
    in
    env.loopnest <- Some ln
  end

let lower (checked : Typecheck.checked) =
  let k = checked.Typecheck.kernel in
  let func = Cfg.create ~name:k.Ast.k_name ~params:[] in
  let vars = Hashtbl.create 16 in
  (* Parameters come first so their registers are stable for callers. *)
  let params =
    List.map
      (fun p ->
        let cls = match p.Ast.p_ty with Ast.Fp _ -> Reg.Xmm | _ -> Reg.Gpr in
        let r = Cfg.fresh_reg func cls in
        Hashtbl.replace vars p.Ast.p_name r;
        (p.Ast.p_name, r))
      k.Ast.k_params
  in
  let func = { func with Cfg.params = params } in
  (* Locals and loop indices. *)
  List.iter
    (fun (x, ty) ->
      if not (Hashtbl.mem vars x) then
        let cls = match ty with Ast.Fp _ -> Reg.Xmm | _ -> Reg.Gpr in
        Hashtbl.replace vars x (Cfg.fresh_reg func cls))
    checked.Typecheck.env;
  let env =
    {
      func;
      vars;
      types = checked.Typecheck.env;
      cur_label = "entry";
      cur_instrs = [];
      cur_open = true;
      loopnest = None;
    }
  in
  (* Local initializers. *)
  List.iter
    (fun d ->
      match d.Ast.d_init with
      | None -> ()
      | Some c ->
        List.iter
          (fun x ->
            let r = var_reg env x in
            match d.Ast.d_ty with
            | Ast.Int -> emit env (Instr.Ildi (r, int_of_float c))
            | Ast.Fp prec -> emit env (Instr.Fldi (fsize_of_prec prec, r, c))
            | Ast.Ptr _ -> assert false)
          d.Ast.d_names)
    k.Ast.k_locals;
  List.iter (stmt env) k.Ast.k_body;
  (* A void kernel may fall off the end. *)
  if env.cur_open then
    if k.Ast.k_ret = None then finish env (Block.Ret None)
    else finish env (Block.Jmp env.cur_label) (* self-loop on dead tail *)
  ;
  (* Save the pristine scalar loop of the OPTLOOP for later cleanup
     materialization.  This is done after the whole body is lowered so
     blocks that sit textually outside the loop but belong to its
     natural loop (iamax's NEWMAX pattern) are captured too.  Records
     are fresh; the (immutable) instruction lists are shared. *)
  (match env.loopnest with
  | None -> ()
  | Some ln ->
    let body_labels = Loopnest.body_labels func ln in
    let template_labels = (ln.Loopnest.header :: body_labels) @ [ ln.Loopnest.latch ] in
    ln.Loopnest.template <-
      List.filter_map
        (fun l ->
          Option.map
            (fun b -> Block.make b.Block.label ~instrs:b.Block.instrs ~term:b.Block.term)
            (Cfg.find_block func l))
        template_labels);
  let arrays =
    List.filter_map
      (fun p ->
        match p.Ast.p_ty with
        | Ast.Ptr prec ->
          Some
            {
              a_name = p.Ast.p_name;
              a_reg = List.assoc p.Ast.p_name params;
              a_elem = fsize_of_prec prec;
              a_output = List.mem Ast.Output p.Ast.p_flags;
              a_noprefetch = List.mem Ast.No_prefetch p.Ast.p_flags;
              a_mayalias = List.mem Ast.May_alias p.Ast.p_flags;
            }
        | _ -> None)
      k.Ast.k_params
  in
  { func; loopnest = env.loopnest; arrays; ret_ty = k.Ast.k_ret; source = k }

let of_source src = src |> Parser.parse_kernel |> Typecheck.check |> lower
