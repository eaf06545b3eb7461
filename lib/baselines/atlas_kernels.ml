open Ifko_blas
open Ifko_machine

type candidate = {
  cand_name : string;
  assembly : bool;
  build : cfg:Config.t -> pf:(Instr.pf_kind * int) option -> wnt:bool -> Cfg.func;
}

(* ---------- C-with-inline-prefetch candidates (via the backend) ---------- *)

let pipeline_candidate ~name ~sv ~unroll ~ae ~two_array id =
  let build ~cfg ~pf ~wnt =
    let compiled = Hil_sources.compile id in
    let report = Ifko_analysis.Report.analyze compiled in
    let prefetch =
      match pf with
      | None -> []
      | Some (kind, dist) ->
        List.map
          (fun (m : Ifko_analysis.Ptrinfo.moving) ->
            ( m.Ifko_analysis.Ptrinfo.array.Ifko_codegen.Lower.a_name,
              { Ifko_transform.Params.pf_ins = Some kind; pf_dist = dist } ))
          report.Ifko_analysis.Report.prefetch_arrays
    in
    let params =
      {
        Ifko_transform.Params.sv = sv && report.Ifko_analysis.Report.vectorizable;
        unroll;
        lc = true;
        ae;
        prefetch;
        wnt = wnt && report.Ifko_analysis.Report.output_arrays <> [];
        bf = 0;
        cisc = false;
      }
    in
    (* Hand-tuned code gets the two-array-indexing idiom FKO lacks; it
       must be applied before register allocation, so replicate the
       pipeline staging here. *)
    let c = Ifko_transform.Pipeline.snapshot compiled in
    if params.Ifko_transform.Params.sv then ignore (Ifko_transform.Simd.apply c : (unit, _) result);
    if unroll > 1 then ignore (Ifko_transform.Unroll.apply c unroll : (unit, _) result);
    if params.Ifko_transform.Params.prefetch <> [] then
      Ifko_transform.Prefetch_xform.apply c
        ~line_bytes:cfg.Config.prefetchable_line params.Ifko_transform.Params.prefetch;
    if params.Ifko_transform.Params.wnt then ignore (Ifko_transform.Ntwrite.apply c : (unit, _) result);
    if two_array then Ifko_transform.Ciscidx.apply c;
    Ifko_transform.Loopctl.apply c;
    if ae > 1 then ignore (Ifko_transform.Accexp.apply c ae : (unit, _) result);
    let f = c.Ifko_codegen.Lower.func in
    ignore
      (Ifko_transform.Pipeline.repeatable
         ~protect:(Ifko_transform.Pipeline.protected_labels c)
         f
        : int);
    ignore (Ifko_transform.Branchopt.run f : bool);
    Ifko_transform.Regalloc.run f;
    Validate.check_physical f;
    f
  in
  { cand_name = name; assembly = false; build }

(* ---------- all-assembly: block-fetch copy ---------- *)

(* AMD's block-fetch technique: fetch a whole block with one load per
   cache line, then copy it with non-temporal stores.  Batching all
   reads then all writes amortizes the bus turnaround that interleaved
   copying pays per line. *)
let block_fetch_copy id ~cfg ~pf:_ ~wnt:_ =
  let eb = Instr.fsize_bytes id.Defs.prec in
  let sz = id.Defs.prec in
  ignore cfg;
  let block_bytes = 4096 in
  let block_elems = block_bytes / eb in
  let f = Cfg.create ~name:(Defs.name id ^ "_bf") ~params:[] in
  let cnt = Cfg.fresh_reg f Reg.Gpr in
  let x = Cfg.fresh_reg f Reg.Gpr in
  let y = Cfg.fresh_reg f Reg.Gpr in
  let f = { f with Cfg.params = [ ("N", cnt); ("X", x); ("Y", y) ] } in
  let v = Array.init 4 (fun _ -> Cfg.fresh_reg f Reg.Xmm) in
  let t = Cfg.fresh_reg f Reg.Xmm in
  let c2 = Cfg.fresh_reg f Reg.Gpr in
  let mem ?(disp = 0) base = Instr.mk_mem ~disp base in
  (* entry *)
  let entry = Block.make "entry" ~term:(Block.Jmp "bfh") in
  (* block loop head *)
  let bfh =
    Block.make "bfh"
      ~term:
        (Block.Br
           { cmp = Instr.Lt; lhs = cnt; rhs = Instr.Oimm block_elems; ifso = "tailh";
             ifnot = "bfetch"; dec = 0 })
  in
  (* fetch phase: one load per 64-byte line of the block *)
  let fetch_instrs =
    List.init (block_bytes / 64) (fun k -> Instr.Fld (sz, t, mem ~disp:(k * 64) x))
  in
  let bfetch =
    Block.make "bfetch" ~instrs:(fetch_instrs @ [ Instr.Ildi (c2, block_bytes / 128) ])
      ~term:(Block.Jmp "cbody")
  in
  (* copy phase: 128 bytes per iteration, non-temporal stores *)
  let copy_instrs =
    List.concat
      (List.init 8 (fun j ->
           let d = j * 16 in
           [ Instr.Vld (sz, v.(j mod 4), mem ~disp:d x);
             Instr.Vstnt (sz, mem ~disp:d y, v.(j mod 4));
           ]))
    @ [ Instr.Iop (Instr.Iadd, x, x, Instr.Oimm 128);
        Instr.Iop (Instr.Iadd, y, y, Instr.Oimm 128);
      ]
  in
  let cbody =
    Block.make "cbody" ~instrs:copy_instrs
      ~term:
        (Block.Br
           { cmp = Instr.Ge; lhs = c2; rhs = Instr.Oimm 1; ifso = "cbody"; ifnot = "bfend";
             dec = 1 })
  in
  let bfend =
    Block.make "bfend"
      ~instrs:[ Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oimm block_elems) ]
      ~term:(Block.Jmp "bfh")
  in
  (* scalar tail *)
  let tailh =
    Block.make "tailh"
      ~term:
        (Block.Br
           { cmp = Instr.Lt; lhs = cnt; rhs = Instr.Oimm 1; ifso = "done"; ifnot = "tb";
             dec = 0 })
  in
  let tb =
    Block.make "tb"
      ~instrs:
        [ Instr.Fld (sz, t, mem x);
          Instr.Fst (sz, mem y, t);
          Instr.Iop (Instr.Iadd, x, x, Instr.Oimm eb);
          Instr.Iop (Instr.Iadd, y, y, Instr.Oimm eb);
          Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oimm 1);
        ]
      ~term:(Block.Jmp "tailh")
  in
  let done_ = Block.make "done" ~term:(Block.Ret None) in
  f.Cfg.blocks <- [ entry; bfh; bfetch; cbody; bfend; tailh; tb; done_ ];
  Ifko_transform.Regalloc.run f;
  Validate.check_physical f;
  f

(* ---------- all-assembly: compare-mask vectorized iamax ---------- *)

let vectorized_iamax id ~cfg ~pf ~wnt:_ =
  let eb = Instr.fsize_bytes id.Defs.prec in
  let sz = id.Defs.prec in
  ignore cfg;
  let veclen = Instr.lanes sz in
  let blk = 4 * veclen in
  let blkb = blk * eb in
  let f = Cfg.create ~name:(Defs.name id ^ "_sse") ~params:[] in
  let cnt = Cfg.fresh_reg f Reg.Gpr in
  let x = Cfg.fresh_reg f Reg.Gpr in
  let f = { f with Cfg.params = [ ("N", cnt); ("X", x) ] } in
  let iblk = Cfg.fresh_reg f Reg.Gpr in
  let imax = Cfg.fresh_reg f Reg.Gpr in
  let msk = Cfg.fresh_reg f Reg.Gpr in
  let j = Cfg.fresh_reg f Reg.Gpr in
  let amax = Cfg.fresh_reg f Reg.Xmm in
  let bmax = Cfg.fresh_reg f Reg.Xmm in
  let xs = Cfg.fresh_reg f Reg.Xmm in
  let xa = Cfg.fresh_reg f Reg.Xmm in
  let v = Array.init 4 (fun _ -> Cfg.fresh_reg f Reg.Xmm) in
  let m01 = v.(0) and m23 = v.(2) in
  let mem ?(disp = 0) ?index ?(scale = 1) base = Instr.mk_mem ?index ~scale ~disp base in
  let entry =
    Block.make "entry"
      ~instrs:
        [ Instr.Fldi (sz, amax, -1.0);
          Instr.Vldi (sz, bmax, -1.0);
          Instr.Ildi (imax, 0);
          Instr.Ildi (iblk, 0);
        ]
      ~term:(Block.Jmp "vh")
  in
  let vh =
    Block.make "vh"
      ~term:
        (Block.Br
           { cmp = Instr.Lt; lhs = cnt; rhs = Instr.Oimm blk; ifso = "th"; ifnot = "vb";
             dec = 0 })
  in
  let vb_instrs =
    (match pf with
    | Some (kind, dist) -> [ Instr.Prefetch (kind, mem ~disp:dist x) ]
    | None -> [])
    @ List.concat
        (List.init 4 (fun k ->
             [ Instr.Vld (sz, v.(k), mem ~disp:(k * 16) x);
               Instr.Vabs (sz, v.(k), v.(k));
             ]))
    @ [ Instr.Vop (sz, Instr.Fmax, m01, v.(0), v.(1));
        Instr.Vop (sz, Instr.Fmax, m23, v.(2), v.(3));
        Instr.Vop (sz, Instr.Fmax, m01, m01, m23);
        Instr.Vcmp (sz, Instr.Gt, m23, m01, bmax);
        Instr.Vmovmsk (sz, msk, m23);
      ]
  in
  let vb =
    Block.make "vb" ~instrs:vb_instrs
      ~term:
        (Block.Br
           { cmp = Instr.Ne; lhs = msk; rhs = Instr.Oimm 0; ifso = "rescan"; ifnot = "vnext";
             dec = 0 })
  in
  let vnext =
    Block.make "vnext"
      ~instrs:
        [ Instr.Iop (Instr.Iadd, x, x, Instr.Oimm blkb);
          Instr.Iop (Instr.Iadd, iblk, iblk, Instr.Oimm blk);
          Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oimm blk);
        ]
      ~term:(Block.Jmp "vh")
  in
  (* scalar rescan of the triggering block preserves first-index
     semantics exactly *)
  let rescan = Block.make "rescan" ~instrs:[ Instr.Ildi (j, 0) ] ~term:(Block.Jmp "rb") in
  let rb =
    Block.make "rb"
      ~instrs:
        [ Instr.Fld (sz, xs, mem ~index:j ~scale:eb x);
          Instr.Fabs (sz, xa, xs);
        ]
      ~term:
        (Block.Fbr
           { fsize = sz; cmp = Instr.Gt; lhs = xa; rhs = amax; ifso = "upd"; ifnot = "rnext" })
  in
  let upd =
    Block.make "upd"
      ~instrs:
        [ Instr.Fmov (sz, amax, xa);
          Instr.Vbcast (sz, bmax, amax);
          Instr.Iop (Instr.Iadd, imax, iblk, Instr.Oreg j);
        ]
      ~term:(Block.Jmp "rnext")
  in
  let rnext =
    Block.make "rnext"
      ~instrs:[ Instr.Iop (Instr.Iadd, j, j, Instr.Oimm 1) ]
      ~term:
        (Block.Br
           { cmp = Instr.Lt; lhs = j; rhs = Instr.Oimm blk; ifso = "rb"; ifnot = "vnext";
             dec = 0 })
  in
  (* scalar tail *)
  let th =
    Block.make "th"
      ~term:
        (Block.Br
           { cmp = Instr.Lt; lhs = cnt; rhs = Instr.Oimm 1; ifso = "done"; ifnot = "tb";
             dec = 0 })
  in
  let tb =
    Block.make "tb"
      ~instrs:
        [ Instr.Fld (sz, xs, mem x);
          Instr.Fabs (sz, xa, xs);
        ]
      ~term:
        (Block.Fbr
           { fsize = sz; cmp = Instr.Gt; lhs = xa; rhs = amax; ifso = "tupd"; ifnot = "tnext" })
  in
  let tupd =
    Block.make "tupd"
      ~instrs:[ Instr.Fmov (sz, amax, xa); Instr.Imov (imax, iblk) ]
      ~term:(Block.Jmp "tnext")
  in
  let tnext =
    Block.make "tnext"
      ~instrs:
        [ Instr.Iop (Instr.Iadd, x, x, Instr.Oimm eb);
          Instr.Iop (Instr.Iadd, iblk, iblk, Instr.Oimm 1);
          Instr.Iop (Instr.Isub, cnt, cnt, Instr.Oimm 1);
        ]
      ~term:(Block.Jmp "th")
  in
  let done_ = Block.make "done" ~term:(Block.Ret (Some imax)) in
  f.Cfg.blocks <- [ entry; vh; vb; vnext; rescan; rb; upd; rnext; th; tb; tupd; tnext; done_ ];
  Ifko_transform.Regalloc.run f;
  Validate.check_physical f;
  f

(* ---------- the collection ---------- *)

let candidates (id : Defs.kernel_id) =
  let base =
    [ pipeline_candidate ~name:"c_ref" ~sv:false ~unroll:4 ~ae:0 ~two_array:false id;
      pipeline_candidate ~name:"c_unroll" ~sv:false ~unroll:8 ~ae:3 ~two_array:false id;
      pipeline_candidate ~name:"sse" ~sv:true ~unroll:8 ~ae:4 ~two_array:true id;
      pipeline_candidate ~name:"sse_ur16" ~sv:true ~unroll:16 ~ae:2 ~two_array:true id;
    ]
  in
  match id.Defs.routine with
  | Defs.Copy ->
    base
    @ [ { cand_name = "block_fetch"; assembly = true; build = block_fetch_copy id } ]
  | Defs.Iamax ->
    base @ [ { cand_name = "sse_mask"; assembly = true; build = vectorized_iamax id } ]
  | Defs.Swap | Defs.Scal | Defs.Axpy | Defs.Dot | Defs.Asum -> base
