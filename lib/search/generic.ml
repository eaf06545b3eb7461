(* Generic workload builder and tester for arbitrary user kernels,
   derived from the kernel's own signature.  Shared by `ifko tune`,
   `ifko sim` and the serve daemon so that every entry point produces
   the same workloads — and therefore the same content-addressed store
   keys — for the same (kernel, seed). *)

(* [seed] makes the random vectors reproducible — and is the seed the
   tuning store keys on, so journaled results never alias across
   workloads.  Every `ptr` parameter binds to a fresh random vector of
   length N, every int parameter to N, every fp parameter to 0.77 —
   matching the library's BLAS workloads. *)
let spec ?(seed = 0) (compiled : Ifko_codegen.Lower.compiled) =
  let prec =
    match compiled.Ifko_codegen.Lower.arrays with
    | a :: _ -> a.Ifko_codegen.Lower.a_elem
    | [] -> Instr.D
  in
  let make_env n =
    let bytes =
      max (1 lsl 20)
        ((List.length compiled.Ifko_codegen.Lower.arrays * n * 8) + (1 lsl 16))
    in
    let env = Ifko_sim.Env.create ~mem_bytes:bytes () in
    let rng = Ifko_util.Rng.create (seed + (31 * n) + 17) in
    List.iter
      (fun (p : Ifko_hil.Ast.param) ->
        match p.Ifko_hil.Ast.p_ty with
        | Ifko_hil.Ast.Int -> Ifko_sim.Env.bind_int env p.Ifko_hil.Ast.p_name n
        | Ifko_hil.Ast.Fp fp ->
          Ifko_sim.Env.bind_fp env p.Ifko_hil.Ast.p_name
            (match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D)
            0.77
        | Ifko_hil.Ast.Ptr fp ->
          let sz =
            match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D
          in
          Ifko_sim.Env.alloc_array env p.Ifko_hil.Ast.p_name sz n;
          Ifko_sim.Env.fill env p.Ifko_hil.Ast.p_name (fun _ ->
              Ifko_util.Rng.sign_float rng 1.0))
      compiled.Ifko_codegen.Lower.source.Ifko_hil.Ast.k_params;
    env
  in
  { Ifko_sim.Timer.make_env; ret_fsize = prec }

(* The untransformed lowering is the semantic reference for arbitrary
   user kernels.  The reference side is decoded once per tune, each
   candidate once per test — not once per test size.  Both environments
   of a size are spent once their outputs are read, so they go back to
   the buffer pool on every path. *)
let test (compiled : Ifko_codegen.Lower.compiled) spec =
  let cf_ref = Ifko_sim.Exec.compile compiled.Ifko_codegen.Lower.func in
  fun func ->
    let cf_opt = Ifko_sim.Exec.compile func in
    List.for_all
      (fun n ->
        let env_ref = spec.Ifko_sim.Timer.make_env n in
        let env_opt = spec.Ifko_sim.Timer.make_env n in
        Fun.protect
          ~finally:(fun () ->
            Ifko_sim.Env.release env_ref;
            Ifko_sim.Env.release env_opt)
          (fun () ->
            match
              ( Ifko_sim.Exec.exec ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize cf_ref env_ref,
                Ifko_sim.Exec.exec ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize cf_opt env_opt )
            with
            | exception Ifko_sim.Exec.Trap _ -> false
            | r_ref, r_opt ->
              let rets_ok =
                match (r_ref.Ifko_sim.Exec.ret, r_opt.Ifko_sim.Exec.ret) with
                | None, None -> true
                | Some (Ifko_sim.Exec.Rint a), Some (Ifko_sim.Exec.Rint b) -> a = b
                | Some (Ifko_sim.Exec.Rfp a), Some (Ifko_sim.Exec.Rfp b) ->
                  Ifko_sim.Verify.close ~tol:1e-4 a b
                | _ -> false
              in
              rets_ok
              && List.for_all
                   (fun (a : Ifko_codegen.Lower.array_param) ->
                     let xa = Ifko_sim.Env.to_array env_ref a.Ifko_codegen.Lower.a_name in
                     let xb = Ifko_sim.Env.to_array env_opt a.Ifko_codegen.Lower.a_name in
                     Array.for_all2 (fun u v -> Ifko_sim.Verify.close ~tol:1e-4 u v) xa xb)
                   compiled.Ifko_codegen.Lower.arrays))
      [ 0; 1; 7; 130 ]
