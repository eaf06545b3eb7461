(* Generic workload builder and tester for arbitrary user kernels,
   derived from the kernel's own signature.  Shared by `ifko tune`,
   `ifko sim` and the serve daemon so that every entry point produces
   the same workloads — and therefore the same content-addressed store
   keys — for the same (kernel, seed). *)

let make_env ~seed ~len ~scalar (compiled : Ifko_codegen.Lower.compiled) n =
  let bytes =
    max (1 lsl 20) ((List.length compiled.Ifko_codegen.Lower.arrays * len * 8) + (1 lsl 16))
  in
  let env = Ifko_sim.Env.create ~mem_bytes:bytes () in
  let rng = Ifko_util.Rng.create (seed + (31 * n) + 17) in
  let size = function Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D in
  List.iter
    (fun (p : Ifko_hil.Ast.param) ->
      let name = p.Ifko_hil.Ast.p_name in
      match p.Ifko_hil.Ast.p_ty with
      | Ifko_hil.Ast.Int -> Ifko_sim.Env.bind_int env name n
      | Ifko_hil.Ast.Fp fp -> Ifko_sim.Env.bind_fp env name (size fp) (scalar rng)
      | Ifko_hil.Ast.Ptr fp ->
        Ifko_sim.Env.alloc_array env name (size fp) len;
        Ifko_sim.Env.fill env name (fun _ -> Ifko_util.Rng.sign_float rng 1.0))
    compiled.Ifko_codegen.Lower.source.Ifko_hil.Ast.k_params;
  env

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
  let make_env n = make_env ~seed ~len:n ~scalar:(fun _ -> 0.77) compiled n in
  { Ifko_sim.Timer.make_env; ret_fsize = prec }

(* The untransformed lowering is the semantic reference for arbitrary
   user kernels.  The reference side is decoded once per tune, each
   candidate once per test — not once per test size.  Verify.outputs
   spends each environment once its outputs are read. *)
let test (compiled : Ifko_codegen.Lower.compiled) spec =
  let arrays =
    List.map (fun a -> a.Ifko_codegen.Lower.a_name) compiled.Ifko_codegen.Lower.arrays
  in
  let run cf n =
    Ifko_sim.Verify.outputs ~ret_fsize:spec.Ifko_sim.Timer.ret_fsize ~arrays cf
      (spec.Ifko_sim.Timer.make_env n)
  in
  let close _ = Ifko_sim.Verify.close ~tol:1e-4 in
  let cf_ref = Ifko_sim.Exec.compile compiled.Ifko_codegen.Lower.func in
  fun func ->
    let cf_opt = Ifko_sim.Exec.compile func in
    List.for_all
      (fun n ->
        match run cf_ref n with
        | Error _ -> false
        | Ok expected -> (
          match run cf_opt n with
          | Error _ -> false
          | Ok got -> Ifko_sim.Verify.mismatch ~close ~expected got = None))
      [ 0; 1; 7; 130 ]
