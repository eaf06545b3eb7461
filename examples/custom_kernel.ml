(* Tuning a kernel that is NOT one of the shipped BLAS.

     dune exec examples/custom_kernel.exe

   The point of putting the search inside the compiler (rather than a
   library generator) is that "almost any floating point kernel" can be
   tuned.  Here we tune two kernels the library has never seen:

   - a Stream-style triad   z[i] = x[i] + alpha * y[i]
   - a squared-norm reduction  nrm += x[i] * x[i]

   The tester compares the transformed code against the *untransformed*
   lowering, so no hand-written reference is needed. *)

let triad_source =
  {|KERNEL striad(N : int, alpha : single, X : ptr single, Y : ptr single, Z : ptr single OUTPUT)
VARS
  x, y, z : single;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    z = x + alpha * y;
    Z[0] = z;
    X += 1;
    Y += 1;
    Z += 1;
  LOOP_END
END
|}

let nrm2sq_source =
  {|KERNEL dnrm2sq(N : int, X : ptr double) RETURNS double
VARS
  nrm : double = 0.0;
  x : double;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    nrm += x * x;
    X += 1;
  LOOP_END
  RETURN nrm;
END
|}

(* Build a deterministic workload from the kernel's own signature. *)
let spec_for (compiled : Ifko.Lower.compiled) ~prec =
  let make_env n =
    let env = Ifko.Env.create ~mem_bytes:(4 * 1024 * 1024) () in
    let rng = Ifko_util.Rng.create (n + 99) in
    List.iter
      (fun (p : Ifko.Hil.Ast.param) ->
        match p.Ifko.Hil.Ast.p_ty with
        | Ifko.Hil.Ast.Int -> Ifko.Env.bind_int env p.Ifko.Hil.Ast.p_name n
        | Ifko.Hil.Ast.Fp _ -> Ifko.Env.bind_fp env p.Ifko.Hil.Ast.p_name prec 0.6
        | Ifko.Hil.Ast.Ptr _ ->
          Ifko.Env.alloc_array env p.Ifko.Hil.Ast.p_name prec n;
          Ifko.Env.fill env p.Ifko.Hil.Ast.p_name (fun _ -> Ifko_util.Rng.sign_float rng 1.0))
      compiled.Ifko.Lower.source.Ifko.Hil.Ast.k_params;
    env
  in
  { Ifko.Timer.make_env; ret_fsize = prec }

(* Differential tester: optimized code vs. the naive lowering.  Both
   environments are spent once compared and go back to the buffer pool,
   so a tune does not allocate fresh ones per probe. *)
let differential_test (compiled : Ifko.Lower.compiled) spec func =
  List.for_all
    (fun n ->
      let e1 = spec.Ifko.Timer.make_env n and e2 = spec.Ifko.Timer.make_env n in
      Fun.protect
        ~finally:(fun () ->
          Ifko.Env.release e1;
          Ifko.Env.release e2)
        (fun () ->
          match
            ( Ifko.Exec.run ~ret_fsize:spec.Ifko.Timer.ret_fsize compiled.Ifko.Lower.func e1,
              Ifko.Exec.run ~ret_fsize:spec.Ifko.Timer.ret_fsize func e2 )
          with
          | exception Ifko.Exec.Trap _ -> false
          | r1, r2 ->
            (match (r1.Ifko.Exec.ret, r2.Ifko.Exec.ret) with
            | Some (Ifko.Exec.Rfp a), Some (Ifko.Exec.Rfp b) -> Ifko.Verify.close ~tol:1e-3 a b
            | None, None -> true
            | _ -> false)
            && List.for_all
                 (fun (a : Ifko.Lower.array_param) ->
                   let xa = Ifko.Env.to_array e1 a.Ifko.Lower.a_name in
                   let xb = Ifko.Env.to_array e2 a.Ifko.Lower.a_name in
                   Array.for_all2 (fun u v -> Ifko.Verify.close ~tol:1e-3 u v) xa xb)
                 compiled.Ifko.Lower.arrays))
    [ 0; 1; 9; 250 ]

let tune_and_report name source prec flops_per_n =
  Printf.printf "== %s ==\n%!" name;
  let compiled = Ifko.compile_source source in
  print_string (Ifko.Report.to_string (Ifko.analyze compiled));
  List.iter
    (fun cfg ->
      let spec = spec_for compiled ~prec in
      let tuned =
        Ifko.tune ~cfg ~context:Ifko.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n
          ~test:(differential_test compiled spec) compiled
      in
      Printf.printf "%-8s FKO %7.1f -> ifko %7.1f MFLOPS (%.2fx)   %s\n%!"
        cfg.Ifko.Config.name tuned.Ifko.Driver.fko_mflops tuned.Ifko.Driver.ifko_mflops
        (tuned.Ifko.Driver.ifko_mflops /. tuned.Ifko.Driver.fko_mflops)
        (Ifko.Params.to_string tuned.Ifko.Driver.best_params))
    [ Ifko.Config.p4e; Ifko.Config.opteron ];
  print_newline ()

let () =
  tune_and_report "striad (stream triad)" triad_source Instr.S 2.0;
  tune_and_report "dnrm2sq (squared norm)" nrm2sq_source Instr.D 2.0
