(* Tuning a kernel that is NOT one of the shipped BLAS.

     dune exec examples/custom_kernel.exe

   The point of putting the search inside the compiler (rather than a
   library generator) is that "almost any floating point kernel" can be
   tuned.  Here we tune two kernels the library has never seen:

   - a Stream-style triad   z[i] = x[i] + alpha * y[i]
   - a squared-norm reduction  nrm += x[i] * x[i]

   Ifko.Generic builds the workload from each kernel's signature, and
   its tester compares the transformed code against the *untransformed*
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

let tune_and_report name source flops_per_n =
  Printf.printf "== %s ==\n%!" name;
  let compiled = Ifko.compile_source source in
  print_string (Ifko.Report.to_string (Ifko.analyze compiled));
  List.iter
    (fun cfg ->
      let spec = Ifko.Generic.spec compiled in
      let tuned =
        Ifko.tune ~cfg ~context:Ifko.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n
          ~test:(Ifko.Generic.test compiled spec) compiled
      in
      Printf.printf "%-8s FKO %7.1f -> ifko %7.1f MFLOPS (%.2fx)   %s\n%!"
        cfg.Ifko.Config.name tuned.Ifko.Driver.fko_mflops tuned.Ifko.Driver.ifko_mflops
        (tuned.Ifko.Driver.ifko_mflops /. tuned.Ifko.Driver.fko_mflops)
        (Ifko.Params.to_string tuned.Ifko.Driver.best_params))
    [ Ifko.Config.p4e; Ifko.Config.opteron ];
  print_newline ()

let () =
  tune_and_report "striad (stream triad)" triad_source 2.0;
  tune_and_report "dnrm2sq (squared norm)" nrm2sq_source 2.0
