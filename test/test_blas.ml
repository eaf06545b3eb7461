(* Reference implementation and workload tests. *)
open Ifko_blas

let test_names () =
  Alcotest.(check string) "sdot" "sdot"
    (Defs.name { Defs.routine = Defs.Dot; prec = Instr.S });
  Alcotest.(check string) "idamax" "idamax"
    (Defs.name { Defs.routine = Defs.Iamax; prec = Instr.D });
  Alcotest.(check int) "fourteen kernels" 14 (List.length Defs.all)

let test_ref_dot () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 32.0 (Ref_impl.dot Instr.D ~x ~y)

let test_ref_axpy () =
  let x = [| 1.0; 2.0 |] and y = [| 10.0; 20.0 |] in
  Ref_impl.axpy Instr.D ~alpha:2.0 ~x ~y;
  Alcotest.(check (float 1e-12)) "y0" 12.0 y.(0);
  Alcotest.(check (float 1e-12)) "y1" 24.0 y.(1)

let test_ref_swap_scal_copy () =
  let x = [| 1.0; 2.0 |] and y = [| 3.0; 4.0 |] in
  Ref_impl.swap ~x ~y;
  Alcotest.(check (float 0.0)) "swap x" 3.0 x.(0);
  Alcotest.(check (float 0.0)) "swap y" 1.0 y.(0);
  Ref_impl.scal Instr.D ~alpha:0.5 ~x;
  Alcotest.(check (float 0.0)) "scal" 1.5 x.(0);
  let z = Array.make 2 0.0 in
  Ref_impl.copy ~x ~y:z;
  Alcotest.(check (float 0.0)) "copy" 1.5 z.(0)

let test_ref_asum () =
  Alcotest.(check (float 1e-12)) "asum" 6.0 (Ref_impl.asum Instr.D ~x:[| 1.0; -2.0; 3.0 |])

let test_ref_iamax () =
  Alcotest.(check int) "simple" 1 (Ref_impl.iamax ~x:[| 1.0; -5.0; 3.0 |]);
  Alcotest.(check int) "first of equal maxima" 1 (Ref_impl.iamax ~x:[| 1.0; 5.0; -5.0 |]);
  Alcotest.(check int) "all zeros picks index 0" 0 (Ref_impl.iamax ~x:[| 0.0; 0.0 |]);
  Alcotest.(check int) "empty" 0 (Ref_impl.iamax ~x:[||])

let test_single_rounding_in_ref () =
  let x = Array.make 3 0.1 and y = Array.make 3 0.1 in
  let s = Ref_impl.dot Instr.S ~x ~y in
  Alcotest.(check (float 0.0)) "rounded per op" s
    (Int32.float_of_bits (Int32.bits_of_float s))

let test_workload_determinism () =
  let e1 = Workload.make_env { Defs.routine = Defs.Dot; prec = Instr.D } ~seed:5 100 in
  let e2 = Workload.make_env { Defs.routine = Defs.Dot; prec = Instr.D } ~seed:5 100 in
  Alcotest.(check bool) "same data" true
    (Ifko_sim.Env.to_array e1 "X" = Ifko_sim.Env.to_array e2 "X");
  let e3 = Workload.make_env { Defs.routine = Defs.Dot; prec = Instr.D } ~seed:6 100 in
  Alcotest.(check bool) "different seed" true
    (Ifko_sim.Env.to_array e1 "X" <> Ifko_sim.Env.to_array e3 "X")

let test_workload_bindings () =
  let id = { Defs.routine = Defs.Axpy; prec = Instr.S } in
  let env = Workload.make_env id ~seed:5 10 in
  (match Ifko_sim.Env.binding env "N" with
  | Ifko_sim.Env.Int_arg 10 -> ()
  | _ -> Alcotest.fail "N binding");
  (match Ifko_sim.Env.binding env "alpha" with
  | Ifko_sim.Env.Fp_arg (Instr.S, a) -> Alcotest.(check (float 0.0)) "alpha" Workload.alpha a
  | _ -> Alcotest.fail "alpha binding");
  match Ifko_sim.Env.binding env "Y" with
  | Ifko_sim.Env.Array_arg a -> Alcotest.(check int) "len" 10 a.Ifko_sim.Env.len
  | _ -> Alcotest.fail "Y binding"

let prop_expectation_matches_ref =
  QCheck.Test.make ~name:"expectation agrees with a recomputation" ~count:30
    QCheck.(pair (int_range 0 64) (int_range 0 1000))
    (fun (n, seed) ->
      let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
      let e = Workload.expectation id ~seed n in
      let x = Array.init n (fun i -> (List.assoc "X" e.Ifko_sim.Verify.arrays).(i)) in
      let y = Array.init n (fun i -> (List.assoc "Y" e.Ifko_sim.Verify.arrays).(i)) in
      match e.Ifko_sim.Verify.ret with
      | Some (Ifko_sim.Exec.Rfp d) -> Float.abs (d -. Ref_impl.dot Instr.D ~x ~y) < 1e-9
      | _ -> false)

let test_hil_sources_compile () =
  List.iter
    (fun id ->
      let c = Hil_sources.compile id in
      Alcotest.(check bool)
        (Defs.name id ^ " lowers with a loop")
        true
        (c.Ifko_codegen.Lower.loopnest <> None))
    Defs.all

(* Verify spends the environment it checks: its buffer goes back to the
   pool on a pass and on a mismatch, comes back scrubbed for the next
   same-size workload, and a spent environment fails closed. *)
let test_verify_releases_env () =
  let id = { Defs.routine = Defs.Axpy; prec = Instr.D } and seed = 5 and n = 257 in
  let cf = Ifko_sim.Exec.compile (Hil_sources.compile id).Ifko_codegen.Lower.func in
  let expect = Workload.expectation id ~seed n in
  let wrong =
    { expect with
      Ifko_sim.Verify.arrays =
        List.map (fun (k, a) -> (k, Array.map (fun v -> v +. 1.0) a)) expect.Ifko_sim.Verify.arrays
    }
  in
  let recycled what expectation ok =
    let env = Workload.make_env id ~seed n in
    let buf = Ifko_sim.Env.mem env in
    Alcotest.(check bool) (what ^ ": verdict") ok
      (Ifko_sim.Verify.check_compiled ~tol:(Workload.tolerance id ~n) ~ret_fsize:id.Defs.prec
         cf env expectation
      = Ok ());
    Alcotest.check_raises (what ^ ": spent env") (Invalid_argument "Env.release: environment already released")
      (fun () -> Ifko_sim.Env.release env);
    let next = Workload.make_env id ~seed n in
    Alcotest.(check bool) (what ^ ": same buffer back") true (Ifko_sim.Env.mem next == buf);
    next
  in
  Ifko_sim.Env.release (recycled "mismatch" wrong false);
  let env = recycled "pass" expect true in
  (* everything the kernel wrote outside the bound arrays was scrubbed *)
  let mem = Ifko_sim.Env.mem env in
  let inside = Array.make (Bytes.length mem) false in
  List.iter
    (fun (_, b) ->
      match b with
      | Ifko_sim.Env.Array_arg { addr; len; fsize } ->
        Array.fill inside addr (len * Instr.fsize_bytes fsize) true
      | Ifko_sim.Env.Int_arg _ | Ifko_sim.Env.Fp_arg _ -> ())
    (Ifko_sim.Env.bindings env);
  let stray = ref 0 in
  Bytes.iteri (fun i c -> if (not inside.(i)) && c <> '\000' then incr stray) mem;
  Alcotest.(check int) "zero outside the bound arrays" 0 !stray;
  Ifko_sim.Env.release env;
  Alcotest.check_raises "double release" (Invalid_argument "Env.release: environment already released")
    (fun () -> Ifko_sim.Env.release env);
  Alcotest.check_raises "to_array after release" (Invalid_argument "Env: environment already released")
    (fun () -> ignore (Ifko_sim.Env.to_array env "Y" : float array));
  Alcotest.check_raises "get_elem after release" (Invalid_argument "Env: environment already released")
    (fun () -> ignore (Ifko_sim.Env.get_elem env "Y" 0 : float))

(* The generic tester holds a candidate to the reference's return: a
   ddot whose return register was dropped fails, however equal its
   arrays are. *)
let test_generic_rejects_dropped_return () =
  let compiled = Hil_sources.compile { Defs.routine = Defs.Dot; prec = Instr.D } in
  let spec = Ifko_search.Generic.spec compiled in
  let test = Ifko_search.Generic.test compiled spec in
  let dropped = Cfg.copy compiled.Ifko_codegen.Lower.func in
  let returns = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Block.Ret (Some _) ->
        incr returns;
        b.Block.term <- Block.Ret None
      | _ -> ())
    dropped.Cfg.blocks;
  Alcotest.(check bool) "ddot returns a value" true (!returns > 0);
  Alcotest.(check bool) "the reference passes" true (test compiled.Ifko_codegen.Lower.func);
  Alcotest.(check bool) "the dropped return fails" false (test dropped)

let suite =
  [ Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "ref dot" `Quick test_ref_dot;
    Alcotest.test_case "ref axpy" `Quick test_ref_axpy;
    Alcotest.test_case "ref swap/scal/copy" `Quick test_ref_swap_scal_copy;
    Alcotest.test_case "ref asum" `Quick test_ref_asum;
    Alcotest.test_case "ref iamax" `Quick test_ref_iamax;
    Alcotest.test_case "single rounding" `Quick test_single_rounding_in_ref;
    Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
    Alcotest.test_case "workload bindings" `Quick test_workload_bindings;
    QCheck_alcotest.to_alcotest prop_expectation_matches_ref;
    Alcotest.test_case "generic test needs the return" `Quick
      test_generic_rejects_dropped_return;
    Alcotest.test_case "HIL sources compile" `Quick test_hil_sources_compile;
    Alcotest.test_case "verify releases its env" `Quick test_verify_releases_env;
  ]
