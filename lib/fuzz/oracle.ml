open Ifko_codegen
module Rng = Ifko_util.Rng
module V = Ifko_sim.Verify

type verdict =
  | Agree
  | Rejected of string
  | Mismatch of { size : int; detail : string }

let default_sizes = [ 0; 1; 2; 3; 5; 8; 17; 34 ]

let ret_fsize (compiled : Lower.compiled) =
  match compiled.Lower.ret_ty with
  | Some (Ifko_hil.Ast.Fp Ifko_hil.Ast.Single) -> Instr.S
  | Some (Ifko_hil.Ast.Fp Ifko_hil.Ast.Double) -> Instr.D
  | Some _ | None -> (
    match compiled.Lower.arrays with a :: _ -> a.Lower.a_elem | [] -> Instr.D)

let make_env ~seed (compiled : Lower.compiled) n =
  let len = (2 * n) + 32 in
  let bytes =
    max (1 lsl 20) ((List.length compiled.Lower.arrays * len * 8) + (1 lsl 16))
  in
  let env = Ifko_sim.Env.create ~mem_bytes:bytes () in
  let rng = Rng.create (seed + (31 * n) + 17) in
  List.iter
    (fun (p : Ifko_hil.Ast.param) ->
      let name = p.Ifko_hil.Ast.p_name in
      match p.Ifko_hil.Ast.p_ty with
      | Ifko_hil.Ast.Int -> Ifko_sim.Env.bind_int env name n
      | Ifko_hil.Ast.Fp fp ->
        let sz =
          match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D
        in
        Ifko_sim.Env.bind_fp env name sz (Rng.sign_float rng 2.0)
      | Ifko_hil.Ast.Ptr fp ->
        let sz =
          match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D
        in
        Ifko_sim.Env.alloc_array env name sz len;
        Ifko_sim.Env.fill env name (fun _ -> Rng.sign_float rng 1.0))
    compiled.Lower.source.Ifko_hil.Ast.k_params;
  env

(* ULP budgets for reduction outputs: generous enough for any legal
   reassociation of the oracle's small problem sizes, tight enough that
   a wrong element, trip count or index diverges by orders of magnitude
   more (see DESIGN.md section 10). *)
let red_floor = function Instr.S -> 1e-3 | Instr.D -> 1e-6
let red_ulps = 65536L

let fp_ok ~tolerant fsize a b =
  if tolerant then V.close_reduction ~fsize ~ulps:red_ulps ~abs_floor:(red_floor fsize) a b
  else V.exact_fp a b

let compare_point ~tolerant ~strict_arrays ~rfs (compiled : Lower.compiled) env_ref env_opt
    (r_ref : Ifko_sim.Exec.result) (r_opt : Ifko_sim.Exec.result) =
  let mismatch = ref None in
  let note msg = if !mismatch = None then mismatch := Some msg in
  (match (r_ref.Ifko_sim.Exec.ret, r_opt.Ifko_sim.Exec.ret) with
  | None, None -> ()
  | Some (Ifko_sim.Exec.Rint a), Some (Ifko_sim.Exec.Rint b) ->
    if a <> b then note (Printf.sprintf "return: ref=%d got=%d" a b)
  | Some (Ifko_sim.Exec.Rfp a), Some (Ifko_sim.Exec.Rfp b) ->
    if not (fp_ok ~tolerant rfs a b) then
      note (Printf.sprintf "return: ref=%.17g got=%.17g" a b)
  | Some _, Some _ -> note "return: kind mismatch"
  | Some _, None -> note "return: transformed kernel returned nothing"
  | None, Some _ -> note "return: transformed kernel returned a value");
  (* When the dependence analysis proved every array reference
     independent, no legal transform may reassociate array contents —
     only the scalar reduction return can change shape.  The
     cross-check mode exploits that: array comparison drops to
     bit-exactness, so any tolerance-masked divergence convicts either
     a transform or the independence claim itself. *)
  let array_tolerant = tolerant && not strict_arrays in
  List.iter
    (fun (a : Lower.array_param) ->
      if !mismatch = None then begin
        let name = a.Lower.a_name in
        let xr = Ifko_sim.Env.to_array env_ref name in
        let xo = Ifko_sim.Env.to_array env_opt name in
        Array.iteri
          (fun i r ->
            if !mismatch = None && not (fp_ok ~tolerant:array_tolerant a.Lower.a_elem r xo.(i))
            then
              note (Printf.sprintf "array %s[%d]: ref=%.17g got=%.17g" name i r xo.(i)))
          xr
      end)
    compiled.Lower.arrays;
  !mismatch

let check ?(check_each_pass = false) ?(strict_arrays = false) ?inject
    ?(sizes = default_sizes) ~cfg ~seed (compiled : Lower.compiled)
    (params : Ifko_transform.Params.t) =
  let line_bytes = cfg.Ifko_machine.Config.prefetchable_line in
  let tolerant = Gen.has_fp_reduction compiled.Lower.source in
  let check =
    if check_each_pass then Some (Ifko_transform.Passcheck.generic ~line_bytes compiled)
    else None
  in
  match Ifko_transform.Pipeline.apply ?check ?inject ~line_bytes compiled params with
  | exception Ifko_transform.Passcheck.Pass_failed { pass; failure } ->
    Mismatch
      {
        size = -1;
        detail =
          Printf.sprintf "pass %s broke the kernel: %s" pass
            (Ifko_transform.Passcheck.failure_to_string failure);
      }
  | exception e -> Rejected (Printexc.to_string e)
  | opt ->
    let rfs = ret_fsize compiled in
    (* Decode each side once; the compiled form is reused across every
       oracle size. *)
    let cf_ref = Ifko_sim.Exec.compile compiled.Lower.func in
    let cf_opt = Ifko_sim.Exec.compile opt.Lower.func in
    let rec go = function
      | [] -> Agree
      | n :: rest -> (
        let env_ref = make_env ~seed compiled n in
        let env_opt = make_env ~seed compiled n in
        (* both environments are spent once compared, on a trap too *)
        let point =
          Fun.protect
            ~finally:(fun () ->
              Ifko_sim.Env.release env_ref;
              Ifko_sim.Env.release env_opt)
            (fun () ->
              match Ifko_sim.Exec.exec ~ret_fsize:rfs cf_ref env_ref with
              | exception Ifko_sim.Exec.Trap m ->
                Some (Rejected (Printf.sprintf "reference trap at n=%d: %s" n m))
              | r_ref -> (
                match Ifko_sim.Exec.exec ~ret_fsize:rfs cf_opt env_opt with
                | exception Ifko_sim.Exec.Trap m ->
                  Some (Mismatch { size = n; detail = Printf.sprintf "trap: %s" m })
                | r_opt ->
                  Option.map
                    (fun detail -> Mismatch { size = n; detail })
                    (compare_point ~tolerant ~strict_arrays ~rfs compiled env_ref env_opt
                       r_ref r_opt)))
        in
        match point with Some verdict -> verdict | None -> go rest)
    in
    go sizes
