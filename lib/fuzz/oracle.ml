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

let make_env ~seed compiled n =
  Ifko_search.Generic.make_env ~seed ~len:((2 * n) + 32)
    ~scalar:(fun rng -> Rng.sign_float rng 2.0)
    compiled n

(* ULP budgets for reduction outputs: generous enough for any legal
   reassociation of the oracle's small problem sizes, tight enough that
   a wrong element, trip count or index diverges by orders of magnitude
   more (see DESIGN.md section 10). *)
let red_floor = function Instr.S -> 1e-3 | Instr.D -> 1e-6
let red_ulps = 65536L

let fp_ok ~tolerant fsize a b =
  if tolerant then V.close_reduction ~fsize ~ulps:red_ulps ~abs_floor:(red_floor fsize) a b
  else V.exact_fp a b

let check ?(check_each_pass = false) ?(strict_arrays = false) ?inject
    ?(sizes = default_sizes) ~cfg ~seed (compiled : Lower.compiled)
    (params : Ifko_transform.Params.t) =
  let line_bytes = cfg.Ifko_machine.Config.prefetchable_line in
  let tolerant = Gen.has_fp_reduction compiled.Lower.source in
  let check =
    if check_each_pass then
      Some (Ifko_transform.Passcheck.of_spec ~line_bytes (Ifko_search.Generic.spec compiled))
    else None
  in
  match Ifko_transform.Pipeline.apply ?check ?inject ~line_bytes compiled params with
  | exception Ifko_transform.Passcheck.Pass_failed { pass; failure } ->
    Mismatch { size = -1; detail = Ifko_transform.Passcheck.describe ~pass failure }
  | exception e -> Rejected (Printexc.to_string e)
  | opt ->
    let ret_fsize = ret_fsize compiled in
    (* When the dependence analysis proved every array reference
       independent, no legal transform may reassociate array contents —
       only the scalar reduction return can change shape.  The
       cross-check mode exploits that: array comparison drops to
       bit-exactness, so any tolerance-masked divergence convicts either
       a transform or the independence claim itself. *)
    let array_tolerant = tolerant && not strict_arrays in
    let elems =
      List.map
        (fun (a : Lower.array_param) -> (a.Lower.a_name, a.Lower.a_elem))
        compiled.Lower.arrays
    in
    let close = function
      | None -> fp_ok ~tolerant ret_fsize
      | Some name -> fp_ok ~tolerant:array_tolerant (List.assoc name elems)
    in
    let arrays = List.map fst elems in
    (* Decode each side once; the compiled form is reused across every
       oracle size.  Verify.outputs spends each environment, on a trap
       too. *)
    let run cf n = V.outputs ~ret_fsize ~arrays cf (make_env ~seed compiled n) in
    let cf_ref = Ifko_sim.Exec.compile compiled.Lower.func in
    let cf_opt = Ifko_sim.Exec.compile opt.Lower.func in
    let rec go = function
      | [] -> Agree
      | n :: rest -> (
        match run cf_ref n with
        | Error msg -> Rejected (Printf.sprintf "reference at n=%d: %s" n msg)
        | Ok expected -> (
          match run cf_opt n with
          | Error detail -> Mismatch { size = n; detail }
          | Ok got -> (
            match V.mismatch ~close ~expected got with
            | None -> go rest
            | Some detail -> Mismatch { size = n; detail })))
    in
    go sizes
