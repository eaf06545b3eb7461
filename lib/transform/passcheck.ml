(** Per-pass validation for the transformation pipeline.

    The paper's search only works because every candidate kernel is
    verified before it is timed; a transform bug otherwise either
    crashes the search point (wasting budget) or — far worse — yields a
    wrong-but-valid kernel the line search happily "tunes".  This
    module localizes such bugs to the exact pass that introduced them,
    two ways:

    - {b lint}: after each pass the {!Ifko_analysis.Lint} suite runs;
      any error-severity diagnostic fails the pass.
    - {b translation validation}: the kernel is executed (functionally,
      no timing model) on a small deterministic random workload before
      the pipeline starts, and re-executed after each pass; any output
      divergence beyond the FP-reassociation tolerance fails the pass.

    Both failures raise {!Pass_failed} carrying the pass name. *)

open Ifko_codegen

(** Captured observable behavior of one kernel run: the return value
    and the full contents of every array parameter. *)
type outputs = {
  ret : Ifko_sim.Exec.ret_val option;
  arrays : (string * float array) list;
}

type t = {
  envs : (unit -> Ifko_sim.Env.t) list;
      (** deterministic workload builders: calling one twice must
          produce identical initial environments, each a fresh one
          that {!capture} releases once read *)
  ret_fsize : Instr.fsize;
  tol : float;  (** relative tolerance for FP output comparison *)
  line_bytes : int;  (** prefetchable-cache line size, for IFK007 *)
}

type failure =
  | Lint of Ifko_analysis.Diag.t list  (** error-severity diagnostics *)
  | Semantics of string  (** translation-validation divergence *)

exception Pass_failed of { pass : string; failure : failure }

let failure_to_string = function
  | Lint diags -> Ifko_analysis.Diag.list_to_string diags
  | Semantics msg -> msg

let describe = function
  | Pass_failed { pass; failure } ->
    Some (Printf.sprintf "pass %s broke the kernel:\n%s" pass (failure_to_string failure))
  | _ -> None

let of_envs ?(tol = 1e-4) ~line_bytes ~ret_fsize envs = { envs; ret_fsize; tol; line_bytes }

(** [generic ~line_bytes compiled] builds a workload from the kernel's
    own signature: every int parameter bound to the problem size, every
    fp scalar to 0.77, every pointer to a seeded random vector — the
    same convention as the library's BLAS workloads. *)
let generic ?(sizes = [ 5; 34 ]) ?tol ~line_bytes (compiled : Lower.compiled) =
  let ret_fsize =
    match compiled.Lower.arrays with a :: _ -> a.Lower.a_elem | [] -> Instr.D
  in
  let make n () =
    let bytes =
      max (1 lsl 20) ((List.length compiled.Lower.arrays * n * 8) + (1 lsl 16))
    in
    let env = Ifko_sim.Env.create ~mem_bytes:bytes () in
    let rng = Ifko_util.Rng.create (n + 17) in
    List.iter
      (fun (p : Ifko_hil.Ast.param) ->
        let name = p.Ifko_hil.Ast.p_name in
        match p.Ifko_hil.Ast.p_ty with
        | Ifko_hil.Ast.Int -> Ifko_sim.Env.bind_int env name n
        | Ifko_hil.Ast.Fp fp ->
          let sz =
            match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D
          in
          Ifko_sim.Env.bind_fp env name sz 0.77
        | Ifko_hil.Ast.Ptr fp ->
          let sz =
            match fp with Ifko_hil.Ast.Single -> Instr.S | Ifko_hil.Ast.Double -> Instr.D
          in
          Ifko_sim.Env.alloc_array env name sz n;
          Ifko_sim.Env.fill env name (fun _ -> Ifko_util.Rng.sign_float rng 1.0))
      compiled.Lower.source.Ifko_hil.Ast.k_params;
    env
  in
  of_envs ?tol ~line_bytes ~ret_fsize (List.map make sizes)

(** [capture t ~pass compiled] runs the kernel on every workload and
    records its observable outputs.  A trap is attributed to [pass].
    Each workload's environment goes back to the buffer pool once its
    outputs are read, on a trap too. *)
let capture t ~pass (compiled : Lower.compiled) =
  let cf = Ifko_sim.Exec.compile compiled.Lower.func in
  List.map
    (fun make ->
      let env = make () in
      Fun.protect
        ~finally:(fun () -> Ifko_sim.Env.release env)
        (fun () ->
          match Ifko_sim.Exec.exec ~ret_fsize:t.ret_fsize cf env with
          | exception Ifko_sim.Exec.Trap msg ->
            raise
              (Pass_failed { pass; failure = Semantics (Printf.sprintf "trap: %s" msg) })
          | r ->
            {
              ret = r.Ifko_sim.Exec.ret;
              arrays =
                List.map
                  (fun (a : Lower.array_param) ->
                    (a.Lower.a_name, Ifko_sim.Env.to_array env a.Lower.a_name))
                  compiled.Lower.arrays;
            }))
    t.envs

let diff_outputs t ~workload (reference : outputs) (got : outputs) =
  let close = Ifko_sim.Verify.close ~tol:t.tol in
  let problem = ref None in
  let note fmt =
    Printf.ksprintf (fun msg -> if !problem = None then problem := Some msg) fmt
  in
  (match (reference.ret, got.ret) with
  | None, None -> ()
  | Some (Ifko_sim.Exec.Rint a), Some (Ifko_sim.Exec.Rint b) ->
    if a <> b then note "workload %d: return %d, expected %d" workload b a
  | Some (Ifko_sim.Exec.Rfp a), Some (Ifko_sim.Exec.Rfp b) ->
    if not (close a b) then note "workload %d: return %.17g, expected %.17g" workload b a
  | _ -> note "workload %d: return-value kind changed" workload);
  List.iter2
    (fun (name, ref_a) (_, got_a) ->
      if Array.length ref_a <> Array.length got_a then
        note "workload %d: array %s changed length" workload name
      else
        Array.iteri
          (fun i r ->
            if !problem = None && not (close r got_a.(i)) then
              note "workload %d: %s[%d] = %.17g, expected %.17g" workload name i got_a.(i) r)
          ref_a)
    reference.arrays got.arrays;
  !problem

(** [verify t ~pass ~reference compiled] runs the lint suite and the
    translation validation against [reference] (the outputs captured
    before the pipeline started), raising {!Pass_failed} naming [pass]
    on the first invariant it broke. *)
let verify t ~pass ~reference (compiled : Lower.compiled) =
  let diags =
    Ifko_analysis.Lint.check ~pass ~line_bytes:t.line_bytes compiled
  in
  (match Ifko_analysis.Diag.errors diags with
  | [] -> ()
  | errs -> raise (Pass_failed { pass; failure = Lint errs }));
  let got = capture t ~pass compiled in
  List.iteri
    (fun i (r, g) ->
      match diff_outputs t ~workload:i r g with
      | None -> ()
      | Some msg -> raise (Pass_failed { pass; failure = Semantics msg }))
    (List.combine reference got)
