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
      no timing model) on the tune's own workload at two small sizes
      before the pipeline starts, and re-executed after each pass; any
      output divergence beyond the FP-reassociation tolerance fails the
      pass.  Running and comparing go through {!Ifko_sim.Verify}, the
      tester every other check uses.

    Both failures raise {!Pass_failed} carrying the pass name. *)

open Ifko_codegen

type t = {
  spec : Ifko_sim.Timer.spec;
      (** the tune's deterministic workload builder; {!capture} runs
          it at {!sizes} *)
  line_bytes : int;  (** prefetchable-cache line size, for IFK007 *)
}

type failure =
  | Lint of Ifko_analysis.Diag.t list  (** error-severity diagnostics *)
  | Semantics of string  (** translation-validation divergence *)

exception Pass_failed of { pass : string; failure : failure }

let describe ~pass failure =
  Printf.sprintf "pass %s broke the kernel: %s" pass
    (match failure with
    | Lint diags -> Ifko_analysis.Diag.list_to_string diags
    | Semantics msg -> msg)

(* Small deterministic workloads: a remainder-heavy size and one
   spanning several unrolled bodies.  The tolerance admits
   FP reassociation by vectorization and accumulator expansion. *)
let sizes = [ 5; 34 ]
let close _ = Ifko_sim.Verify.close ~tol:1e-4

let of_spec ~line_bytes spec = { spec; line_bytes }

(** [capture t ~pass compiled] runs the kernel at every workload size
    and records its observable outputs: the return value and every
    array parameter.  A trap is attributed to [pass]. *)
let capture t ~pass (compiled : Lower.compiled) =
  let cf = Ifko_sim.Exec.compile compiled.Lower.func in
  let arrays =
    List.map (fun (a : Lower.array_param) -> a.Lower.a_name) compiled.Lower.arrays
  in
  List.map
    (fun n ->
      match
        Ifko_sim.Verify.outputs ~ret_fsize:t.spec.Ifko_sim.Timer.ret_fsize ~arrays cf
          (t.spec.Ifko_sim.Timer.make_env n)
      with
      | Ok got -> got
      | Error msg ->
        raise (Pass_failed { pass; failure = Semantics (Printf.sprintf "n=%d: %s" n msg) }))
    sizes

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
  List.iter2
    (fun (n, expected) got ->
      match Ifko_sim.Verify.mismatch ~close ~expected got with
      | None -> ()
      | Some msg ->
        raise (Pass_failed { pass; failure = Semantics (Printf.sprintf "n=%d: %s" n msg) }))
    (List.combine sizes reference) (capture t ~pass compiled)
