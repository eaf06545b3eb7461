(** The fail-closed legality oracle for the transform pipeline.

    Each query answers "may this transform run on this kernel as it
    stands right now?" from {!Depend}'s dependence verdicts instead of
    the transforms' historical syntactic guards.  The contract is
    fail-closed: anything the analysis cannot prove is illegal, and
    every rejection carries a {!Diag} (code IFK012) naming the pass
    and the obstruction, so both `ifko lint` and the search log can
    explain why a point was never materialized.

    A transform must consult the oracle on its {e input} — legality of
    unrolling after vectorization is a property of the vectorized
    code — so the queries re-analyze rather than cache across
    passes. *)

open Ifko_codegen

(* The dependence analysis runs only for the queries that read it (SV,
   WNT, the report): UR and AE check loop bookkeeping alone, and
   analyzing the unrolled body for them was most of their cost.  A [t]
   is built and queried within one transform call, never shared
   between domains, so a [Lazy] is safe here. *)
type t = { depend : Depend.t Lazy.t; compiled : Lower.compiled }

let analyze (compiled : Lower.compiled) =
  { depend = lazy (Depend.analyze compiled); compiled }

let depend t = Lazy.force t.depend

let reject pass fmt = Diag.warning ~pass "IFK012" fmt

let describe (p : Depend.pair) =
  Printf.sprintf "%s vs %s: %s"
    (Depend.access_name p.Depend.src)
    (Depend.access_name p.Depend.dst)
    (Depend.relation_to_string p.Depend.relation)

(** SIMD vectorization executes [lanes] iterations at once: every pair
    of references must be proven independent or loop-independent
    (distance 0).  A carried dependence, an unproven pair (MAYALIAS,
    non-affine) or an unanalyzable loop refuses. *)
let vectorize t =
  let d = depend t in
  if not d.Depend.has_loop then
    Error
      (reject "SV" "loop nest %s: vectorization legality cannot be established"
         (if d.Depend.stale then "labels are stale" else "not analyzable"))
  else
    match Depend.blocking d with
    | [] -> Ok ()
    | p :: _ -> Error (reject "SV" "dependence blocks vectorization: %s" (describe p))

let fresh_and_consistent pass t =
  match t.compiled.Lower.loopnest with
  | None -> Ok () (* nothing to transform: the pass no-ops *)
  | Some _ ->
    if Depend.stale t.compiled then
      Error
        (reject pass "loop-nest labels are stale; the transform cannot locate the loop")
    else (
      match Depend.stride_contradictions t.compiled with
      | [] -> Ok ()
      | (m, why) :: _ ->
        Error (reject pass "array %s: %s" m.Ptrinfo.array.Lower.a_name why))

(** Unrolling folds pointer bumps into displacements: the loop nest
    must be locatable and the syntactic strides trustworthy. *)
let unroll t = fresh_and_consistent "UR" t

(** Accumulator expansion re-associates a reduction over a ring of
    registers; it relies on the same loop bookkeeping. *)
let accexp t = fresh_and_consistent "AE" t

(** Non-temporal stores are only sound as pure streaming stores: every
    store in the loop must be a proven affine reference, and no output
    array may carry the MAYALIAS mark-up (an aliased reader could
    observe the weaker ordering). *)
let ntwrite t =
  let d = depend t in
  let outputs =
    List.filter (fun (a : Lower.array_param) -> a.Lower.a_output) t.compiled.Lower.arrays
  in
  if outputs = [] then Ok () (* nothing to rewrite: the pass no-ops *)
  else if not d.Depend.has_loop then
    Error
      (reject "WNT" "loop nest %s: streaming stores cannot be proven"
         (if d.Depend.stale then "labels are stale" else "not analyzable"))
  else (
    match
      List.find_opt (fun (a : Lower.array_param) -> a.Lower.a_mayalias) outputs
    with
    | Some a ->
      Error
        (reject "WNT" "output array %s carries MAYALIAS; refusing non-temporal stores"
           a.Lower.a_name)
    | None -> (
      match
        List.find_opt
          (fun (a : Depend.access) -> a.Depend.store && a.Depend.affine = None)
          d.Depend.accesses
      with
      | Some a ->
        Error
          (reject "WNT" "%s is not a proven streaming store" (Depend.access_name a))
      | None -> Ok ()))
