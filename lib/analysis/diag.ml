(** Structured diagnostics for the static-analysis suite.

    Every checker in {!Lint} and every per-pass validation failure in
    the transformation pipeline reports through this type instead of
    raising on first failure, so a single run can surface everything
    that is wrong with a kernel and name the pass that introduced it.

    Diagnostic codes (stable, for tests and grepping):
    - [IFK001] malformed CFG (duplicate label, unknown branch target,
      missing return, empty function)
    - [IFK002] malformed instruction (operand register class, memory
      scale, vector lane range, negative fused decrement)
    - [IFK003] virtual register used before any definition reaches it
    - [IFK004] dead store: a register definition never read
    - [IFK005] block unreachable from the entry
    - [IFK006] 16-byte vector memory access that cannot be aligned
    - [IFK007] suspicious prefetch distance vs the loop's advance
    - [IFK008] register pressure exceeds the architectural file
    - [IFK009] repeatable-transform fixpoint not reached
    - [IFK010] provably out-of-bounds access: an unguarded affine
      reference reads or writes below its array base
    - [IFK011] overlapping write ranges: two stores (or one store
      across iterations) hit the same bytes
    - [IFK012] legality rejection: the {!Legality} oracle refused a
      requested transform (fail-closed; the point compiles without it)
    - [IFK013] array demoted from prefetch: its pointer moves
      irregularly, so no stride can be attributed
    - [IFK014] stride/interval contradiction between {!Ptrinfo}'s
      syntactic strides and {!Absint}'s inferred congruences — or
      stale loop-nest bookkeeping (info), which silently disables every
      loop-aware analysis *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  pass : string option;  (** transformation pass that produced the code *)
  block : string option;  (** block label the diagnostic anchors to *)
  instr : int option;  (** 0-based instruction index within the block *)
  message : string;
}

let make ?pass ?block ?instr severity code message =
  { severity; code; pass; block; instr; message }

let error ?pass ?block ?instr code fmt =
  Printf.ksprintf (make ?pass ?block ?instr Error code) fmt

let warning ?pass ?block ?instr code fmt =
  Printf.ksprintf (make ?pass ?block ?instr Warning code) fmt

let info ?pass ?block ?instr code fmt =
  Printf.ksprintf (make ?pass ?block ?instr Info code) fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(** Errors first, then warnings, then infos; stable within a rank so
    checkers' own ordering (block order) is preserved. *)
let sort diags =
  List.stable_sort (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity)) diags

let errors diags = List.filter (fun d -> d.severity = Error) diags
let is_clean diags = errors diags = []

let to_string d =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%s[%s]" (severity_name d.severity) d.code);
  Option.iter (fun p -> Buffer.add_string buf (Printf.sprintf " after %s" p)) d.pass;
  (match (d.block, d.instr) with
  | Some b, Some i -> Buffer.add_string buf (Printf.sprintf " %s:%d" b i)
  | Some b, None -> Buffer.add_string buf (Printf.sprintf " %s" b)
  | None, _ -> ());
  Buffer.add_string buf ": ";
  Buffer.add_string buf d.message;
  Buffer.contents buf

let list_to_string diags =
  String.concat "\n" (List.map to_string (sort diags))

(* ---------- machine-readable output ---------- *)

(** One flat JSON object per diagnostic: [severity], [code], [pass],
    [block], [instr] (null when absent) and [message] — the contract of
    [ifko lint --json]. *)
let to_json_value d =
  let str_or_null = function Some s -> Ifko_util.Json.S s | None -> Ifko_util.Json.Null in
  Ifko_util.Json.O
    [ ("severity", S (severity_name d.severity));
      ("code", S d.code);
      ("pass", str_or_null d.pass);
      ("block", str_or_null d.block);
      ("instr", match d.instr with Some i -> N (float_of_int i) | None -> Null);
      ("message", S d.message);
    ]

let to_json d = Ifko_util.Json.render_value (to_json_value d)

let list_to_json diags =
  Ifko_util.Json.render_value (A (List.map to_json_value (sort diags)))