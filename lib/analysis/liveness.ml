(** Per-block liveness, as an instance of the generic {!Dataflow}
    engine: a backward may-analysis over register sets. *)

(* use/def summary of a whole block: [uses] are registers read before
   any write inside the block; [defs] are all registers written. *)
let block_summary (b : Block.t) =
  let uses = ref Reg.Set.empty and defs = ref Reg.Set.empty in
  let use r = if not (Reg.Set.mem r !defs) then uses := Reg.Set.add r !uses in
  let def r = defs := Reg.Set.add r !defs in
  List.iter
    (fun i ->
      List.iter use (Instr.uses i);
      List.iter def (Instr.defs i))
    b.Block.instrs;
  List.iter use (Block.term_uses b.Block.term);
  List.iter def (Block.term_defs b.Block.term);
  (!uses, !defs)

module Engine = Dataflow.Make (Dataflow.Reg_set_domain)

type t = Engine.result

let compute (f : Cfg.func) =
  let summaries = Hashtbl.create 16 in
  List.iter
    (fun b -> Hashtbl.replace summaries b.Block.label (block_summary b))
    f.Cfg.blocks;
  let transfer (b : Block.t) out =
    let uses, defs = Hashtbl.find summaries b.Block.label in
    Reg.Set.union uses (Reg.Set.diff out defs)
  in
  Engine.run ~direction:Dataflow.Backward ~transfer f

let live_in = Engine.entry_value
let live_out = Engine.exit_value

let live_before_each t (b : Block.t) =
  (* Walk backward accumulating liveness, then reverse:
     live before [i] = uses [i] + (live after [i] - defs [i]). *)
  let step live ~uses ~defs =
    List.fold_left
      (fun s r -> Reg.Set.add r s)
      (List.fold_left (fun s r -> Reg.Set.remove r s) live defs)
      uses
  in
  let at_term =
    step (live_out t b.Block.label) ~uses:(Block.term_uses b.Block.term)
      ~defs:(Block.term_defs b.Block.term)
  in
  let rec go live acc = function
    | [] -> acc
    | i :: before ->
      go (step live ~uses:(Instr.uses i) ~defs:(Instr.defs i)) ((i, live) :: acc) before
  in
  go at_term [] (List.rev b.Block.instrs)
