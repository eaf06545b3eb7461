(** Per-block liveness: a backward may-analysis over register bit sets
    ({!Regbits}), solved on a {!Dataflow.graph}. *)

(* use/def summary of a whole block: [uses] are registers read before
   any write inside the block; [defs] are all registers written.  It
   remembers the instruction list and terminator it was built from:
   both are immutable, so a block whose fields are still physically
   those has the same summary. *)
type summary = {
  s_instrs : Instr.t list;
  s_term : Block.term;
  uses : Regbits.t;
  defs : Regbits.t;
}

type t = {
  graph : Dataflow.graph;
  width : int;  (** words per set *)
  summaries : summary array;  (** by slot *)
  at_entry : Regbits.t array;  (** live-in, by slot *)
  at_exit : Regbits.t array;  (** live-out, by slot *)
}

(* Raises [Invalid_argument] when [width] is too narrow for a register
   of [b]. *)
let summarize width (b : Block.t) =
  let uses = Regbits.create width and defs = Regbits.create width in
  let use r = if not (Regbits.mem defs r) then Regbits.add uses r in
  let def = Regbits.add defs in
  List.iter
    (fun i ->
      Instr.iter_uses use i;
      Instr.iter_def def i)
    b.Block.instrs;
  Block.iter_term_uses use b.Block.term;
  List.iter def (Block.term_defs b.Block.term);
  { s_instrs = b.Block.instrs; s_term = b.Block.term; uses; defs }

(* The least fixpoint of [in = uses + (out - defs)], [out] = the union
   of the successors' [in], by worklist.  The union is distributive,
   so the visit order changes only how fast it converges. *)
let solve (g : Dataflow.graph) width summaries =
  let n = Array.length g.Dataflow.blocks in
  let at_entry = Array.init n (fun _ -> Regbits.create width) in
  let at_exit = Array.init n (fun _ -> Regbits.create width) in
  let queue = Queue.create () and queued = Array.make n false in
  let enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.add i queue
    end
  in
  for i = n - 1 downto 0 do
    enqueue (Hashtbl.find g.Dataflow.index g.Dataflow.blocks.(i).Block.label)
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    let out = at_exit.(i) and inn = at_entry.(i) in
    Regbits.clear out;
    List.iter (fun s -> Regbits.union_into out at_entry.(s)) g.Dataflow.succs.(i);
    let { uses; defs; _ } = summaries.(i) in
    let changed = ref false in
    for w = 0 to width - 1 do
      let v = uses.(w) lor (out.(w) land lnot defs.(w)) in
      if v <> inn.(w) then begin
        inn.(w) <- v;
        changed := true
      end
    done;
    if !changed then List.iter enqueue g.Dataflow.preds.(i)
  done;
  (at_entry, at_exit)

let compute ?prev (f : Cfg.func) =
  let graph =
    match prev with
    | Some p when Dataflow.graph_fits p.graph f -> p.graph
    | _ -> Dataflow.graph f
  in
  let summaries width =
    Array.mapi
      (fun i (b : Block.t) ->
        match prev with
        | Some p
          when p.graph == graph && p.width = width
               && p.summaries.(i).s_instrs == b.Block.instrs
               && p.summaries.(i).s_term == b.Block.term ->
          p.summaries.(i)
        | _ -> summarize width b)
      graph.Dataflow.blocks
  in
  let width, summaries =
    let w = Regbits.width_for f in
    match summaries w with
    | s -> (w, s)
    | exception Invalid_argument _ ->
      let w = Regbits.exact_width_for f in
      (w, summaries w)
  in
  let at_entry, at_exit = solve graph width summaries in
  { graph; width; summaries; at_entry; at_exit }

let width t = t.width
let slot t label = Hashtbl.find_opt t.graph.Dataflow.index label

let in_bits t label =
  match slot t label with Some i -> t.at_entry.(i) | None -> Regbits.create t.width

let out_bits t (b : Block.t) =
  let s = Regbits.create t.width in
  List.iter
    (fun l -> match slot t l with Some i -> Regbits.union_into s t.at_entry.(i) | None -> ())
    (Block.successors b.Block.term);
  s

let forget t regs =
  Array.iter (fun s -> Regbits.diff_into s regs) t.at_entry;
  Array.iter (fun s -> Regbits.diff_into s regs) t.at_exit

let live_in t label = Regbits.to_set (in_bits t label)

let live_out t label =
  match slot t label with
  | Some i -> Regbits.to_set t.at_exit.(i)
  | None -> Reg.Set.empty

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
