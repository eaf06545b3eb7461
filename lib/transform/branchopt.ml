(** Control-flow cleanup: branch chaining, useless-jump and
    useless-label elimination, and basic-block merging — "which, when
    applied together, merge basic blocks (critical after extensive
    loop unrolling)" (paper, Section 2.2.4). *)

(* Label -> block, the first block of a label winning as in
   [Cfg.find_block], built once per sub-pass: looking blocks up by
   walking the list made each sub-pass quadratic in the block count. *)
let index (f : Cfg.func) =
  let t = Hashtbl.create 32 in
  List.iter
    (fun b -> if not (Hashtbl.mem t b.Block.label) then Hashtbl.replace t b.Block.label b)
    f.Cfg.blocks;
  t

(* Follow chains of empty blocks ending in unconditional jumps. *)
let rec resolve blocks seen label =
  if List.mem label seen then label
  else
    match Hashtbl.find_opt blocks label with
    | Some { Block.instrs = []; term = Block.Jmp next; _ } ->
      resolve blocks (label :: seen) next
    | _ -> label

let thread_jumps (f : Cfg.func) =
  let blocks = index f in
  List.fold_left
    (fun changed b ->
      let moved = ref false in
      let retarget l =
        let l' = resolve blocks [ b.Block.label ] l in
        if l' <> l then moved := true;
        l'
      in
      let term = Block.map_term_labels retarget b.Block.term in
      (* an untouched block keeps its terminator (callers compare them
         physically) *)
      if !moved then b.Block.term <- term;
      changed || !moved)
    false f.Cfg.blocks

let drop_unreachable (f : Cfg.func) =
  let blocks = index f in
  let reachable = Hashtbl.create 16 in
  let rec walk label =
    if not (Hashtbl.mem reachable label) then begin
      Hashtbl.replace reachable label ();
      match Hashtbl.find_opt blocks label with
      | Some b -> List.iter walk (Block.successors b.Block.term)
      | None -> ()
    end
  in
  walk (Cfg.entry f).Block.label;
  let kept, dropped = List.partition (fun b -> Hashtbl.mem reachable b.Block.label) f.Cfg.blocks in
  if dropped <> [] then f.Cfg.blocks <- kept;
  dropped

(* Merge [a -> Jmp b] when [b] has exactly one predecessor and is not
   protected (loop-structure labels must survive for later passes). *)
let merge_blocks (f : Cfg.func) ~protect =
  let preds = Cfg.predecessors f in
  let pred_count l = List.length (Option.value ~default:[] (Hashtbl.find_opt preds l)) in
  let blocks = index f in
  let removed = Hashtbl.create 8 in
  let find label = if Hashtbl.mem removed label then None else Hashtbl.find_opt blocks label in
  let merge_into (a : Block.t) =
    (* absorb the chain of single-predecessor successors, appending
       their instructions once at the end *)
    let rec absorb parts term =
      match term with
      | Block.Jmp next
        when next <> a.Block.label
             && (not (List.mem next protect))
             && pred_count next = 1 -> (
        match find next with
        | Some b ->
          Hashtbl.replace removed next ();
          absorb (b.Block.instrs :: parts) b.Block.term
        | None -> (parts, term))
      | _ -> (parts, term)
    in
    match absorb [] a.Block.term with
    | [], _ -> ()
    | parts, term ->
      a.Block.instrs <- List.concat (a.Block.instrs :: List.rev parts);
      a.Block.term <- term
  in
  (* Iterate by label and re-fetch: merging removes blocks, and a block
     already absorbed elsewhere must not steal its successor. *)
  List.iter
    (fun label -> match find label with Some b -> merge_into b | None -> ())
    (List.map (fun b -> b.Block.label) f.Cfg.blocks);
  Hashtbl.length removed > 0
  && begin
       f.Cfg.blocks <- List.filter (fun b -> not (Hashtbl.mem removed b.Block.label)) f.Cfg.blocks;
       true
     end

type outcome = { changed : bool; dropped : Block.t list  (** the unreachable blocks *) }

let apply ?(protect = []) (f : Cfg.func) =
  let c1 = thread_jumps f in
  let dropped = drop_unreachable f in
  let c3 = merge_blocks f ~protect in
  { changed = c1 || dropped <> [] || c3; dropped }

let run ?protect f = (apply ?protect f).changed

(* Why one run is a fixpoint, so the repeatable block need not confirm
   it.  After threading, every jump target is a block that is not empty
   with a [Jmp] (bar cycles of such blocks, or a block's own label).
   Dropping keeps only reachable blocks, and merging neither strands a
   block nor changes the predecessor count of a remaining one, so the
   counts [merge_blocks] read up front stay exact and it leaves no
   mergeable pair behind.  Merging [b] into [a] makes [a] empty with a
   [Jmp] only when both were, and threading would already have steered
   every other jump past such an [a].  So a second run can only thread
   a jump to an empty block ending in [Jmp]: with none, it changes
   nothing.  The other repeatable passes never retarget a jump; they
   can only empty a block. *)
let may_change (f : Cfg.func) =
  let empty = Hashtbl.create 4 in
  List.iter
    (function
      | { Block.instrs = []; term = Block.Jmp _; label } -> Hashtbl.replace empty label ()
      | _ -> ())
    f.Cfg.blocks;
  Hashtbl.length empty > 0
  && List.exists
       (fun b ->
         List.exists
           (fun l -> l <> b.Block.label && Hashtbl.mem empty l)
           (Block.successors b.Block.term))
       f.Cfg.blocks
