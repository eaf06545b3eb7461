(** A generic iterative dataflow engine over LIL control-flow graphs.

    Analyses are parameterized by a join-semilattice [DOMAIN] and run
    either [Forward] (values flow entry -> exit along CFG edges) or
    [Backward] (exit -> entry).  The engine is worklist-based: a block
    is re-transferred only when the value on its incoming side changed,
    so sparse CFG updates converge without re-sweeping the whole
    function.  {!Liveness} and the {!Lint} checkers are built on it. *)

type direction = Forward | Backward

module type DOMAIN = sig
  type t

  val bottom : t
  (** The identity of {!join}; also the value assumed on the incoming
      side of blocks the analysis has not reached yet. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (D : DOMAIN) = struct
  type result = {
    index : (string, int) Hashtbl.t;  (** block label -> slot *)
    at_entry : D.t array;  (** value at each block's entry, by slot *)
    at_exit : D.t array;  (** value at each block's exit, by slot *)
  }

  let get r values label =
    match Hashtbl.find_opt r.index label with Some i -> values.(i) | None -> D.bottom

  let entry_value r label = get r r.at_entry label
  let exit_value r label = get r r.at_exit label

  (** [run ~direction ~boundary ~transfer f] iterates [transfer] to a
      fixpoint.  [transfer b v] maps the value on [b]'s incoming side
      (entry when forward, exit when backward) to the outgoing side.
      [boundary] is the value entering the CFG: joined into the entry
      block's input when forward, into every [Ret] block's output when
      backward.

      Labels are resolved to integer slots once, up front, so a visit
      costs array reads instead of string-keyed table lookups; a block
      is a slot, and with duplicate labels the last block of a label
      owns it (the others are never transferred). *)
  let run ~direction ?(boundary = D.bottom) ~transfer (f : Cfg.func) =
    let blocks = Array.of_list f.Cfg.blocks in
    let n = Array.length blocks in
    let index = Hashtbl.create n in
    Array.iteri (fun i b -> Hashtbl.replace index b.Block.label i) blocks;
    let slot (b : Block.t) = Hashtbl.find index b.Block.label in
    let slots labels = List.filter_map (Hashtbl.find_opt index) labels in
    (* Absint's join widens, so its result depends on visit order:
       neighbours are visited in [Cfg.predecessors]'s and
       [Block.successors]'s order. *)
    let preds =
      let by_label = Cfg.predecessors f in
      Array.map
        (fun b -> slots (Option.value ~default:[] (Hashtbl.find_opt by_label b.Block.label)))
        blocks
    in
    let succs = Array.map (fun b -> slots (Block.successors b.Block.term)) blocks in
    let at_entry = Array.make n D.bottom and at_exit = Array.make n D.bottom in
    (* Worklist: a queue plus a membership flag so a block is enqueued
       at most once between visits.  Seeded with every block in an
       order matching the direction, for fast first-sweep convergence. *)
    let queue = Queue.create () in
    let queued = Array.make n false in
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i queue
      end
    in
    let seed =
      match direction with
      | Forward -> f.Cfg.blocks
      | Backward -> List.rev f.Cfg.blocks
    in
    List.iter (fun b -> enqueue (slot b)) seed;
    let entry = match f.Cfg.blocks with [] -> -1 | b :: _ -> slot b in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      queued.(i) <- false;
      let b = blocks.(i) in
      match direction with
      | Forward ->
        let inn =
          List.fold_left
            (fun acc p -> D.join acc at_exit.(p))
            (if i = entry then boundary else D.bottom)
            preds.(i)
        in
        at_entry.(i) <- inn;
        let out = transfer b inn in
        if not (D.equal out at_exit.(i)) then begin
          at_exit.(i) <- out;
          List.iter enqueue succs.(i)
        end
      | Backward ->
        let out =
          List.fold_left
            (fun acc s -> D.join acc at_entry.(s))
            (match b.Block.term with Block.Ret _ -> boundary | _ -> D.bottom)
            succs.(i)
        in
        at_exit.(i) <- out;
        let inn = transfer b out in
        if not (D.equal inn at_entry.(i)) then begin
          at_entry.(i) <- inn;
          List.iter enqueue preds.(i)
        end
    done;
    { index; at_entry; at_exit }
end

(** The workhorse domain: sets of registers under union (liveness,
    reaching definitions as a may-analysis, ...). *)
module Reg_set_domain = struct
  type t = Reg.Set.t

  let bottom = Reg.Set.empty
  let equal = Reg.Set.equal
  let join = Reg.Set.union
end

(** A must-analysis domain over register sets: the join is
    intersection, with [Top] standing for "no path reached yet" (the
    intersection identity).  Used by the def-before-use checker. *)
module Reg_must_domain = struct
  type t = Top | Known of Reg.Set.t

  let bottom = Top

  let equal a b =
    match (a, b) with
    | Top, Top -> true
    | Known x, Known y -> Reg.Set.equal x y
    | Top, Known _ | Known _, Top -> false

  let join a b =
    match (a, b) with
    | Top, v | v, Top -> v
    | Known x, Known y -> Known (Reg.Set.inter x y)
end
