(* [Hashtbl.add] stacks bindings under one key and [Hashtbl.remove]
   pops the latest, so the table itself is the per-key free list. *)
type ('k, 'v) t = {
  mutex : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  limit : int;
  weight : 'k -> int;
  mutable held : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(limit = max_int) ?(weight = fun _ -> 1) () =
  {
    mutex = Mutex.create ();
    tbl = Hashtbl.create 16;
    limit;
    weight;
    held = 0;
    hits = 0;
    misses = 0;
  }

let take t key =
  let w = t.weight key in
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some v ->
        Hashtbl.remove t.tbl key;
        t.held <- t.held - w;
        t.hits <- t.hits + 1;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        None)

let put t key v =
  let w = t.weight key in
  Mutex.protect t.mutex (fun () ->
      if t.held + w > t.limit then begin
        Hashtbl.reset t.tbl;
        t.held <- 0
      end;
      if w <= t.limit then begin
        Hashtbl.add t.tbl key v;
        t.held <- t.held + w
      end)

let stats (t : (_, _) t) =
  Mutex.protect t.mutex (fun () ->
      { Memo.hits = t.hits; misses = t.misses; held = t.held })
