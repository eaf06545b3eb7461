type ('k, 'v) t = {
  mutex : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  flight : ('k, 'v) Flight.t;
  limit : int;
  weight : 'k -> int;
  mutable held : int;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int; held : int }

let create ?(limit = max_int) ?(weight = fun _ -> 1) () =
  {
    mutex = Mutex.create ();
    tbl = Hashtbl.create 16;
    flight = Flight.create ();
    limit;
    weight;
    held = 0;
    hits = 0;
    misses = 0;
  }

(* Under the lock: a lookup that counts its hit and leaves the miss to
   the caller. *)
let hit t key =
  let v = Hashtbl.find_opt t.tbl key in
  if Option.is_some v then t.hits <- t.hits + 1;
  v

let find t key =
  Mutex.protect t.mutex (fun () ->
      let v = hit t key in
      if Option.is_none v then t.misses <- t.misses + 1;
      v)

let add t key v =
  let w = t.weight key in
  Mutex.protect t.mutex (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        if t.held + w > t.limit then begin
          Hashtbl.reset t.tbl;
          t.held <- 0
        end;
        if w <= t.limit then begin
          Hashtbl.replace t.tbl key v;
          t.held <- t.held + w
        end
      end)

(* Every call counts exactly one hit or miss: a hit on the table or on
   another caller's flight, a miss when this call runs [f]. *)
let get t key f =
  match Mutex.protect t.mutex (fun () -> hit t key) with
  | Some v -> v
  | None ->
    let v, joined =
      Flight.run t.flight ~key (fun () ->
          (* [find], not [f]: a flight may have landed since the lookup *)
          match find t key with
          | Some v -> v
          | None ->
            let v = f () in
            add t key v;
            v)
    in
    if joined then Mutex.protect t.mutex (fun () -> t.hits <- t.hits + 1);
    v

let stats (t : (_, _) t) =
  Mutex.protect t.mutex (fun () -> { hits = t.hits; misses = t.misses; held = t.held })
