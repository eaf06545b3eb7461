type 'v state = Running | Done of 'v | Failed
type 'v cell = { mutable state : 'v state }

type ('k, 'v) t = { mutex : Mutex.t; landed : Condition.t; tbl : ('k, 'v cell) Hashtbl.t }

let create () = { mutex = Mutex.create (); landed = Condition.create (); tbl = Hashtbl.create 32 }

let rec run t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.tbl key with
  | Some c ->
    let rec wait () =
      match c.state with
      | Running ->
        Condition.wait t.landed t.mutex;
        wait ()
      | s -> s
    in
    let s = wait () in
    Mutex.unlock t.mutex;
    (match s with
    | Done v -> (v, true)
    | Running | Failed -> run t ~key f (* the leader raised: take over *))
  | None ->
    let c = { state = Running } in
    Hashtbl.replace t.tbl key c;
    Mutex.unlock t.mutex;
    let settle s =
      Mutex.lock t.mutex;
      c.state <- s;
      Hashtbl.remove t.tbl key;
      Condition.broadcast t.landed;
      Mutex.unlock t.mutex
    in
    (match f () with
    | v ->
      settle (Done v);
      (v, false)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle Failed;
      Printexc.raise_with_backtrace e bt)

let inflight t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mutex;
  n
