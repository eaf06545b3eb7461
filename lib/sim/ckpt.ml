(* Content-addressed cache of post-warm-up memory-system snapshots.

   An in-L2 timed run spends a warm-up loop installing the working set
   in L2 before the kernel executes.  That state depends only on the
   (kernel, machine, context, N) tuple — never on the transform
   parameters being probed — so one tune re-derives the same state at
   every probe point.  This module captures it once (Memsys.snapshot)
   and blits it back for every later probe, which is observably
   identical to re-running the warm-up.

   Keys are digests like the probe store's: the kernel fingerprint (so
   a kernel edit changes the key), the machine name, the timing
   context, and N.  An entry is the snapshot alone.  Anything that
   depends on the *code* being timed must never ride with an entry —
   one tune's probe points share a snapshot while running different
   code — so per-(state, candidate) scalars live in the separate
   transient memo.  Everything lives in one process's memory; nothing
   is read from or written to disk. *)

module Store = Ifko_store.Store
module Config = Ifko_machine.Config
module Memsys = Ifko_machine.Memsys

type t = {
  machine : string;
  tbl : (string, Memsys.snapshot) Hashtbl.t;
  transients : (string, float) Hashtbl.t;  (* per-(warm state, code) scalars *)
  masters : (string, Env.master) Hashtbl.t;
      (* pristine environment images, keyed by (kernel, element count)
         — see Env.capture *)
  mutex : Mutex.t;
  mutable n_hit : int;  (* answered from memory *)
  mutable n_miss : int;  (* fresh warm-ups *)
}

type stats = { hits : int; disk_loads : int; misses : int }

let create ~cfg () =
  {
    machine = cfg.Config.name;
    tbl = Hashtbl.create 16;
    transients = Hashtbl.create 16;
    masters = Hashtbl.create 8;
    mutex = Mutex.create ();
    n_hit = 0;
    n_miss = 0;
  }

let key t ~kernel ~context ~n =
  Store.digest [ "ckpt"; kernel; t.machine; context; string_of_int n ]

(* Bring [ms] to the warm state for [key]: restore a cached snapshot if
   one exists, otherwise run [warm] (which must leave [ms] fully warmed)
   and capture it.  Returns whether this call ran [warm].
   Thread-safe: probe pools share one Ckpt across domains, and every
   call counts exactly one hit or miss under the mutex.
   Concurrent misses on the same key may both run [warm] — warm-up is
   deterministic, so last-write-wins is benign. *)
let with_state t ~key ms ~warm =
  let cached =
    Mutex.lock t.mutex;
    let c = Hashtbl.find_opt t.tbl key in
    (match c with
    | Some _ -> t.n_hit <- t.n_hit + 1
    | None -> t.n_miss <- t.n_miss + 1);
    Mutex.unlock t.mutex;
    c
  in
  match cached with
  | Some snap ->
      Memsys.restore ms snap;
      false
  | None ->
      warm ms;
      let snap = Memsys.snapshot ms in
      Mutex.lock t.mutex;
      Hashtbl.replace t.tbl key snap;
      Mutex.unlock t.mutex;
      true

let find_transient t ~key =
  Mutex.lock t.mutex;
  let v = Hashtbl.find_opt t.transients key in
  Mutex.unlock t.mutex;
  v

let set_transient t ~key v =
  Mutex.lock t.mutex;
  Hashtbl.replace t.transients key v;
  Mutex.unlock t.mutex
(* concurrent misses on one key both compute the same deterministic
   value, so last-write-wins is benign — same argument as with_state *)

(* [f] is a pure function of the key, so racing computations agree and
   last-write-wins loses nothing.  [f] runs outside the lock (it builds
   environments). *)
let master_memo t ~key f =
  Mutex.lock t.mutex;
  let v = Hashtbl.find_opt t.masters key in
  Mutex.unlock t.mutex;
  match v with
  | Some m -> m
  | None ->
      let m = f () in
      Mutex.lock t.mutex;
      Hashtbl.replace t.masters key m;
      Mutex.unlock t.mutex;
      m

let stats t =
  Mutex.lock t.mutex;
  let s = { hits = t.n_hit; disk_loads = 0; misses = t.n_miss } in
  Mutex.unlock t.mutex;
  s
