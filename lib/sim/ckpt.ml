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
module Memo = Ifko_par.Memo

type t = {
  machine : string;
  states : (string, Memsys.snapshot) Memo.t;
  transients : (string, float) Memo.t;  (* per-(warm state, code) scalars *)
  masters : (string, Env.master) Memo.t;
      (* pristine environment images, keyed by (kernel, element count)
         — see Env.capture *)
}

type stats = { hits : int; disk_loads : int; misses : int }

let create ~cfg () =
  {
    machine = cfg.Config.name;
    states = Memo.create ();
    transients = Memo.create ();
    masters = Memo.create ();
  }

let key t ~kernel ~context ~n =
  Store.digest [ "ckpt"; kernel; t.machine; context; string_of_int n ]

(* The caller that runs [warm] leaves [ms] warm itself; every other
   caller, a joiner of that warm-up included, restores its snapshot. *)
let with_state t ~key ms ~warm =
  let ran = ref false in
  let snap =
    Memo.get t.states key (fun () ->
        warm ms;
        ran := true;
        Memsys.snapshot ms)
  in
  if not !ran then Memsys.restore ms snap;
  !ran

let find_transient t ~key = Memo.find t.transients key
let set_transient t ~key v = Memo.add t.transients key v
let master_memo t ~key f = Memo.get t.masters key f

let stats t =
  let s = Memo.stats t.states in
  { hits = s.Memo.hits; disk_loads = 0; misses = s.Memo.misses }
