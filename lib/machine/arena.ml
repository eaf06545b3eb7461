(* Geometry-keyed pool of Memsys instances.

   A Memsys.t for a 1 MB L2 is ~300 KB of arrays, and the timers used
   to build one per measurement — for the sampled fidelity path that
   construction became a dominant share of the fixed per-measure floor.
   Instances carry no identity beyond their mutable state, and
   [Memsys.reset ~flush] / [Memsys.restore] are verified bit-identical
   to fresh construction (including internal scan order), so a borrowed
   instance behaves exactly like a new one once the caller has put it
   in a known state.

   Contract: [release] does NOT clean the instance — every timer path
   already begins by resetting or restoring into the machine (it must,
   even on a fresh instance, to pick its context), so scrubbing here
   would be pure waste.  The flip side: [acquire] returns an instance
   in an arbitrary prior state, and callers must not read from it
   before that reset/restore.  Exceptions mid-measure are safe to
   release too (Fun.protect in the timers): a trapped instance is
   arbitrary state like any other, and the next reset re-establishes
   the invariant.

   Pools are keyed by [Config.geometry], so two configs share instances
   exactly when every timing-relevant parameter agrees.  The pool is
   bounded per geometry; beyond that instances are simply dropped for
   the GC. *)

let max_pooled_per_geometry = 32

type stats = { acquires : int; creates : int; pooled : int }

let mutex = Mutex.create ()
let pools : (string, Memsys.t list ref) Hashtbl.t = Hashtbl.create 7
let n_pooled = ref 0
let n_acquires = ref 0
let n_creates = ref 0

let acquire cfg =
  let key = Config.geometry cfg in
  Mutex.lock mutex;
  incr n_acquires;
  let reused =
    match Hashtbl.find_opt pools key with
    | Some ({ contents = m :: rest } as cell) ->
      cell := rest;
      decr n_pooled;
      Some m
    | _ ->
      incr n_creates;
      None
  in
  Mutex.unlock mutex;
  match reused with Some m -> m | None -> Memsys.create cfg

let release m =
  let key = Config.geometry (Memsys.config m) in
  Mutex.lock mutex;
  let cell =
    match Hashtbl.find_opt pools key with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.add pools key cell;
      cell
  in
  if List.length !cell < max_pooled_per_geometry then begin
    cell := m :: !cell;
    incr n_pooled
  end;
  Mutex.unlock mutex

let with_machine cfg f =
  let m = acquire cfg in
  Fun.protect ~finally:(fun () -> release m) (fun () -> f m)

let stats () =
  Mutex.lock mutex;
  let s = { acquires = !n_acquires; creates = !n_creates; pooled = !n_pooled } in
  Mutex.unlock mutex;
  s

let clear () =
  Mutex.lock mutex;
  Hashtbl.reset pools;
  n_pooled := 0;
  n_acquires := 0;
  n_creates := 0;
  Mutex.unlock mutex
