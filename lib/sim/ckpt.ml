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
   transient memo.  Snapshots live in memory only: a restart re-runs
   one warm-up per state, which costs nothing measurable next to the
   transients.  The transients can persist under [dir], guarded by a
   [store.meta] file that records the schema version plus the digest
   of the machine's full parameter rendering (Config.geometry).  On
   open, any mismatch — version bump, cache-geometry change, or a
   stale or hand-edited meta — wipes the persisted transients rather
   than ever reusing a wrong one. *)

module Store = Ifko_store.Store
module Config = Ifko_machine.Config
module Memsys = Ifko_machine.Memsys

(* schema 3 dates from when snapshots persisted too; the transients'
   format has not changed since, so the number stays *)
let schema = 3
let meta_file = "store.meta"
let transient_file = "transients.jsonl"

type t = {
  dir : string option;
  machine : string;
  geometry : string;  (* digest of Config.geometry *)
  tbl : (string, Memsys.snapshot) Hashtbl.t;
  transients : (string, float) Hashtbl.t;
      (* per-(warm state, code) scalars — persisted as JSON lines
         (%.17g round-trips every finite double) under store.meta, so
         a daemon restart does not repay every candidate's companion
         rate window *)
  masters : (string, Env.master) Hashtbl.t;
      (* session-only pristine environment images, keyed by
         (kernel, element count) — see Env.capture *)
  mutex : Mutex.t;
  mutable n_hit : int;  (* answered from memory *)
  mutable n_miss : int;  (* fresh warm-ups *)
  mutable n_inval : int;  (* persisted transient sets discarded on open *)
  mutable n_thit : int;  (* transients answered from the memo *)
  mutable n_tmiss : int;  (* transients that had to be measured *)
  mutable n_tload : int;  (* transients preloaded from disk on open *)
}

type stats = {
  hits : int;
  disk_loads : int;
  misses : int;
  invalidated : int;
  transient_hits : int;
  transient_misses : int;
  transients_loaded : int;
}

let meta_line t =
  Store.Json.render
    [ ("schema", Store.Json.N (float_of_int schema)); ("geometry", Store.Json.S t.geometry) ]

let read_meta path =
  match In_channel.with_open_text path In_channel.input_line with
  | None -> None
  | Some line -> (
      match Store.Json.parse line with
      | fields -> Some (Store.Json.num fields "schema", Store.Json.str fields "geometry")
      | exception _ -> None)

let write_meta t dir =
  let tmp = Filename.concat dir (meta_file ^ ".tmp") in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc (meta_line t);
      Out_channel.output_char oc '\n');
  Sys.rename tmp (Filename.concat dir meta_file)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Transients persist as append-only JSON lines {"key":...,"v":...}.
   Duplicate keys are possible (concurrent writers race benignly on
   deterministic values); the last line wins, matching the in-memory
   replace semantics. *)
let load_transients t dir =
  let path = Filename.concat dir transient_file in
  if Sys.file_exists path then
    try
      In_channel.with_open_text path (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> ()
            | Some line ->
                (match Store.Json.parse line with
                | fields -> (
                    match (Store.Json.str fields "key", Store.Json.num fields "v") with
                    | Some k, Some v ->
                        Hashtbl.replace t.transients k v;
                        t.n_tload <- t.n_tload + 1
                    | _ -> ())
                | exception _ -> ());
                go ()
          in
          go ())
    with Sys_error _ -> ()

let append_transient t ~key v =
  match t.dir with
  | None -> ()
  | Some dir -> (
      try
        let path = Filename.concat dir transient_file in
        Out_channel.with_open_gen
          [ Open_append; Open_creat; Open_wronly ]
          0o644 path
          (fun oc ->
            Out_channel.output_string oc
              (Store.Json.render [ ("key", Store.Json.S key); ("v", Store.Json.N v) ]);
            Out_channel.output_char oc '\n')
      with Sys_error _ -> ())
(* best-effort: a failed write costs one future companion window *)

let create ?dir ~cfg () =
  let geometry = Store.digest [ "ckpt-geometry"; Config.geometry cfg ] in
  let t =
    {
      dir;
      machine = cfg.Config.name;
      geometry;
      tbl = Hashtbl.create 16;
      transients = Hashtbl.create 16;
      masters = Hashtbl.create 8;
      mutex = Mutex.create ();
      n_hit = 0;
      n_miss = 0;
      n_inval = 0;
      n_thit = 0;
      n_tmiss = 0;
      n_tload = 0;
    }
  in
  (match dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let meta_ok =
        match read_meta (Filename.concat dir meta_file) with
        | Some (Some v, Some g) -> int_of_float v = schema && g = geometry
        | Some _ | None | (exception Sys_error _) -> false
      in
      if not meta_ok then begin
        (* the transients were produced under a different schema or
           machine geometry, or nothing vouches for them *)
        let path = Filename.concat dir transient_file in
        if Sys.file_exists path then begin
          (try Sys.remove path with Sys_error _ -> ());
          t.n_inval <- t.n_inval + 1
        end;
        write_meta t dir
      end
      else load_transients t dir);
  t

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
  (match v with
  | Some _ -> t.n_thit <- t.n_thit + 1
  | None -> t.n_tmiss <- t.n_tmiss + 1);
  Mutex.unlock t.mutex;
  v

let set_transient t ~key v =
  Mutex.lock t.mutex;
  Hashtbl.replace t.transients key v;
  Mutex.unlock t.mutex;
  append_transient t ~key v
(* concurrent misses on one key both compute the same deterministic
   value, so last-write-wins is benign — same argument as with_state *)

(* Session-only: [f] is a pure function of the key, so racing
   computations agree and last-write-wins loses nothing.  [f] runs
   outside the lock (it builds environments). *)
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
  let s =
    {
      hits = t.n_hit;
      disk_loads = 0;
      misses = t.n_miss;
      invalidated = t.n_inval;
      transient_hits = t.n_thit;
      transient_misses = t.n_tmiss;
      transients_loaded = t.n_tload;
    }
  in
  Mutex.unlock t.mutex;
  s

let geometry_digest t = t.geometry
