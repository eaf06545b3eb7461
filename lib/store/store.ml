type outcome =
  | Timed of { mflops : float; cycles : float }
  | Test_failed
  | Illegal

module Json = Ifko_util.Json

(* ---------------------------------------------------------------- *)

(* [e_ts] is the wall-clock insertion time from the store's [clock]
   (0. under the default clock, in which case it is not journaled, so
   offline journals stay byte-deterministic); [e_seq] is the in-memory
   load/insert order, the tie-breaker that makes eviction ordering
   total. *)
type entry = { outcome : outcome; params : string; prov : string; e_ts : float; e_seq : int }

(* One journal file and its in-memory index, under its own mutex.  A
   store is one journal (a file path) or N of them (a directory). *)
type journal = {
  path : string;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable oc : out_channel option;
  mutable corrupt_count : int;  (** unparseable complete lines *)
  mutable torn_count : int;  (** unparseable, newline-less trailing line *)
  mutable loaded_bytes : int;  (** journal prefix already folded into [table] *)
  mutable next_seq : int;
  mutable header_seed : int option;
  mutable saw_header : bool;  (** a header line (even seedless) was loaded *)
}

type t = {
  root : string;
  is_dir : bool;
  replica : bool;
  clock : unit -> float;
  journals : journal array;
  flight : (string, outcome) Ifko_par.Flight.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  join_count : int Atomic.t;  (** cached calls answered by joining a flight *)
}

let schema_version = 1

let header_line ~seed =
  Json.render
    ([ ("ifko_store", Json.N (float_of_int schema_version)) ]
    @ match seed with None -> [] | Some s -> [ ("seed", Json.N (float_of_int s)) ])

let entry_line key e =
  let outcome_fields =
    match e.outcome with
    | Timed { mflops; cycles } ->
      [ ("o", Json.S "timed"); ("mflops", Json.N mflops); ("cycles", Json.N cycles) ]
    | Test_failed -> [ ("o", Json.S "test_failed") ]
    | Illegal -> [ ("o", Json.S "illegal") ]
  in
  Json.render
    ((("k", Json.S key) :: outcome_fields)
    @ [ ("params", Json.S e.params); ("prov", Json.S e.prov) ]
    @ if e.e_ts > 0.0 then [ ("ts", Json.N e.e_ts) ] else [])

let parse_entry ~seq fields =
  let str k = Json.str fields k in
  let num k = Json.num fields k in
  match str "k" with
  | None -> None
  | Some key ->
    let params = Option.value ~default:"" (str "params") in
    let prov = Option.value ~default:"" (str "prov") in
    let e_ts = Option.value ~default:0.0 (num "ts") in
    let mk outcome = Some (key, { outcome; params; prov; e_ts; e_seq = seq }) in
    (match str "o" with
    | Some "timed" ->
      (match (num "mflops", num "cycles") with
      | Some mflops, Some cycles -> mk (Timed { mflops; cycles })
      | _ -> None)
    | Some "test_failed" -> mk Test_failed
    | Some "illegal" -> mk Illegal
    | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_bytes path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in_noerr ic;
    n
  end

let locked j f =
  Mutex.lock j.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock j.mutex) f

(* Fold journal text from [from] into the table.  Complete lines that
   do not parse are counted corrupt.  The trailing newline-less
   fragment — what a crash (or, under replicas, a concurrent writer)
   mid-append leaves — is handled per [torn]: [`Count] records it as
   torn and consumes it, [`Leave] leaves it unconsumed so a later
   {!refresh} can pick up the completed line.  Returns the number of
   bytes consumed. *)
let fold_lines j ~torn s from =
  let n = String.length s in
  let pos = ref from in
  let consumed = ref from in
  let take line =
    if String.trim line <> "" then begin
      match Json.parse line with
      | exception Json.Bad -> j.corrupt_count <- j.corrupt_count + 1
      | fields ->
        (match List.assoc_opt "ifko_store" fields with
        | Some (Json.N _) ->
          j.saw_header <- true;
          (match List.assoc_opt "seed" fields with
          | Some (Json.N s) when j.header_seed = None ->
            j.header_seed <- Some (int_of_float s)
          | _ -> ())
        | _ ->
          let seq = j.next_seq in
          j.next_seq <- j.next_seq + 1;
          (match parse_entry ~seq fields with
          | Some (key, e) -> Hashtbl.replace j.table key e
          | None -> j.corrupt_count <- j.corrupt_count + 1))
    end
  in
  while !pos < n do
    match String.index_from_opt s !pos '\n' with
    | Some nl ->
      take (String.sub s !pos (nl - !pos));
      pos := nl + 1;
      consumed := !pos
    | None ->
      (* newline-less tail *)
      let tail = String.sub s !pos (n - !pos) in
      (match torn with
      | `Count ->
        if String.trim tail <> "" then begin
          match Json.parse tail with
          | exception Json.Bad -> j.torn_count <- j.torn_count + 1
          | _ -> take tail (* complete record, the crash only ate the newline *)
        end;
        consumed := n
      | `Leave -> ());
      pos := n
  done;
  !consumed - from

(* A crash mid-append can leave a torn line with no trailing newline;
   appending straight after it would glue the next record onto the torn
   one.  Start a fresh line whenever the journal does not end in \n. *)
let ends_in_newline path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let ok =
    len = 0
    ||
    (seek_in ic (len - 1);
     input_char ic = '\n')
  in
  close_in_noerr ic;
  ok

(* A journal that is empty (or absent) gets its header with the first
   append, so opening an existing store never writes to it: read-only
   commands leave its bytes alone. *)
let append_channel j =
  match j.oc with
  | Some oc -> oc
  | None ->
    let size = file_bytes j.path in
    let needs_nl = size > 0 && not (ends_in_newline j.path) in
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 j.path in
    if needs_nl then output_char oc '\n';
    if size = 0 then begin
      output_string oc (header_line ~seed:j.header_seed ^ "\n");
      j.saw_header <- true
    end;
    j.oc <- Some oc;
    oc

(* [create]: the store is new, so its journal starts out with a header. *)
let open_journal ?seed ~create path =
  let j =
    {
      path;
      mutex = Mutex.create ();
      table = Hashtbl.create 256;
      oc = None;
      corrupt_count = 0;
      torn_count = 0;
      loaded_bytes = 0;
      next_seq = 0;
      header_seed = None;
      saw_header = false;
    }
  in
  if Sys.file_exists path then
    j.loaded_bytes <- fold_lines j ~torn:`Count (read_file path) 0;
  if (not j.saw_header) && Hashtbl.length j.table = 0 then j.header_seed <- seed;
  if create then flush (append_channel j);
  j

let close_journal j =
  Option.iter
    (fun oc ->
      flush oc;
      close_out_noerr oc)
    j.oc;
  j.oc <- None

(* ---------------------------------------------------------------- *)
(* Directories: N shard journals picked by key prefix.  Keys are hex
   MD5 digests, so the first byte is uniform and `first byte mod N`
   balances the shards.  store.meta fixes N at creation. *)

let meta_file dir = Filename.concat dir "store.meta"
let shard_file dir i = Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)

let read_meta dir =
  let path = meta_file dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    match Json.parse line with
    | exception Json.Bad -> None
    | fields ->
      (match (Json.num fields "ifko_shard_store", Json.num fields "shards") with
      | Some _, Some n when n >= 1.0 -> Some (int_of_float n)
      | _ -> None)
  end

let write_meta dir ~shards =
  let oc = open_out_bin (meta_file dir) in
  output_string oc
    (Json.render
       [ ("ifko_shard_store", Json.N 1.0); ("shards", Json.N (float_of_int shards)) ]
    ^ "\n");
  close_out oc

let open_ ?seed ?(clock = fun () -> 0.0) ?shards ?(replica = false) path =
  let exists = Sys.file_exists path in
  let is_dir = if exists then Sys.is_directory path else shards <> None in
  let journals =
    if not is_dir then begin
      if shards <> None then
        invalid_arg (Printf.sprintf "Store.open_: %s exists and is not a directory" path);
      [| open_journal ?seed ~create:(not exists) path |]
    end
    else begin
      if not exists then Sys.mkdir path 0o755;
      let n =
        match (read_meta path, shards) with
        | Some n, _ -> n (* the directory knows its own geometry *)
        | None, Some n ->
          let n = max 1 (min n 256) in
          write_meta path ~shards:n;
          n
        | None, None ->
          invalid_arg (Printf.sprintf "Store.open_: %s has no valid store.meta" path)
      in
      Array.init n (fun i -> open_journal ?seed ~create:(not exists) (shard_file path i))
    end
  in
  {
    root = path;
    is_dir;
    replica;
    clock;
    journals;
    flight = Ifko_par.Flight.create ();
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    join_count = Atomic.make 0;
  }

let close t = Array.iter (fun j -> locked j (fun () -> close_journal j)) t.journals
let path t = t.root
let seed t = t.journals.(0).header_seed
let shard_count t = Array.length t.journals

(* Keys are hex MD5; fall back to a generic hash for foreign keys. *)
let journal t key =
  let n = Array.length t.journals in
  if n = 1 then t.journals.(0)
  else begin
    let b =
      match
        if String.length key >= 2 then int_of_string_opt ("0x" ^ String.sub key 0 2)
        else None
      with
      | Some b -> b
      | None -> Hashtbl.hash key land 0xff
    in
    t.journals.(b mod n)
  end

(* Pick up records appended by other processes sharing the journal
   (replica mode): parse any complete lines past the already-loaded
   prefix.  A newline-less tail is left alone — it is another writer's
   append in flight, not corruption — and re-examined next time.  A
   file that shrank was compacted underneath us: reload it whole. *)
let refresh_journal j =
  locked j (fun () ->
      if Sys.file_exists j.path then begin
        let s = read_file j.path in
        let len = String.length s in
        if len < j.loaded_bytes then begin
          Hashtbl.reset j.table;
          j.loaded_bytes <- 0
        end;
        if len > j.loaded_bytes then
          j.loaded_bytes <- j.loaded_bytes + fold_lines j ~torn:`Leave s j.loaded_bytes
      end)

let refresh t = Array.iter refresh_journal t.journals

let find_in j key =
  Mutex.lock j.mutex;
  let r = Hashtbl.find_opt j.table key in
  Mutex.unlock j.mutex;
  r

(* Replica mode: a miss may just mean another process journaled the
   entry after we loaded — fold in the journal's new lines and retry
   once before conceding the miss. *)
let lookup t key =
  let j = journal t key in
  match find_in j key with
  | None when t.replica ->
    refresh_journal j;
    find_in j key
  | r -> r

let find t ~key =
  match lookup t key with
  | Some e ->
    Atomic.incr t.hit_count;
    Some e.outcome
  | None ->
    Atomic.incr t.miss_count;
    None

let find_entry t ~key = Option.map (fun e -> (e.outcome, e.params, e.prov)) (lookup t key)

(* Tune-level entries (whole-search results journaled by the driver)
   are distinguished from per-probe entries purely by their provenance
   prefix — the journal format is unchanged. *)
let tune_prefix = "tune "
let tune_prov prov = tune_prefix ^ prov
let is_tune_prov prov = String.starts_with ~prefix:tune_prefix prov

(* Journals in shard order, each snapshotted under its mutex and folded
   outside it, so [f] is free to use the store itself (journaling a
   derived entry, say) without deadlocking.  Sorted-key order makes the
   fold deterministic regardless of append order — warm-start donor
   selection depends on that. *)
let fold_entries t ~init ~f =
  Array.fold_left
    (fun acc j ->
      let snap = locked j (fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) j.table []) in
      List.fold_left
        (fun acc (key, e) -> f acc ~key ~params:e.params ~prov:e.prov e.outcome)
        acc
        (List.sort (fun (a, _) (b, _) -> compare a b) snap))
    init t.journals

let iter_tunes t ~f =
  fold_entries t ~init:() ~f:(fun () ~key ~params ~prov outcome ->
      match outcome with
      | Timed tm when is_tune_prov prov ->
        f ~key ~params ~prov ~mflops:tm.mflops
      | Timed _ | Test_failed | Illegal -> ())

let add t ~key ~params ~prov outcome =
  let j = journal t key in
  locked j (fun () ->
      let e = { outcome; params; prov; e_ts = t.clock (); e_seq = j.next_seq } in
      j.next_seq <- j.next_seq + 1;
      Hashtbl.replace j.table key e;
      let oc = append_channel j in
      (* one write of one complete line: under O_APPEND this is what makes
         several replica processes able to share a journal *)
      output_string oc (entry_line key e ^ "\n");
      flush oc)

(* Single-flight memoization: the first misser of a key computes it,
   concurrent missers of the same key wait for its outcome instead of
   duplicating the (expensive) probe.  The leader re-checks the table
   first, so a flight that landed after our lookup is not recomputed. *)
let cached ?store ~key ~params ~prov f =
  match store with
  | None -> f ()
  | Some t -> (
    match lookup t key with
    | Some e ->
      Atomic.incr t.hit_count;
      e.outcome
    | None ->
      let o, joined =
        Ifko_par.Flight.run t.flight ~key (fun () ->
            match find_in (journal t key) key with
            | Some e ->
              Atomic.incr t.hit_count;
              e.outcome
            | None ->
              Atomic.incr t.miss_count;
              let o = f () in
              add t ~key ~params ~prov o;
              o)
      in
      if joined then begin
        Atomic.incr t.hit_count;
        Atomic.incr t.join_count
      end;
      o)

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count
let sum t f = Array.fold_left (fun acc j -> acc + f j) 0 t.journals
let entries t = sum t (fun j -> Hashtbl.length j.table)
let corrupt t = sum t (fun j -> j.corrupt_count + j.torn_count)
let torn t = sum t (fun j -> j.torn_count)
let bytes t = sum t (fun j -> file_bytes j.path)

let compact_locked j =
  close_journal j;
  let tmp = j.path ^ ".compact.tmp" in
  let oc = open_out_bin tmp in
  output_string oc (header_line ~seed:j.header_seed ^ "\n");
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) j.table []) in
  List.iter (fun k -> output_string oc (entry_line k (Hashtbl.find j.table k) ^ "\n")) keys;
  close_out oc;
  Sys.rename tmp j.path;
  j.loaded_bytes <- file_bytes j.path

let compact t = Array.iter (fun j -> locked j (fun () -> compact_locked j)) t.journals

let evict_journal ?max_bytes ?max_age ~now j =
  locked j (fun () ->
      let removed = ref 0 in
      let remove k =
        Hashtbl.remove j.table k;
        incr removed
      in
      (* Age bound: entries journaled without a timestamp (e_ts = 0,
         e.g. by offline tooling under the default clock) have unknown
         age and are treated as arbitrarily old. *)
      (match max_age with
      | None -> ()
      | Some age ->
        let dead =
          Hashtbl.fold
            (fun k e acc -> if e.e_ts < now -. age then k :: acc else acc)
            j.table []
        in
        List.iter remove dead);
      (* Size bound on the *compacted* journal: oldest (ts, then load
         order) entries go first until the live set fits. *)
      (match max_bytes with
      | None -> ()
      | Some budget ->
        let header = String.length (header_line ~seed:j.header_seed) + 1 in
        let live = ref header in
        let all =
          Hashtbl.fold
            (fun k e acc ->
              let len = String.length (entry_line k e) + 1 in
              live := !live + len;
              (e.e_ts, e.e_seq, k, len) :: acc)
            j.table []
        in
        if !live > budget then begin
          let oldest_first = List.sort compare all in
          List.iter
            (fun (_, _, k, len) ->
              if !live > budget then begin
                remove k;
                live := !live - len
              end)
            oldest_first
        end);
      if !removed > 0 then compact_locked j;
      !removed)

(* The size budget splits evenly across shards — hex-digest keys spread
   uniformly, so per-shard budgets approximate the global one without
   any cross-shard coordination (each shard evicts under its own
   mutex). *)
let evict ?max_bytes ?max_age ~now t =
  let max_bytes = Option.map (fun b -> max 1 (b / shard_count t)) max_bytes in
  sum t (evict_journal ?max_bytes ?max_age ~now)

(* ---------------------------------------------------------------- *)
(* Keys: hex MD5 of length-prefixed fields (no boundary aliasing). *)

let digest fields =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (string_of_int (String.length f));
      Buffer.add_char buf ':';
      Buffer.add_string buf f)
    fields;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [fidelity] is appended only when present, so every key minted before
   the fidelity axis existed is unchanged (the digest is length-prefixed
   per field, so appending a field can never alias an old key either). *)
let probe_key ~kernel ~machine ~context ~n ~seed ~check ?fidelity ~params () =
  let base =
    [ "probe"; kernel; machine; context; string_of_int n; string_of_int seed;
      (if check then "check" else "nocheck"); params ]
  in
  digest (match fidelity with None -> base | Some f -> base @ [ "fidelity:" ^ f ])

let timing_key ~kind ~func ~machine ~context ~n ~seed =
  digest [ "timing"; kind; func; machine; context; string_of_int n; string_of_int seed ]

(* [strategy], [fidelity] and [extensions] are appended only when
   present, so every key minted before each axis existed is unchanged
   (same convention as [probe_key]'s fidelity field). *)
let tune_key ?strategy ?fidelity ?(extensions = false) ~kernel ~machine ~context ~n ~seed
    ~check ~flops_per_n () =
  let opt tag = function None -> [] | Some v -> [ tag ^ v ] in
  digest
    ([ "tune"; kernel; machine; context; string_of_int n; string_of_int seed;
       (if check then "check" else "nocheck"); Printf.sprintf "%.17g" flops_per_n ]
    @ opt "strategy:" strategy @ opt "fidelity:" fidelity
    @ if extensions then [ "extensions" ] else [])

(* ---------------------------------------------------------------- *)

type stat = {
  st_path : string;
  st_dir : bool;
  st_entries : int;
  st_tunes : int;
  st_probes : int;
  st_timed : int;
  st_failed : int;
  st_illegal : int;
  st_corrupt : int;
  st_torn : int;
  st_bytes : int;
  st_seed : int option;
  st_hits : int;
  st_misses : int;
  st_joins : int;
  st_shards : stat list;
}

(* Counts over a set of journals; the service-level counters and the
   per-shard breakdown are filled in by [stat]. *)
let tally path js =
  let entries = ref 0 and tunes = ref 0 and timed = ref 0 and failed = ref 0 in
  let illegal = ref 0 and corrupt = ref 0 and torn = ref 0 and bytes = ref 0 in
  List.iter
    (fun j ->
      locked j (fun () ->
          Hashtbl.iter
            (fun _ e ->
              if is_tune_prov e.prov then incr tunes;
              match e.outcome with
              | Timed _ -> incr timed
              | Test_failed -> incr failed
              | Illegal -> incr illegal)
            j.table;
          entries := !entries + Hashtbl.length j.table;
          corrupt := !corrupt + j.corrupt_count;
          torn := !torn + j.torn_count);
      bytes := !bytes + file_bytes j.path)
    js;
  {
    st_path = path;
    st_dir = false;
    st_entries = !entries;
    st_tunes = !tunes;
    st_probes = !entries - !tunes;
    st_timed = !timed;
    st_failed = !failed;
    st_illegal = !illegal;
    st_corrupt = !corrupt;
    st_torn = !torn;
    st_bytes = !bytes;
    st_seed = (match js with j :: _ -> j.header_seed | [] -> None);
    st_hits = 0;
    st_misses = 0;
    st_joins = 0;
    st_shards = [];
  }

let stat t =
  let js = Array.to_list t.journals in
  {
    (tally t.root js) with
    st_dir = t.is_dir;
    st_hits = hits t;
    st_misses = misses t;
    st_joins = Atomic.get t.join_count;
    st_shards = List.map (fun j -> tally j.path [ j ]) js;
  }

(* Follows the [Diag.to_json] conventions: one object, every field
   always present, [null] for absent values. *)
let journal_fields s =
  [ ("path", Json.S s.st_path);
    ("entries", Json.N (float_of_int s.st_entries));
    ("tune_entries", Json.N (float_of_int s.st_tunes));
    ("probe_entries", Json.N (float_of_int s.st_probes));
    ("timed", Json.N (float_of_int s.st_timed));
    ("test_failed", Json.N (float_of_int s.st_failed));
    ("illegal", Json.N (float_of_int s.st_illegal));
    ("corrupt_lines", Json.N (float_of_int s.st_corrupt));
    ("torn_lines", Json.N (float_of_int s.st_torn));
    ("bytes", Json.N (float_of_int s.st_bytes));
    ("seed", match s.st_seed with Some v -> Json.N (float_of_int v) | None -> Json.Null);
    ("hits", Json.N (float_of_int s.st_hits));
    ("misses", Json.N (float_of_int s.st_misses));
  ]

let stat_fields s =
  journal_fields s
  @ [ ("dir", if s.st_dir then Json.S s.st_path else Json.Null);
      ("shards", Json.N (float_of_int (List.length s.st_shards)));
      ("inflight_joins", Json.N (float_of_int s.st_joins));
      ("per_shard", Json.A (List.map (fun st -> Json.O (journal_fields st)) s.st_shards));
    ]

let stat_json s = Json.render (stat_fields s)

let journal_line s =
  Printf.sprintf
    "%s: %d entries (%d probes + %d tunes; %d timed, %d test-failed, %d illegal), %d \
     corrupt + %d torn line%s skipped, %d bytes%s\n"
    s.st_path s.st_entries s.st_probes s.st_tunes s.st_timed s.st_failed s.st_illegal
    s.st_corrupt s.st_torn
    (if s.st_corrupt + s.st_torn = 1 then "" else "s")
    s.st_bytes
    (match s.st_seed with
    | Some v -> Printf.sprintf ", seed %d" v
    | None -> "")

let stat_to_string s =
  if not s.st_dir then journal_line s
  else
    String.concat ""
      (Printf.sprintf "%s: %d shards, %d entries, %d bytes%s%s\n" s.st_path
         (List.length s.st_shards) s.st_entries s.st_bytes
         (if s.st_corrupt > 0 then Printf.sprintf ", %d corrupt lines" s.st_corrupt else "")
         (if s.st_torn > 0 then Printf.sprintf ", %d torn lines" s.st_torn else "")
      :: List.map journal_line s.st_shards)

let clear p = if Sys.file_exists p then Sys.remove p
