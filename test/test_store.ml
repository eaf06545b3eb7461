(* Tuning-store tests: content-addressed keys (and their invalidation
   on kernel edits), journal round-trips, truncated/corrupt-journal
   recovery, compaction, and concurrent writers from the domain pool. *)

module Store = Ifko_store.Store

let tmp_store () =
  let path = Filename.temp_file "ifko_store_test" ".jsonl" in
  Sys.remove path;
  path

let read_lines path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let outcome : Store.outcome Alcotest.testable =
  Alcotest.testable
    (fun fmt o ->
      match o with
      | Store.Timed { mflops; cycles } ->
        Format.fprintf fmt "Timed(%.17g,%.17g)" mflops cycles
      | Store.Test_failed -> Format.fprintf fmt "Test_failed"
      | Store.Illegal -> Format.fprintf fmt "Illegal")
    ( = )

let test_keys () =
  let key ?(kernel = "lil-A") ?(machine = "P4E") ?(n = 80000) ?(seed = 7) ?(check = false)
      ?fidelity ?(params = "p1") () =
    Store.probe_key ~kernel ~machine ~context:"out-of-cache" ~n ~seed ~check ?fidelity
      ~params ()
  in
  Alcotest.(check string) "deterministic" (key ()) (key ());
  List.iter
    (fun (label, other) ->
      Alcotest.(check bool) (label ^ " changes the key") false (key () = other))
    [ ("kernel edit", key ~kernel:"lil-B" ());
      ("machine", key ~machine:"Opteron" ());
      ("problem size", key ~n:1024 ());
      ("workload seed", key ~seed:8 ());
      ("per-pass checking", key ~check:true ());
      ("parameter point", key ~params:"p2" ());
      ("sampled fidelity", key ~fidelity:"sampled" ());
    ];
  (* sampled keys are themselves deterministic and distinct per fidelity *)
  Alcotest.(check string) "sampled deterministic" (key ~fidelity:"sampled" ())
    (key ~fidelity:"sampled" ());
  Alcotest.(check bool) "fidelities do not alias" false
    (key ~fidelity:"sampled" () = key ~fidelity:"exact" ());
  (* length-prefixed digesting: shifting a boundary must not alias *)
  Alcotest.(check bool) "no field-boundary aliasing" false
    (Store.digest [ "ab"; "c" ] = Store.digest [ "a"; "bc" ])

let test_round_trip () =
  let path = tmp_store () in
  let st = Store.open_ ~seed:42 path in
  Alcotest.(check (option int)) "seed in header" (Some 42) (Store.seed st);
  let mflops = 1234.5678901234567 in
  Store.add st ~key:"k-timed" ~params:"SV:N" ~prov:"ddot@P4E" (Store.Timed { mflops; cycles = 9.75e6 });
  Store.add st ~key:"k-fail" ~params:"" ~prov:"" Store.Test_failed;
  Store.add st ~key:"k-illegal" ~params:"" ~prov:"" Store.Illegal;
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check (option int)) "seed survives reopen" (Some 42) (Store.seed st2);
  Alcotest.(check int) "entries" 3 (Store.entries st2);
  Alcotest.(check int) "no corrupt lines" 0 (Store.corrupt st2);
  Alcotest.(check (option outcome)) "timed reloads bit-identically"
    (Some (Store.Timed { mflops; cycles = 9.75e6 }))
    (Store.find st2 ~key:"k-timed");
  Alcotest.(check (option outcome)) "test-failed" (Some Store.Test_failed)
    (Store.find st2 ~key:"k-fail");
  Alcotest.(check (option outcome)) "illegal" (Some Store.Illegal)
    (Store.find st2 ~key:"k-illegal");
  Alcotest.(check (option outcome)) "miss" None (Store.find st2 ~key:"absent");
  Alcotest.(check int) "hit counter" 3 (Store.hits st2);
  Alcotest.(check int) "miss counter" 1 (Store.misses st2);
  Store.close st2;
  Store.clear path

let test_escaping () =
  let path = tmp_store () in
  let st = Store.open_ path in
  let key = "odd \"key\"\twith\nnewline \\ backslash" in
  Store.add st ~key ~params:"p \"q\"\n" ~prov:"x\\y" Store.Illegal;
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "no corrupt lines" 0 (Store.corrupt st2);
  Alcotest.(check (option outcome)) "escaped key round-trips" (Some Store.Illegal)
    (Store.find st2 ~key);
  Store.close st2;
  Store.clear path

let test_truncated_journal_recovery () =
  let path = tmp_store () in
  let st = Store.open_ ~seed:1 path in
  Store.add st ~key:"a" ~params:"" ~prov:"" (Store.Timed { mflops = 1.0; cycles = 2.0 });
  Store.add st ~key:"b" ~params:"" ~prov:"" Store.Test_failed;
  Store.close st;
  (* a crash mid-append leaves a torn trailing line *)
  append_raw path "{\"k\":\"c\",\"o\":\"timed\",\"mflo";
  let st2 = Store.open_ path in
  Alcotest.(check int) "intact entries survive" 2 (Store.entries st2);
  Alcotest.(check int) "torn line counted" 1 (Store.corrupt st2);
  (* the store stays appendable after recovery *)
  Store.add st2 ~key:"d" ~params:"" ~prov:"" Store.Illegal;
  Store.close st2;
  let st3 = Store.open_ path in
  Alcotest.(check int) "append after recovery persisted" 3 (Store.entries st3);
  Alcotest.(check (option outcome)) "new entry" (Some Store.Illegal)
    (Store.find st3 ~key:"d");
  Store.close st3;
  Store.clear path

let test_corrupt_middle_line () =
  let path = tmp_store () in
  let st = Store.open_ path in
  Store.add st ~key:"a" ~params:"" ~prov:"" Store.Illegal;
  Store.close st;
  append_raw path "complete garbage, not json\n";
  append_raw path "{\"k\":\"b\",\"o\":\"timed\",\"mflops\":3.5,\"cycles\":7,\"params\":\"\",\"prov\":\"\"}\n";
  let st2 = Store.open_ path in
  Alcotest.(check int) "good lines around the bad one load" 2 (Store.entries st2);
  Alcotest.(check int) "bad line counted" 1 (Store.corrupt st2);
  Alcotest.(check (option outcome)) "record after the bad line loads"
    (Some (Store.Timed { mflops = 3.5; cycles = 7.0 }))
    (Store.find st2 ~key:"b");
  Store.close st2;
  Store.clear path

(* The stat report splits skipped lines into the two classes a replica
   operator needs to tell apart: mid-file corruption (data loss) and a
   torn trailing line (a crash — or another writer — mid-append). *)
let test_stat_torn_vs_corrupt () =
  let path = tmp_store () in
  let st = Store.open_ ~seed:5 path in
  Store.add st ~key:"a" ~params:"" ~prov:"" (Store.Timed { mflops = 1.0; cycles = 2.0 });
  Store.close st;
  append_raw path "mid-file garbage\n";
  append_raw path "{\"k\":\"b\",\"o\":\"illegal\",\"params\":\"\",\"prov\":\"\"}\n";
  append_raw path "{\"k\":\"c\",\"o\":\"timed\",\"mflo" (* truncated mid-line *);
  let st2 = Store.open_ path in
  let s = Store.stat st2 in
  Alcotest.(check int) "entries" 2 s.Store.st_entries;
  Alcotest.(check int) "one corrupt (mid-file) line" 1 s.Store.st_corrupt;
  Alcotest.(check int) "one torn (trailing) line" 1 s.Store.st_torn;
  Alcotest.(check int) "corrupt() stays the total skipped" 2 (Store.corrupt st2);
  Alcotest.(check int) "torn accessor" 1 (Store.torn st2);
  (* the JSON stat carries both counters, always present *)
  let fields = Store.Json.parse (Store.stat_json s) in
  Alcotest.(check (option (float 0.0))) "corrupt_lines in json" (Some 1.0)
    (Store.Json.num fields "corrupt_lines");
  Alcotest.(check (option (float 0.0))) "torn_lines in json" (Some 1.0)
    (Store.Json.num fields "torn_lines");
  Alcotest.(check (option (float 0.0))) "seed in json" (Some 5.0)
    (Store.Json.num fields "seed");
  Store.close st2;
  Store.clear path

(* The read-only iteration API the warm-start seeder scans with:
   fold_entries walks every entry in sorted-key order (deterministic
   regardless of append order), iter_tunes yields only timed tune-level
   entries, and the stat report splits the tune/probe populations. *)
let test_fold_and_tunes () =
  let path = tmp_store () in
  let st = Store.open_ ~seed:3 path in
  (* appended out of key order on purpose *)
  Store.add st ~key:"zz-probe" ~params:"SV:N" ~prov:"ddot@P4E"
    (Store.Timed { mflops = 10.0; cycles = 1.0 });
  Store.add st ~key:"mm-tune" ~params:"{\"best\":\"...\"}" ~prov:"tune ddot@P4E"
    (Store.Timed { mflops = 20.0; cycles = 2.0 });
  Store.add st ~key:"aa-probe" ~params:"" ~prov:"ddot@P4E" Store.Test_failed;
  Store.add st ~key:"nn-tune-failed" ~params:"" ~prov:"tune dasum@P4E" Store.Illegal;
  Alcotest.(check bool) "tune prov classifier" true (Store.is_tune_prov "tune ddot@P4E");
  Alcotest.(check bool) "probe prov is not a tune" false (Store.is_tune_prov "ddot@P4E");
  let keys =
    Store.fold_entries st ~init:[] ~f:(fun acc ~key ~params:_ ~prov:_ _ -> key :: acc)
  in
  Alcotest.(check (list string)) "fold_entries walks in sorted-key order"
    [ "aa-probe"; "mm-tune"; "nn-tune-failed"; "zz-probe" ]
    (List.rev keys);
  let tunes = ref [] in
  Store.iter_tunes st ~f:(fun ~key ~params:_ ~prov ~mflops ->
      tunes := (key, prov, mflops) :: !tunes);
  Alcotest.(check (list (triple string string (float 0.0))))
    "iter_tunes yields only the timed tune entries"
    [ ("mm-tune", "tune ddot@P4E", 20.0) ]
    !tunes;
  let s = Store.stat st in
  Alcotest.(check int) "stat: two tune entries" 2 s.Store.st_tunes;
  Alcotest.(check int) "stat: two probe entries" 2 s.Store.st_probes;
  Alcotest.(check int) "tunes + probes = entries" s.Store.st_entries
    (s.Store.st_tunes + s.Store.st_probes);
  (* the split survives a reopen (it is recomputed from the journal) *)
  Store.close st;
  let st2 = Store.open_ path in
  let s2 = Store.stat st2 in
  Alcotest.(check int) "tunes after reopen" 2 s2.Store.st_tunes;
  Alcotest.(check int) "probes after reopen" 2 s2.Store.st_probes;
  Store.close st2;
  Store.clear path

let test_evict () =
  let path = tmp_store () in
  let now = ref 100.0 in
  let st = Store.open_ ~clock:(fun () -> !now) path in
  Store.add st ~key:"old" ~params:"" ~prov:"" (Store.Timed { mflops = 1.0; cycles = 0.0 });
  now := 900.0;
  Store.add st ~key:"new" ~params:"" ~prov:"" (Store.Timed { mflops = 2.0; cycles = 0.0 });
  Alcotest.(check int) "age bound drops only the old entry" 1
    (Store.evict ~max_age:500.0 ~now:1000.0 st);
  Alcotest.(check (option outcome)) "old evicted" None (Store.find st ~key:"old");
  Alcotest.(check (option outcome)) "live entry preserved"
    (Some (Store.Timed { mflops = 2.0; cycles = 0.0 }))
    (Store.find st ~key:"new");
  (* eviction compacted the journal: the dropped entry is gone on disk *)
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "survivor persisted" 1 (Store.entries st2);
  (* size bound: oldest-first until under budget *)
  for i = 0 to 9 do
    Store.add st2
      ~key:(Printf.sprintf "k%d" i)
      ~params:"" ~prov:""
      (Store.Timed { mflops = float_of_int i; cycles = 0.0 })
  done;
  let before = Store.bytes st2 in
  let dropped = Store.evict ~max_bytes:(before / 2) ~now:2000.0 st2 in
  Alcotest.(check bool) "dropped some" true (dropped > 0);
  Alcotest.(check bool) "kept some" true (Store.entries st2 > 0);
  Alcotest.(check bool) "under budget" true (Store.bytes st2 <= before / 2);
  (* entries without timestamps count as arbitrarily old: the k*
     entries (journaled under the default clock) go before "new",
     which still carries its ts=900 stamp from the first handle *)
  Alcotest.(check (option outcome)) "oldest untimestamped evicted first" None
    (Store.find st2 ~key:"k0");
  Alcotest.(check bool) "timestamped entry outlives them" true
    (Store.find st2 ~key:"new" <> None);
  Store.close st2;
  Store.clear path

let test_tune_key () =
  let key ?strategy ?fidelity ?extensions ?(n = 100) ?(flops = 2.0) () =
    Store.tune_key ?strategy ?fidelity ?extensions ~kernel:"fp" ~machine:"P4E"
      ~context:"out-of-cache" ~n ~seed:0 ~check:false ~flops_per_n:flops ()
  in
  Alcotest.(check string) "deterministic" (key ()) (key ());
  Alcotest.(check bool) "flops_per_n changes the key" false (key () = key ~flops:3.0 ());
  Alcotest.(check bool) "n changes the key" false (key () = key ~n:200 ());
  Alcotest.(check bool) "strategy changes the key" false
    (key () = key ~strategy:"surrogate" ());
  Alcotest.(check bool) "fidelity changes the key" false
    (key () = key ~fidelity:"sampled" ());
  Alcotest.(check bool) "extensions change the key" false
    (key () = key ~extensions:true ());
  Alcotest.(check string) "extensions:false is the old key" (key ())
    (key ~extensions:false ());
  (* tune keys never collide with probe keys of the same inputs *)
  Alcotest.(check bool) "disjoint from probe keys" false
    (key ()
    = Store.probe_key ~kernel:"fp" ~machine:"P4E" ~context:"out-of-cache" ~n:100 ~seed:0
        ~check:false ~params:"" ())

let test_compact () =
  let path = tmp_store () in
  let st = Store.open_ ~seed:9 path in
  (* rewrite the same key several times: the journal grows, the index
     keeps the last value *)
  for i = 1 to 5 do
    Store.add st ~key:"hot" ~params:"" ~prov:""
      (Store.Timed { mflops = float_of_int i; cycles = 1.0 })
  done;
  Store.add st ~key:"cold" ~params:"" ~prov:"" Store.Test_failed;
  Alcotest.(check int) "journal has one line per append" 7 (List.length (read_lines path));
  Store.compact st;
  Alcotest.(check int) "compacted to header + one line per key" 3
    (List.length (read_lines path));
  (* the handle stays usable after the atomic rename *)
  Store.add st ~key:"late" ~params:"" ~prov:"" Store.Illegal;
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "entries preserved" 3 (Store.entries st2);
  Alcotest.(check (option int)) "header seed preserved" (Some 9) (Store.seed st2);
  Alcotest.(check (option outcome)) "last write wins"
    (Some (Store.Timed { mflops = 5.0; cycles = 1.0 }))
    (Store.find st2 ~key:"hot");
  Alcotest.(check (option outcome)) "append after compact persisted" (Some Store.Illegal)
    (Store.find st2 ~key:"late");
  Store.close st2;
  Store.clear path;
  Alcotest.(check bool) "clear removes the journal" false (Sys.file_exists path)

let test_concurrent_writers () =
  let path = tmp_store () in
  let st = Store.open_ path in
  let n = 200 in
  let _ : unit list =
    Ifko_par.Par.Pool.with_pool ~jobs:4 (fun pool ->
        Ifko_par.Par.Pool.map pool
          (fun i ->
            Store.add st ~key:(Printf.sprintf "key-%03d" i) ~params:"" ~prov:""
              (Store.Timed { mflops = float_of_int i; cycles = float_of_int (2 * i) }))
          (List.init n (fun i -> i)))
  in
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "every domain's appends persisted" n (Store.entries st2);
  Alcotest.(check int) "no interleaving corrupted a line" 0 (Store.corrupt st2);
  for i = 0 to n - 1 do
    Alcotest.(check (option outcome)) "value intact"
      (Some (Store.Timed { mflops = float_of_int i; cycles = float_of_int (2 * i) }))
      (Store.find st2 ~key:(Printf.sprintf "key-%03d" i))
  done;
  Store.close st2;
  Store.clear path

(* Opening a store for its statistics never writes: not a header into
   an empty journal, not a missing shard file into a directory. *)
let test_stat_never_writes () =
  let rec snapshot path =
    if Sys.is_directory path then
      List.concat_map
        (fun f -> snapshot (Filename.concat path f))
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ (path, read_lines path) ]
  in
  let stat_of path =
    let st = Store.open_ path in
    ignore (Store.stat_json (Store.stat st));
    Store.close st
  in
  let unchanged label path =
    let before = snapshot path in
    stat_of path;
    Alcotest.(check (list (pair string (list string)))) label before (snapshot path)
  in
  let empty = tmp_store () in
  close_out (open_out_bin empty);
  unchanged "empty journal" empty;
  Alcotest.(check int) "still zero bytes" 0 (Unix.stat empty).Unix.st_size;
  Store.clear empty;
  let file = tmp_store () in
  let st = Store.open_ ~seed:4 file in
  Store.add st ~key:"a" ~params:"" ~prov:"" Store.Illegal;
  Store.close st;
  unchanged "journal file" file;
  Store.clear file;
  let dir = tmp_store () in
  let st = Store.open_ ~shards:4 dir in
  Store.add st ~key:(Store.digest [ "one" ]) ~params:"" ~prov:"" Store.Illegal;
  Store.close st;
  (* shards that were never written to may be missing *)
  Array.iter
    (fun f ->
      let f = Filename.concat dir f in
      if Filename.check_suffix f ".jsonl" && List.length (read_lines f) = 1 then Sys.remove f)
    (Sys.readdir dir);
  unchanged "shard directory" dir;
  Alcotest.(check int) "only store.meta and the written shard" 2
    (Array.length (Sys.readdir dir));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let suite =
  [ Alcotest.test_case "content-addressed keys" `Quick test_keys;
    Alcotest.test_case "journal round-trip" `Quick test_round_trip;
    Alcotest.test_case "escaping round-trip" `Quick test_escaping;
    Alcotest.test_case "truncated-journal recovery" `Quick test_truncated_journal_recovery;
    Alcotest.test_case "corrupt middle line" `Quick test_corrupt_middle_line;
    Alcotest.test_case "stat splits torn from corrupt" `Quick test_stat_torn_vs_corrupt;
    Alcotest.test_case "fold_entries and iter_tunes" `Quick test_fold_and_tunes;
    Alcotest.test_case "age- and size-bounded eviction" `Quick test_evict;
    Alcotest.test_case "tune keys" `Quick test_tune_key;
    Alcotest.test_case "compaction" `Quick test_compact;
    Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
    Alcotest.test_case "stat never writes" `Quick test_stat_never_writes;
  ]
