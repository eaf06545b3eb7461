(* Serve-daemon tests: protocol round-trips and malformed-request
   rejection, the store on both of its shapes (persistence,
   single-flight, eviction, replica reload-on-miss), an end-to-end
   daemon on a Unix socket with concurrent clients whose replies must be
   bit-identical to a sequential, storeless Driver.tune, the CLI's
   Driver.tune reading the directory a daemon filled, and the files a
   daemon leaves (or ignores) in its directory. *)

module Store = Ifko_store.Store
module Json = Store.Json
module Proto = Ifko_serve.Proto
module Server = Ifko_serve.Server
module Client = Ifko_serve.Client

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ddot_src =
  Ifko_blas.Hil_sources.source { Ifko_blas.Defs.routine = Ifko_blas.Defs.Dot; prec = Instr.D }

let dasum_src =
  Ifko_blas.Hil_sources.source
    { Ifko_blas.Defs.routine = Ifko_blas.Defs.Asum; prec = Instr.D }

(* ---------------- protocol ---------------- *)

let test_proto_request_roundtrip () =
  let args =
    { Proto.kernel = "KERNEL k()\nwith \"quotes\" \\ and tabs\t"; machine = "opteron";
      context = "l2"; n = 1234; seed = 7; flops_per_n = 1.5; check = true;
      strategy = "surrogate"; warm_start = true }
  in
  List.iter
    (fun request ->
      let line = Proto.render_request { Proto.req_id = "r-1"; request } in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Proto.parse_request line with
      | Error (_, msg) -> Alcotest.failf "round-trip failed: %s" msg
      | Ok r ->
        Alcotest.(check string) "id" "r-1" r.Proto.req_id;
        Alcotest.(check bool) "request survives" true (r.Proto.request = request))
    [ Proto.Tune args; Proto.Lookup args; Proto.Stat; Proto.Compact; Proto.Shutdown ]

let test_proto_response_roundtrip () =
  let reply =
    { Proto.best = "sv=1;ur=4"; mflops = 1234.5678901234567; fko_mflops = 987.65432101;
      evaluations = 93; hit = false }
  in
  List.iter
    (fun r ->
      let line = Proto.render_response { Proto.resp_id = "c9-3"; reply = r } in
      match Proto.parse_response line with
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg
      | Ok p ->
        Alcotest.(check string) "id" "c9-3" p.Proto.resp_id;
        Alcotest.(check bool) "reply survives" true (p.Proto.reply = r))
    [ Proto.Tuned ("tune", reply);
      Proto.Tuned ("lookup", { reply with Proto.hit = true });
      Proto.Miss;
      Proto.Stats [ ("entries", Json.N 3.0); ("nested", Json.O [ ("a", Json.A [ Json.N 1.0; Json.Null ]) ]) ];
      Proto.Done "compact";
      Proto.Failed "no such machine";
    ];
  (* RFC 8259 whitespace: a pretty-printed file, CRLF included, parses *)
  Alcotest.(check bool) "multi-line object parses" true
    (Json.parse "{\n  \"a\": [1,\r\n    [2, {\"b\": null}]],\n  \"c\": \"d\"\n}\n"
    = [ ("a", Json.A [ Json.N 1.0; Json.A [ Json.N 2.0; Json.O [ ("b", Json.Null) ] ] ]);
        ("c", Json.S "d");
      ])

(* Floats cross the wire at %.17g: the reply a client decodes must be
   the exact bits the daemon computed. *)
let test_proto_float_bits () =
  let mflops = 1.0 /. 3.0 *. 1e4 in
  let reply =
    { Proto.best = "x"; mflops; fko_mflops = 0.1 +. 0.2; evaluations = 1; hit = false }
  in
  match
    Proto.parse_response
      (Proto.render_response { Proto.resp_id = "i"; reply = Proto.Tuned ("tune", reply) })
  with
  | Ok { Proto.reply = Proto.Tuned (_, r); _ } ->
    Alcotest.(check bool) "mflops bit-identical" true
      (Int64.bits_of_float r.Proto.mflops = Int64.bits_of_float mflops);
    Alcotest.(check bool) "fko bit-identical" true
      (Int64.bits_of_float r.Proto.fko_mflops = Int64.bits_of_float (0.1 +. 0.2))
  | Ok _ -> Alcotest.fail "wrong reply shape"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_proto_malformed () =
  let expect_err ?id line =
    match Proto.parse_request line with
    | Ok _ -> Alcotest.failf "accepted malformed line %S" line
    | Error (got_id, msg) ->
      Alcotest.(check bool) "has a message" true (String.length msg > 0);
      Option.iter (fun id -> Alcotest.(check string) "id recovered" id got_id) id
  in
  expect_err "not json at all";
  expect_err "{\"op\":\"tune\"}" (* missing kernel *);
  expect_err ~id:"x1" "{\"id\":\"x1\",\"op\":\"frobnicate\"}";
  expect_err ~id:"x2" "{\"id\":\"x2\"}" (* missing op *);
  expect_err ~id:"x3" "{\"id\":\"x3\",\"op\":\"tune\",\"kernel\":\"k\",\"n\":-5}";
  expect_err ~id:"x4" "{\"id\":\"x4\",\"op\":\"tune\",\"kernel\":\"k\",\"n\":\"big\"}";
  expect_err ~id:"x5" "{\"id\":\"x5\",\"op\":\"tune\",\"kernel\":\"   \"}";
  (* integers past OCaml's int range are refused, not wrapped *)
  List.iter
    (fun (field, v) ->
      let line =
        Printf.sprintf "{\"id\":\"big\",\"op\":\"tune\",\"kernel\":\"k\",\"%s\":%s}" field v
      in
      match Proto.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %s = %s" field v
      | Error (_, msg) ->
        Alcotest.(check string) (field ^ " = " ^ v)
          (Printf.sprintf "field %S must be an integer" field)
          msg)
    [ ("seed", "1e19"); ("seed", "4.7e18"); ("n", "1e19"); ("n", "4.7e18");
      ("seed", "4611686018427387904") ];
  (match
     Proto.parse_request
       "{\"id\":\"low\",\"op\":\"tune\",\"kernel\":\"k\",\"seed\":-4611686018427387904}"
   with
  | Ok { Proto.request = Proto.Tune a; _ } ->
    Alcotest.(check int) "seed -2^62 kept exactly" min_int a.Proto.seed
  | _ -> Alcotest.fail "seed -2^62 rejected");
  (* omitted optional fields fall back to the documented defaults *)
  match Proto.parse_request "{\"id\":\"ok\",\"op\":\"tune\",\"kernel\":\"K\"}" with
  | Ok { Proto.request = Proto.Tune a; _ } ->
    Alcotest.(check bool) "defaults" true (a = Proto.default_args ~kernel:"K")
  | _ -> Alcotest.fail "minimal tune request rejected"

(* ---------------- one store, two shapes ---------------- *)

(* The store tests run on both shapes of the one store: a journal file
   (one shard) and a 4-shard directory. *)
let shapes = [ ("file", None); ("4-shard dir", Some 4) ]

let on_each_shape f =
  List.iter
    (fun (shape, shards) ->
      let path = tmp_dir "ifko_store" in
      Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f ~shape ?shards path))
    shapes

let test_shard_persistence () =
  let dir = tmp_dir "ifko_shards" in
  let st = Store.open_ ~shards:4 dir in
  Alcotest.(check int) "geometry" 4 (Store.shard_count st);
  let keys = List.init 64 (fun i -> Store.digest [ "key"; string_of_int i ]) in
  List.iteri
    (fun i key ->
      Store.add st ~key ~params:"p" ~prov:"t"
        (Store.Timed { mflops = float_of_int i; cycles = 0.0 }))
    keys;
  Store.close st;
  (* journals actually spread: with 64 MD5 keys over 4 shards, every
     shard must hold something *)
  let sizes =
    List.init 4 (fun i ->
        let ic = open_in_bin (Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)) in
        let n = in_channel_length ic in
        close_in ic;
        n)
  in
  List.iter (fun n -> Alcotest.(check bool) "shard non-trivial" true (n > 20)) sizes;
  (* reopen with a different ?shards: store.meta wins, keys still found *)
  let st2 = Store.open_ ~shards:13 dir in
  Alcotest.(check int) "meta wins over argument" 4 (Store.shard_count st2);
  Alcotest.(check int) "entries" 64 (Store.entries st2);
  List.iteri
    (fun i key ->
      match Store.find st2 ~key with
      | Some (Store.Timed { mflops; _ }) ->
        Alcotest.(check (float 0.0)) "value" (float_of_int i) mflops
      | _ -> Alcotest.fail "entry lost across reopen")
    keys;
  Alcotest.(check int) "hits counted" 64 (Store.hits st2);
  Store.close st2;
  (* a directory is only ever a store when it says so *)
  let plain = tmp_dir "ifko_plain" in
  Sys.mkdir plain 0o755;
  Alcotest.check_raises "plain directory refused"
    (Invalid_argument (Printf.sprintf "Store.open_: %s has no valid store.meta" plain))
    (fun () -> ignore (Store.open_ plain));
  Alcotest.(check bool) "and left alone" true (Sys.readdir plain = [||]);
  rm_rf plain;
  rm_rf dir

let test_shard_single_flight () =
  on_each_shape (fun ~shape ?shards path ->
      let st = Store.open_ ?shards path in
      let key = Store.digest [ "shared" ] in
      let computes = Atomic.make 0 in
      let barrier = Atomic.make 0 in
      let compute () =
        Atomic.incr computes;
        Thread.delay 0.05;
        (* slow, so the other threads pile onto the flight *)
        Store.Timed { mflops = 77.0; cycles = 0.0 }
      in
      let results = Array.make 8 None in
      let threads =
        Array.init 8 (fun i ->
            Thread.create
              (fun () ->
                Atomic.incr barrier;
                while Atomic.get barrier < 8 do
                  Thread.yield ()
                done;
                results.(i) <-
                  Some (Store.cached ~store:st ~key ~params:"" ~prov:"" compute))
              ())
      in
      Array.iter Thread.join threads;
      Alcotest.(check int) (shape ^ ": computed exactly once") 1 (Atomic.get computes);
      Array.iter
        (fun r ->
          Alcotest.(check bool) (shape ^ ": every thread got the outcome") true
            (r = Some (Store.Timed { mflops = 77.0; cycles = 0.0 })))
        results;
      Alcotest.(check int) (shape ^ ": one miss") 1 (Store.misses st);
      Alcotest.(check int) (shape ^ ": the rest hit") 7 (Store.hits st);
      Alcotest.(check int) (shape ^ ": one journal entry") 1 (Store.entries st);
      Store.close st)

let test_shard_eviction () =
  on_each_shape (fun ~shape ?shards path ->
      let now = ref 1000.0 in
      let st = Store.open_ ?shards ~clock:(fun () -> !now) path in
      let old_keys = List.init 10 (fun i -> Store.digest [ "old"; string_of_int i ]) in
      let new_keys = List.init 10 (fun i -> Store.digest [ "new"; string_of_int i ]) in
      List.iter
        (fun key ->
          Store.add st ~key ~params:"" ~prov:"" (Store.Timed { mflops = 1.0; cycles = 0.0 }))
        old_keys;
      now := 2000.0;
      List.iter
        (fun key ->
          Store.add st ~key ~params:"" ~prov:"" (Store.Timed { mflops = 2.0; cycles = 0.0 }))
        new_keys;
      (* age bound: everything older than 500s at t=2100 goes *)
      let dropped = Store.evict ~max_age:500.0 ~now:2100.0 st in
      Alcotest.(check int) (shape ^ ": old generation evicted") 10 dropped;
      List.iter
        (fun key ->
          Alcotest.(check bool) (shape ^ ": old gone") true (Store.find st ~key = None))
        old_keys;
      List.iter
        (fun key ->
          Alcotest.(check bool) (shape ^ ": live entries preserved") true
            (Store.find st ~key <> None))
        new_keys;
      (* the eviction compacted: reopening sees the same picture *)
      Store.close st;
      let st2 = Store.open_ ~clock:(fun () -> !now) path in
      Alcotest.(check int) (shape ^ ": survivors persisted") 10 (Store.entries st2);
      (* size bound: squeeze to a handful of entries *)
      let s = Store.stat st2 in
      let dropped2 = Store.evict ~max_bytes:(s.Store.st_bytes / 2) ~now:2200.0 st2 in
      Alcotest.(check bool) (shape ^ ": size bound dropped something") true (dropped2 > 0);
      Alcotest.(check bool) (shape ^ ": but not everything") true (Store.entries st2 > 0);
      let s2 = Store.stat st2 in
      Alcotest.(check bool) (shape ^ ": bytes under budget") true
        (s2.Store.st_bytes <= s.Store.st_bytes / 2);
      Store.close st2)

let test_shard_replica_reload () =
  on_each_shape (fun ~shape ?shards path ->
      let a = Store.open_ ?shards ~replica:true path in
      let b = Store.open_ ~replica:true path in
      (* b opened before a wrote anything; the miss triggers a reload *)
      let key = Store.digest [ "cross-process" ] in
      Alcotest.(check bool) (shape ^ ": cold miss") true (Store.find b ~key = None);
      Store.add a ~key ~params:"p" ~prov:"a" (Store.Timed { mflops = 5.5; cycles = 0.0 });
      (match Store.find b ~key with
      | Some (Store.Timed { mflops; _ }) ->
        Alcotest.(check (float 0.0)) (shape ^ ": reload-on-miss sees a's write") 5.5 mflops
      | _ -> Alcotest.failf "%s: replica miss not reloaded" shape);
      (* and the other direction *)
      let key2 = Store.digest [ "other-way" ] in
      Store.add b ~key:key2 ~params:"" ~prov:"b" Store.Illegal;
      Alcotest.(check bool) (shape ^ ": a sees b's write") true
        (Store.find a ~key:key2 = Some Store.Illegal);
      Store.close a;
      Store.close b)

let test_store_refresh_torn_tail () =
  (* refresh must not consume a torn (in-flight) tail: once the
     concurrent writer finishes the line, a later refresh loads it *)
  let path = Filename.temp_file "ifko_refresh" ".jsonl" in
  Sys.remove path;
  let a = Store.open_ path in
  let b = Store.open_ path in
  let line =
    "{\"k\":\"x\",\"o\":\"timed\",\"mflops\":1.5,\"cycles\":2,\"params\":\"\",\"prov\":\"\"}"
  in
  let half = String.length line / 2 in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (String.sub line 0 half);
  flush oc;
  Store.refresh b;
  Alcotest.(check bool) "half-written line invisible" true (Store.find b ~key:"x" = None);
  output_string oc (String.sub line half (String.length line - half) ^ "\n");
  close_out oc;
  Store.refresh b;
  Alcotest.(check bool) "completed line visible after refresh" true
    (Store.find b ~key:"x" = Some (Store.Timed { mflops = 1.5; cycles = 2.0 }));
  Store.close a;
  Store.close b;
  Store.clear path

(* ---------------- end-to-end daemon ---------------- *)

(* Run a daemon on a thread; returns once it listens.  The result
   stops it gracefully and waits for it to exit. *)
let start_daemon config =
  let m = Mutex.create () and cv = Condition.create () and up = ref false in
  let th =
    Thread.create
      (fun () ->
        Server.run
          ~ready:(fun () ->
            Mutex.lock m;
            up := true;
            Condition.signal cv;
            Mutex.unlock m)
          config)
      ()
  in
  Mutex.lock m;
  while not !up do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  fun () ->
    (try Client.with_client config.Server.listen (fun c -> ignore (Client.shutdown c))
     with _ -> ());
    Thread.join th

(* Run [f listen] against a daemon over the store directory [dir]; the
   daemon has stopped (even when [f] failed) by the time this returns,
   and [dir] is left in place. *)
let serve_dir ?(jobs = 2) ?(shards = 4) dir f =
  let listen = `Unix (tmp_dir "ifko_sock" ^ ".sock") in
  let stop =
    start_daemon { (Server.default_config ~store_dir:dir listen) with Server.jobs; shards }
  in
  Fun.protect ~finally:stop (fun () -> f listen)

let with_daemon ?jobs ?shards f =
  let dir = tmp_dir "ifko_served" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> serve_dir ?jobs ?shards dir f)

(* The bit-identity contract: the daemon's reply equals a local
   sequential, storeless tune — same best point, same MFLOPS bits,
   same evaluation count — no matter how many clients raced. *)
let reference_tune src ~n ~seed ~flops_per_n =
  let compiled =
    src |> Ifko_hil.Parser.parse_kernel |> Ifko_hil.Typecheck.check
    |> Ifko_codegen.Lower.lower
  in
  let spec = Ifko_search.Generic.spec ~seed compiled in
  Ifko_search.Driver.tune ~seed ~cfg:Ifko_machine.Config.p4e
    ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n ~flops_per_n
    ~test:(Ifko_search.Generic.test compiled spec) compiled

let check_against_reference src (r : Proto.tune_reply) ~n ~seed ~flops_per_n =
  let t = reference_tune src ~n ~seed ~flops_per_n in
  Alcotest.(check string) "best point bit-identical"
    (Ifko_transform.Params.canonical t.Ifko_search.Driver.best_params)
    r.Proto.best;
  Alcotest.(check bool) "mflops bit-identical" true
    (Int64.bits_of_float t.Ifko_search.Driver.ifko_mflops
    = Int64.bits_of_float r.Proto.mflops);
  Alcotest.(check bool) "fko mflops bit-identical" true
    (Int64.bits_of_float t.Ifko_search.Driver.fko_mflops
    = Int64.bits_of_float r.Proto.fko_mflops);
  Alcotest.(check int) "evaluations" t.Ifko_search.Driver.evaluations r.Proto.evaluations

let test_daemon_tune_deterministic () =
  let n = 600 and seed = 3 and flops_per_n = 2.0 in
  let args = { (Proto.default_args ~kernel:ddot_src) with Proto.n; seed } in
  with_daemon (fun listen ->
      (* several clients race tunes of the same kernel plus a different
         one; every ddot reply must agree and match the reference *)
      let replies = Array.make 4 None in
      let threads =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                Client.with_client listen (fun c ->
                    let a =
                      if i = 3 then { args with Proto.kernel = dasum_src } else args
                    in
                    replies.(i) <- Some (Client.tune c a)))
              ())
      in
      Array.iter Thread.join threads;
      let oks =
        Array.to_list replies
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (function
             | Some (Ok r) -> r
             | Some (Error e) -> Alcotest.failf "tune failed: %s" e
             | None -> Alcotest.fail "client did not finish")
      in
      (match oks with
      | first :: rest ->
        List.iter
          (fun (r : Proto.tune_reply) ->
            Alcotest.(check bool) "concurrent replies identical" true
              (r.Proto.best = first.Proto.best
              && Int64.bits_of_float r.Proto.mflops = Int64.bits_of_float first.Proto.mflops
              && r.Proto.evaluations = first.Proto.evaluations))
          rest;
        check_against_reference ddot_src first ~n ~seed ~flops_per_n
      | [] -> Alcotest.fail "no replies");
      (match replies.(3) with
      | Some (Ok r) -> check_against_reference dasum_src r ~n ~seed ~flops_per_n
      | _ -> Alcotest.fail "dasum tune failed");
      (* warm phase: lookup hits, tune comes back from the result cache *)
      Client.with_client listen (fun c ->
          (match Client.lookup c args with
          | Ok (Some r) ->
            Alcotest.(check bool) "warm lookup hits" true r.Proto.hit;
            check_against_reference ddot_src r ~n ~seed ~flops_per_n
          | Ok None -> Alcotest.fail "warm lookup missed"
          | Error e -> Alcotest.failf "lookup failed: %s" e);
          (match Client.tune c args with
          | Ok r -> Alcotest.(check bool) "warm tune is a cache hit" true r.Proto.hit
          | Error e -> Alcotest.failf "warm tune failed: %s" e);
          (* unknown kernel: lookups never compute *)
          match
            Client.lookup c { args with Proto.kernel = dasum_src; Proto.seed = 99 }
          with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "lookup computed a cold result"
          | Error e -> Alcotest.failf "cold lookup failed: %s" e))

(* One object of the daemon's stat reply, as its (key, value) fields. *)
let stat_object listen obj =
  Client.with_client listen (fun c ->
      match Client.stat c with
      | Error e -> Alcotest.failf "stat failed: %s" e
      | Ok fields -> (
        match List.assoc_opt obj fields with
        | Some (Proto.Json.O o) -> o
        | _ -> Alcotest.failf "stat object %s missing" obj))

let stat_num listen obj k =
  match List.assoc_opt k (stat_object listen obj) with
  | Some (Proto.Json.N v) -> int_of_float v
  | _ -> Alcotest.failf "stat field %s.%s missing" obj k

(* Two concurrent tunes of one kernel at different problem sizes: the
   tune-level single-flight cannot merge them (different keys), so any
   sharing happens in the daemon-wide codecache — candidate params are
   size-independent, so the batch compiles each candidate once.  The
   replies must still be bit-identical to sequential, storeless,
   cache-less local tunes, and the stat reply must surface how much
   compilation the batch skipped. *)
let test_daemon_shared_compile_batch () =
  let seed = 3 and flops_per_n = 2.0 in
  let n_of i = if i = 0 then 600 else 800 in
  with_daemon (fun listen ->
      let replies = Array.make 2 None in
      let threads =
        Array.init 2 (fun i ->
            Thread.create
              (fun () ->
                Client.with_client listen (fun c ->
                    let a =
                      { (Proto.default_args ~kernel:ddot_src) with Proto.n = n_of i; seed }
                    in
                    replies.(i) <- Some (Client.tune c a)))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok r) ->
            check_against_reference ddot_src r ~n:(n_of i) ~seed ~flops_per_n
          | Some (Error e) -> Alcotest.failf "tune %d failed: %s" i e
          | None -> Alcotest.failf "client %d did not finish" i)
        replies;
      let num = stat_num listen in
      Alcotest.(check bool) "candidates were compiled" true (num "codecache" "misses" > 0);
      Alcotest.(check bool) "the sibling tune reused the batch" true
        (num "codecache" "hits" > 0))

(* The daemon lowers each kernel source once: a tune then a lookup of
   ddot lower it once, and a later cold tune at another N runs on that
   same shared lowering yet matches a storeless tune of a freshly
   lowered kernel (a pass that mutated the shared lowering would show
   here).  A rejected kernel is never stored and fails the same way
   twice, and sources past the byte bound drop the table instead of
   growing it. *)
let test_daemon_lowering_memo () =
  let seed = 3 and flops_per_n = 2.0 in
  let args n = { (Proto.default_args ~kernel:ddot_src) with Proto.n; seed } in
  with_daemon (fun listen ->
      let num = stat_num listen "server" in
      let tune n =
        match Client.with_client listen (fun c -> Client.tune c (args n)) with
        | Ok r -> check_against_reference ddot_src r ~n ~seed ~flops_per_n
        | Error e -> Alcotest.failf "tune at n=%d failed: %s" n e
      in
      tune 600;
      (match Client.with_client listen (fun c -> Client.lookup c (args 600)) with
      | Ok (Some r) -> Alcotest.(check bool) "lookup hits the store" true r.Proto.hit
      | Ok None -> Alcotest.fail "lookup missed"
      | Error e -> Alcotest.failf "lookup failed: %s" e);
      Alcotest.(check int) "one lowering" 1 (num "lowering_misses");
      Alcotest.(check bool) "the lookup reused it" true (num "lowering_hits" >= 1);
      tune 800;
      Alcotest.(check int) "the second cold tune reused it" 1 (num "lowering_misses");
      let held = num "lowering_bytes" in
      Alcotest.(check int) "ddot's source held" (String.length ddot_src) held;
      let bad = { (args 600) with Proto.kernel = "KERNEL broken(" } in
      let failure () =
        match Client.with_client listen (fun c -> Client.lookup c bad) with
        | Error msg -> msg
        | Ok _ -> Alcotest.fail "a syntax error was answered"
      in
      let first = failure () in
      Alcotest.(check string) "same failure twice" first (failure ());
      Alcotest.(check int) "rejected kernel lowered each time" 3 (num "lowering_misses");
      Alcotest.(check int) "rejected kernel never held" held (num "lowering_bytes");
      let pad = 900_000 in
      let count = (Server.max_lowering_bytes / pad) + 2 in
      for i = 1 to count do
        let kernel = Printf.sprintf "# %d %s\n%s" i (String.make pad 'x') ddot_src in
        (match
           Client.with_client listen (fun c -> Client.lookup c { (args 600) with Proto.kernel })
         with
        | Ok (Some _) -> ()
        | Ok None -> Alcotest.failf "padded ddot %d missed the store" i
        | Error e -> Alcotest.failf "padded lookup %d failed: %s" i e);
        Alcotest.(check bool)
          (Printf.sprintf "bytes bounded after %d padded sources" i)
          true
          (num "lowering_bytes" <= Server.max_lowering_bytes)
      done;
      Alcotest.(check int) "each padded source lowered once" (3 + count)
        (num "lowering_misses"))

let test_daemon_protocol_errors () =
  with_daemon ~jobs:1 (fun listen ->
      match listen with
      | `Tcp _ -> assert false
      | `Unix path ->
        (* speak raw bytes: a garbage line must produce an error reply on
           the same connection, not a disconnect *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc "this is not json\n";
        output_string oc "{\"id\":\"q1\",\"op\":\"nope\"}\n";
        output_string oc "{\"id\":\"q2\",\"op\":\"stat\"}\n";
        flush oc;
        (match Proto.parse_response (input_line ic) with
        | Ok { Proto.reply = Proto.Failed _; _ } -> ()
        | _ -> Alcotest.fail "garbage line not rejected with an error reply");
        (match Proto.parse_response (input_line ic) with
        | Ok { Proto.resp_id = "q1"; reply = Proto.Failed msg } ->
          Alcotest.(check bool) "message names the op" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "unknown op not rejected with a correlated error");
        (match Proto.parse_response (input_line ic) with
        | Ok { Proto.resp_id = "q2"; reply = Proto.Stats fields } ->
          (match List.assoc_opt "server" fields with
          | Some (Json.O server) ->
            (match List.assoc_opt "errors" server with
            | Some (Json.N e) ->
              Alcotest.(check bool) "errors counted" true (e >= 2.0)
            | _ -> Alcotest.fail "no errors counter")
          | _ -> Alcotest.fail "no server object in stat")
        | _ -> Alcotest.fail "connection unusable after bad lines");
        Unix.close fd)

(* One client cannot grow the daemon's memory without limit: a request
   line past 1 MiB is answered with a failure naming the limit, counted
   as one error, and its connection is closed.  Other connections keep
   working. *)
let test_daemon_line_bound () =
  with_daemon ~jobs:1 (fun listen ->
      let errors () =
        Client.with_client listen (fun c ->
            match Client.stat c with
            | Error e -> Alcotest.failf "stat failed: %s" e
            | Ok fields -> (
              match List.assoc_opt "server" fields with
              | Some (Json.O server) -> (
                match List.assoc_opt "errors" server with
                | Some (Json.N e) -> e
                | _ -> Alcotest.fail "no errors counter")
              | _ -> Alcotest.fail "no server object in stat"))
      in
      let before = errors () in
      let path = match listen with `Unix p -> p | `Tcp _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc (String.make ((1 lsl 20) + 1) 'x');
      flush oc;
      (match Proto.parse_response (input_line ic) with
      | Ok { Proto.reply = Proto.Failed msg; _ } ->
        Alcotest.(check bool) ("message names the limit: " ^ msg) true
          (Test_util.contains msg (string_of_int (1 lsl 20)))
      | _ -> Alcotest.fail "overlong line not rejected with an error reply");
      (match input_line ic with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "connection left open after an overlong line");
      Unix.close fd;
      Alcotest.(check (float 0.0)) "one error counted" (before +. 1.0) (errors ()))

let test_daemon_replica_pair () =
  (* two daemons, one store directory: what one computes, the other
     serves from its result cache via reload-on-miss *)
  let dir = tmp_dir "ifko_repl_store" in
  let sock_a = tmp_dir "ifko_repl_a" ^ ".sock" in
  let sock_b = tmp_dir "ifko_repl_b" ^ ".sock" in
  let mk sock =
    { (Server.default_config ~store_dir:dir (`Unix sock)) with
      Server.replica = true;
      shards = 2;
      jobs = 1;
    }
  in
  let stop_a = start_daemon (mk sock_a) in
  let stop_b = start_daemon (mk sock_b) in
  Fun.protect
    ~finally:(fun () ->
      stop_a ();
      stop_b ();
      rm_rf dir)
    (fun () ->
      let n = 400 and seed = 1 in
      let args = { (Proto.default_args ~kernel:ddot_src) with Proto.n; seed } in
      let computed =
        Client.with_client (`Unix sock_a) (fun c ->
            match Client.tune c args with
            | Ok r -> r
            | Error e -> Alcotest.failf "tune on a failed: %s" e)
      in
      Alcotest.(check bool) "a computed it" false computed.Proto.hit;
      Client.with_client (`Unix sock_b) (fun c ->
          match Client.lookup c args with
          | Ok (Some r) ->
            Alcotest.(check bool) "b's lookup hit a's result" true r.Proto.hit;
            Alcotest.(check string) "same best" computed.Proto.best r.Proto.best;
            Alcotest.(check bool) "same bits" true
              (Int64.bits_of_float computed.Proto.mflops
              = Int64.bits_of_float r.Proto.mflops)
          | Ok None -> Alcotest.fail "replica b missed a's result"
          | Error e -> Alcotest.failf "lookup on b failed: %s" e))

(* Warm starts through the daemon: tuning ddot journals a tune-level
   donor in the shard store; a warm-started surrogate tune of the
   related dasum then opens at ddot's adapted winner.  The reply must
   be bit-identical to a local warm tune seeded with the same donor —
   the daemon path (journal round-trip included) adds nothing and
   loses nothing. *)
let test_daemon_warm_start () =
  let n = 600 and seed = 3 and flops_per_n = 2.0 in
  let local ?strategy ?(warm_start = false) ?donors src =
    let compiled =
      src |> Ifko_hil.Parser.parse_kernel |> Ifko_hil.Typecheck.check
      |> Ifko_codegen.Lower.lower
    in
    let spec = Ifko_search.Generic.spec ~seed compiled in
    Ifko_search.Driver.tune ?strategy ~warm_start ?donors ~seed
      ~cfg:Ifko_machine.Config.p4e ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n
      ~flops_per_n
      ~test:(Ifko_search.Generic.test compiled spec)
      compiled
  in
  (* the local replica of the daemon's journal: ddot's surrogate winner
     as the one donor in the store *)
  let t_ddot = local ~strategy:Ifko_search.Driver.Surrogate ddot_src in
  let donor =
    { Ifko_search.Warmstart.d_kernel = "ddot";
      d_feat = Ifko_analysis.Report.features t_ddot.Ifko_search.Driver.report;
      d_params = t_ddot.Ifko_search.Driver.best_params;
      d_mflops = t_ddot.Ifko_search.Driver.ifko_mflops;
    }
  in
  let warm_ref =
    local ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~donors:[ donor ]
      dasum_src
  in
  (* sanity: with one donor the warm search is genuinely different from
     a cold one (deterministic simulator, so this cannot flake) *)
  let cold_ref = local ~strategy:Ifko_search.Driver.Surrogate dasum_src in
  Alcotest.(check bool) "warm reference differs from cold" true
    (warm_ref.Ifko_search.Driver.evaluations <> cold_ref.Ifko_search.Driver.evaluations
    || warm_ref.Ifko_search.Driver.probes_to_best
       <> cold_ref.Ifko_search.Driver.probes_to_best);
  with_daemon (fun listen ->
      Client.with_client listen (fun c ->
          let args kernel =
            { (Proto.default_args ~kernel) with
              Proto.n;
              seed;
              strategy = "surrogate";
            }
          in
          (* donor phase: the daemon computes and journals ddot's tune *)
          (match Client.tune c (args ddot_src) with
          | Ok r -> Alcotest.(check bool) "ddot computed cold" false r.Proto.hit
          | Error e -> Alcotest.failf "ddot tune failed: %s" e);
          (* warm phase: dasum opens at ddot's adapted winner *)
          match Client.tune c { (args dasum_src) with Proto.warm_start = true } with
          | Error e -> Alcotest.failf "warm dasum tune failed: %s" e
          | Ok r ->
            Alcotest.(check string) "warm best bit-identical to local"
              (Ifko_transform.Params.canonical warm_ref.Ifko_search.Driver.best_params)
              r.Proto.best;
            Alcotest.(check bool) "warm mflops bit-identical" true
              (Int64.bits_of_float warm_ref.Ifko_search.Driver.ifko_mflops
              = Int64.bits_of_float r.Proto.mflops);
            Alcotest.(check bool) "fko mflops bit-identical" true
              (Int64.bits_of_float warm_ref.Ifko_search.Driver.fko_mflops
              = Int64.bits_of_float r.Proto.fko_mflops);
            Alcotest.(check int) "warm evaluations bit-identical"
              warm_ref.Ifko_search.Driver.evaluations r.Proto.evaluations))

(* One store format: the directory a daemon filled answers a CLI-style
   [Driver.tune ~store:(Store.open_ dir)] of the same request without
   computing a single probe, bit-identically, and a warm-started tune
   over it finds the daemon's tune as a donor. *)
let test_daemon_dir_serves_cli () =
  let n = 600 and seed = 3 and flops_per_n = 2.0 in
  let dir = tmp_dir "ifko_one_store" in
  let served =
    serve_dir ~jobs:1 dir (fun listen ->
        Client.with_client listen (fun c ->
            match
              Client.tune c
                { (Proto.default_args ~kernel:ddot_src) with
                  Proto.n;
                  seed;
                  strategy = "surrogate";
                }
            with
            | Ok r -> r
            | Error e -> Alcotest.failf "daemon tune failed: %s" e))
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let tune ?store ?donors ?(warm_start = false) src =
        let compiled =
          src |> Ifko_hil.Parser.parse_kernel |> Ifko_hil.Typecheck.check
          |> Ifko_codegen.Lower.lower
        in
        let spec = Ifko_search.Generic.spec ~seed compiled in
        Ifko_search.Driver.tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start ?store
          ?donors ~seed ~cfg:Ifko_machine.Config.p4e ~context:Ifko_sim.Timer.Out_of_cache
          ~spec ~n ~flops_per_n
          ~test:(Ifko_search.Generic.test compiled spec)
          compiled
      in
      let st = Store.open_ ~seed dir in
      let t = tune ~store:st ddot_src in
      Alcotest.(check int) "zero computed probes" 0 (Store.misses st);
      Alcotest.(check bool) "probes answered" true (Store.hits st > 0);
      Alcotest.(check string) "best bit-identical" served.Proto.best
        (Ifko_transform.Params.canonical t.Ifko_search.Driver.best_params);
      Alcotest.(check bool) "mflops bit-identical" true
        (Int64.bits_of_float served.Proto.mflops
        = Int64.bits_of_float t.Ifko_search.Driver.ifko_mflops);
      Alcotest.(check int) "evaluations" served.Proto.evaluations
        t.Ifko_search.Driver.evaluations;
      (* the daemon's tune is the directory's one donor *)
      let donor =
        match Ifko_search.Warmstart.donors_of_store st with
        | [ d ] -> d
        | ds -> Alcotest.failf "expected the daemon's one donor, found %d" (List.length ds)
      in
      Alcotest.(check string) "donor is the daemon's winner" served.Proto.best
        (Ifko_transform.Params.canonical donor.Ifko_search.Warmstart.d_params);
      let warm = tune ~store:st ~warm_start:true dasum_src in
      Store.close st;
      let warm_ref = tune ~warm_start:true ~donors:[ donor ] dasum_src in
      Alcotest.(check bool) "warm start drew on the daemon's donor" true
        (Ifko_transform.Params.canonical warm.Ifko_search.Driver.best_params
         = Ifko_transform.Params.canonical warm_ref.Ifko_search.Driver.best_params
        && warm.Ifko_search.Driver.evaluations = warm_ref.Ifko_search.Driver.evaluations
        && Int64.bits_of_float warm.Ifko_search.Driver.ifko_mflops
           = Int64.bits_of_float warm_ref.Ifko_search.Driver.ifko_mflops))

(* Daemon tunes run at full fidelity and keep their warm states in
   memory, each tune its own, so the store directory they leave is an
   ordinary store: store.meta and the shard journals, nothing else.
   The stat reply keeps no checkpoint object. *)
let test_daemon_dir_is_a_store () =
  let dir = tmp_dir "ifko_plain_store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let args = { (Proto.default_args ~kernel:ddot_src) with Proto.n = 600; seed = 3 } in
      let stat =
        serve_dir dir (fun listen ->
            Client.with_client listen (fun c ->
                List.iter
                  (fun a ->
                    match Client.tune c a with
                    | Ok r -> Alcotest.(check bool) "computed cold" false r.Proto.hit
                    | Error e -> Alcotest.failf "tune failed: %s" e)
                  [ args;
                    { args with
                      Proto.context = "l2";
                      strategy = "surrogate";
                      warm_start = true;
                    };
                  ]);
            Client.with_client listen Client.stat)
      in
      Alcotest.(check (list string)) "stat objects" [ "codecache"; "server"; "store" ]
        (match stat with
        | Ok fields -> List.sort compare (List.map fst fields)
        | Error e -> Alcotest.failf "stat failed: %s" e);
      Alcotest.(check (list string)) "only the store's own files"
        [ "shard-00.jsonl"; "shard-01.jsonl"; "shard-02.jsonl"; "shard-03.jsonl";
          "store.meta" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

(* Tune records as earlier builds journaled them, byte for byte: one
   with the analysis fingerprint (a linesearch tune, keyed without a
   strategy) and one without (a surrogate tune).  The daemon answers
   both from the store, bit-identical to the stored values, and never
   recomputes; only the one with a fingerprint is a warm-start donor;
   and journaling the first record again renders the same bytes. *)
let test_daemon_reads_stored_records () =
  let best = "sv=1;ur=24;lc=1;ae=0;wnt=0;bf=0;cisc=0;pf=X:nta:512,Y:nta:768" in
  let feat =
    {|{"vectorizable":1,"elt_bytes":8,"max_unroll":128,"accumulators":1,"arrays":2,"loads":2,"stores":0,"outputs":0,"stride_unit":2,"stride_neg":0,"gpr_pressure":4,"xmm_pressure":3,"legal_sv":1,"legal_unroll":1,"legal_wnt":1,"dep_pairs":0,"dep_blocking":0}|}
  in
  let with_feat =
    Printf.sprintf {|{"best":"%s","fko":555.57233008242963,"evals":100,"kernel":"ddot","feat":%s}|}
      best feat
  in
  let without_feat =
    Printf.sprintf {|{"best":"%s","fko":555.57233008242963,"evals":18,"kernel":"ddot"}|} best
  in
  let mflops = float_of_string "751.56527472783864" in
  let fko = float_of_string "555.57233008242963" in
  let prov = "ddot@P4E/out-of-cache/n=2000" in
  let args = { (Proto.default_args ~kernel:ddot_src) with Proto.n = 2000; seed = 7 } in
  let key ?strategy () =
    Store.tune_key ?strategy
      ~kernel:(Ifko_search.Driver.kernel_fingerprint (Ifko_codegen.Lower.of_source ddot_src))
      ~machine:"P4E" ~context:"out-of-cache" ~n:2000 ~seed:7 ~check:false ~flops_per_n:2.0 ()
  in
  let dir = tmp_dir "ifko_records" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = Store.open_ ~shards:4 dir in
      let timed = Store.Timed { mflops; cycles = 0.0 } in
      Store.add st ~key:(key ()) ~params:with_feat ~prov:("tune " ^ prov) timed;
      Store.add st ~key:(key ~strategy:"surrogate" ()) ~params:without_feat
        ~prov:("tune " ^ prov) timed;
      Store.close st;
      serve_dir dir (fun listen ->
          Client.with_client listen (fun c ->
              List.iter
                (fun (a, evals) ->
                  let check what (r : Proto.tune_reply) =
                    Alcotest.(check string) (what ^ ": best") best r.Proto.best;
                    Alcotest.(check bool) (what ^ ": mflops bits") true
                      (Int64.bits_of_float r.Proto.mflops = Int64.bits_of_float mflops);
                    Alcotest.(check bool) (what ^ ": fko bits") true
                      (Int64.bits_of_float r.Proto.fko_mflops = Int64.bits_of_float fko);
                    Alcotest.(check int) (what ^ ": evaluations") evals r.Proto.evaluations;
                    Alcotest.(check bool) (what ^ ": hit") true r.Proto.hit
                  in
                  (match Client.lookup c a with
                  | Ok (Some r) -> check (a.Proto.strategy ^ " lookup") r
                  | Ok None -> Alcotest.failf "%s lookup missed" a.Proto.strategy
                  | Error e -> Alcotest.failf "lookup failed: %s" e);
                  match Client.tune c a with
                  | Ok r -> check (a.Proto.strategy ^ " tune") r
                  | Error e -> Alcotest.failf "tune failed: %s" e)
                [ (args, 100); ({ args with Proto.strategy = "surrogate" }, 18) ]);
          Alcotest.(check int) "no tune recomputed" 0 (stat_num listen "server" "tunes"));
      let st = Store.open_ dir in
      (match Ifko_search.Warmstart.donors_of_store st with
      | [ d ] ->
        Alcotest.(check string) "donor point" best
          (Ifko_transform.Params.canonical d.Ifko_search.Warmstart.d_params);
        Alcotest.(check bool) "donor mflops bits" true
          (Int64.bits_of_float d.Ifko_search.Warmstart.d_mflops = Int64.bits_of_float mflops)
      | ds -> Alcotest.failf "expected one donor, got %d" (List.length ds));
      let record = Ifko_search.Tune_record.find st ~key:(key ()) in
      Store.close st;
      let fresh = Filename.concat dir "fresh.jsonl" in
      let st = Store.open_ fresh in
      Option.iter (Ifko_search.Tune_record.add st ~key:"k" ~prov) record;
      (match Store.find_entry st ~key:"k" with
      | Some (_, params, p) ->
        Alcotest.(check string) "journaled params bytes" with_feat params;
        Alcotest.(check string) "journaled prov" ("tune " ^ prov) p
      | None -> Alcotest.fail "record not journaled");
      Store.close st)

(* A tune record answers only the request that produced it.  A sampled
   tune journaled into a daemon's directory is keyed by its fidelity:
   the daemon's full-fidelity lookup of the same request misses, and
   its tune is bit-identical to a storeless full-fidelity tune.  A
   request naming an unknown strategy fails with the decode's text. *)
let test_daemon_ignores_sampled_record () =
  let n = 80000 and seed = 0 and flops_per_n = 2.0 in
  let args = { (Proto.default_args ~kernel:ddot_src) with Proto.n; seed } in
  let dir = tmp_dir "ifko_sampled" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let compiled = Ifko_codegen.Lower.of_source ddot_src in
      let spec = Ifko_search.Generic.spec ~seed compiled in
      let st = Store.open_ ~shards:4 dir in
      let sampled =
        Ifko_search.Driver.tune ~store:st ~seed ~fidelity:Ifko_sim.Timer.Sampled
          ~cfg:Ifko_machine.Config.p4e ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n
          ~flops_per_n
          ~test:(Ifko_search.Generic.test compiled spec)
          compiled
      in
      Store.close st;
      Alcotest.(check bool) "the tune ran sampled" true
        (sampled.Ifko_search.Driver.fidelity_used = Ifko_sim.Timer.Sampled);
      serve_dir dir (fun listen ->
          Client.with_client listen (fun c ->
              (match Client.lookup c args with
              | Ok None -> ()
              | Ok (Some r) ->
                Alcotest.failf "the sampled record answered a lookup (%.1f MFLOPS)"
                  r.Proto.mflops
              | Error e -> Alcotest.failf "lookup failed: %s" e);
              (match Client.tune c args with
              | Ok r ->
                Alcotest.(check bool) "computed, not a hit" false r.Proto.hit;
                check_against_reference ddot_src r ~n ~seed ~flops_per_n
              | Error e -> Alcotest.failf "tune failed: %s" e);
              match Client.tune c { args with Proto.strategy = "bogus" } with
              | Ok _ -> Alcotest.fail "an unknown strategy was tuned"
              | Error e ->
                Alcotest.(check string) "decode error"
                  "unknown strategy \"bogus\" (linesearch|surrogate)" e)))

(* A non-positive or non-finite flops_per_n would have the search
   maximise a negated or zero score: decode refuses it, the daemon's
   reply carries decode's text, and no tune record is journaled. *)
let test_daemon_rejects_flops_per_n () =
  let args = Proto.default_args ~kernel:ddot_src in
  let msg = "field \"flops_per_n\" must be positive and finite" in
  List.iter
    (fun flops_per_n ->
      match Proto.decode { args with Proto.flops_per_n } with
      | Ok _ -> Alcotest.failf "decode accepted flops_per_n = %g" flops_per_n
      | Error e -> Alcotest.(check string) (Printf.sprintf "decode %g" flops_per_n) msg e)
    [ 0.0; -2.0; nan; infinity; neg_infinity ];
  let dir = tmp_dir "ifko_flops" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      serve_dir dir (fun listen ->
          Client.with_client listen (fun c ->
              List.iter
                (fun flops_per_n ->
                  match Client.tune c { args with Proto.n = 600; flops_per_n } with
                  | Ok _ -> Alcotest.failf "tuned at flops_per_n = %g" flops_per_n
                  | Error e ->
                    Alcotest.(check string) (Printf.sprintf "reply %g" flops_per_n) msg e)
                [ 0.0; -2.0 ]));
      let st = Store.open_ ~shards:4 dir in
      let tunes = (Store.stat st).Store.st_tunes in
      Store.close st;
      Alcotest.(check int) "no tune record journaled" 0 tunes)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Older builds kept a ckpt-<machine> directory of resume transients
   (plus snapshot files before that) next to the shards.  Nothing reads
   that state any more: garbage there neither stops the daemon nor
   changes a reply, survives byte for byte, and stays out of the store
   statistics. *)
let test_daemon_ignores_leftover_state () =
  let n = 600 and seed = 3 and flops_per_n = 2.0 in
  let dir = tmp_dir "ifko_leftover" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Store.close (Store.open_ ~shards:4 dir);
      let old = Filename.concat dir "ckpt-P4E" in
      Sys.mkdir old 0o755;
      let leftovers =
        [ ("store.meta", "{\"schema\":garbage\n");
          ("transients.jsonl", "{\"key\":\"warm:cand\",\"v\":1.5}\nnot json\n");
          ("0123456789abcdef.ckpt", "not a snapshot") ]
      in
      List.iter
        (fun (f, bytes) ->
          Out_channel.with_open_bin (Filename.concat old f) (fun oc ->
              Out_channel.output_string oc bytes))
        leftovers;
      let reply =
        serve_dir dir (fun listen ->
            Client.with_client listen (fun c ->
                match
                  Client.tune c { (Proto.default_args ~kernel:ddot_src) with Proto.n; seed }
                with
                | Ok r -> r
                | Error e -> Alcotest.failf "tune failed: %s" e))
      in
      check_against_reference ddot_src reply ~n ~seed ~flops_per_n;
      List.iter
        (fun (f, bytes) ->
          Alcotest.(check string) (f ^ " untouched") bytes
            (In_channel.with_open_bin (Filename.concat old f) In_channel.input_all))
        leftovers;
      let st = Store.open_ dir in
      let s = Store.stat st in
      Store.close st;
      List.iter
        (fun text ->
          Alcotest.(check bool) "stat ignores the leftovers" false
            (contains text "ckpt-P4E" || contains text ".ckpt" || contains text "transient"))
        [ Store.stat_json s; Store.stat_to_string s ])

let suite =
  [ Alcotest.test_case "proto: request round-trip" `Quick test_proto_request_roundtrip;
    Alcotest.test_case "proto: response round-trip" `Quick test_proto_response_roundtrip;
    Alcotest.test_case "proto: float bits survive the wire" `Quick test_proto_float_bits;
    Alcotest.test_case "proto: malformed requests rejected" `Quick test_proto_malformed;
    Alcotest.test_case "shards: persistence and geometry" `Quick test_shard_persistence;
    Alcotest.test_case "shards: single-flight dedup" `Quick test_shard_single_flight;
    Alcotest.test_case "shards: age and size eviction" `Quick test_shard_eviction;
    Alcotest.test_case "shards: replica reload-on-miss" `Quick test_shard_replica_reload;
    Alcotest.test_case "store: refresh skips torn tail" `Quick test_store_refresh_torn_tail;
    Alcotest.test_case "daemon: concurrent tunes bit-identical" `Quick
      test_daemon_tune_deterministic;
    Alcotest.test_case "daemon: shared compile batch" `Quick
      test_daemon_shared_compile_batch;
    Alcotest.test_case "daemon: lowered kernels memoized and bounded" `Quick
      test_daemon_lowering_memo;
    Alcotest.test_case "daemon: protocol errors answered" `Quick
      test_daemon_protocol_errors;
    Alcotest.test_case "daemon: request line bounded" `Quick test_daemon_line_bound;
    Alcotest.test_case "daemon: replica pair shares results" `Quick
      test_daemon_replica_pair;
    Alcotest.test_case "daemon: related kernels share warm starts" `Quick
      test_daemon_warm_start;
    Alcotest.test_case "daemon: its directory serves CLI tunes" `Quick
      test_daemon_dir_serves_cli;
    Alcotest.test_case "daemon: its directory is an ordinary store" `Quick
      test_daemon_dir_is_a_store;
    Alcotest.test_case "daemon: stored tune records answered" `Quick
      test_daemon_reads_stored_records;
    Alcotest.test_case "daemon: a sampled record answers no full request" `Quick
      test_daemon_ignores_sampled_record;
    Alcotest.test_case "daemon: flops_per_n must be positive and finite" `Quick
      test_daemon_rejects_flops_per_n;
    Alcotest.test_case "daemon: leftover checkpoint state never read" `Quick
      test_daemon_ignores_leftover_state;
  ]
