(* Machine-model tests: cache behaviour, memory-system timing
   mechanisms (latency, bandwidth, MSHR limit, prefetch, non-temporal
   stores, bus turnaround, writeback accounting). *)
open Ifko_machine

let small_level = { Config.size = 1024; line = 64; assoc = 2; latency = 3 }

let test_cache_hit_miss () =
  let c = Cache.create small_level in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.insert c ~addr:0 ~write:false : int option);
  Alcotest.(check bool) "hit after insert" true (Cache.access c ~addr:32 ~write:false);
  Alcotest.(check bool) "distinct line misses" false (Cache.access c ~addr:64 ~write:false);
  let h, m = Cache.stats c in
  Alcotest.(check (pair int int)) "stats" (1, 2) (h, m)

let test_cache_lru_eviction () =
  let c = Cache.create small_level in
  (* 1024/64/2 = 8 sets; set 0 holds lines 0 and 512 etc. *)
  ignore (Cache.insert c ~addr:0 ~write:true : int option);
  ignore (Cache.insert c ~addr:512 ~write:false : int option);
  ignore (Cache.access c ~addr:0 ~write:false : bool);
  (* touch 0 so 512 is LRU *)
  (match Cache.insert c ~addr:1024 ~write:false with
  | Some _ -> Alcotest.fail "victim 512 was clean"
  | None -> ());
  Alcotest.(check bool) "0 still present" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "512 evicted" false (Cache.probe c ~addr:512);
  (* now evict the dirty line 0 *)
  ignore (Cache.access c ~addr:1024 ~write:false : bool);
  (match Cache.insert c ~addr:1536 ~write:false with
  | Some 0 -> ()
  | Some a -> Alcotest.failf "wrong dirty victim %d" a
  | None -> Alcotest.fail "expected dirty eviction of line 0")

let test_cache_invalidate_flush () =
  let c = Cache.create small_level in
  ignore (Cache.insert c ~addr:0 ~write:true : int option);
  Alcotest.(check bool) "invalidate reports dirty" true (Cache.invalidate c ~addr:0);
  Alcotest.(check bool) "gone" false (Cache.probe c ~addr:0);
  ignore (Cache.insert c ~addr:64 ~write:true : int option);
  Alcotest.(check int) "one dirty line" 1 (Cache.dirty_lines c);
  Cache.flush c;
  Alcotest.(check int) "flush clears dirty" 0 (Cache.dirty_lines c);
  Alcotest.(check bool) "flush empties" false (Cache.probe c ~addr:64)

(* Geometry validation: every shift/mask in Cache relies on
   power-of-two line sizes and set counts, so ill-formed levels must be
   rejected at Config load instead of silently mis-indexing. *)
let test_cache_geometry_validation () =
  let rejects name lvl =
    match Cache.create lvl with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  rejects "non-pow2 line" { Config.size = 1536; line = 48; assoc = 2; latency = 1 };
  rejects "non-pow2 sets" { Config.size = 1536; line = 64; assoc = 2; latency = 1 };
  rejects "assoc 0" { Config.size = 1024; line = 64; assoc = 0; latency = 1 };
  rejects "negative latency" { Config.size = 1024; line = 64; assoc = 2; latency = -1 };
  rejects "size below one set" { Config.size = 64; line = 64; assoc = 2; latency = 1 };
  (* the boundary cases that must be accepted *)
  ignore (Cache.create { Config.size = 128; line = 64; assoc = 2; latency = 1 } : Cache.t);
  ignore (Cache.create { Config.size = 16; line = 16; assoc = 1; latency = 0 } : Cache.t)

let test_memsys_geometry_validation () =
  (* L1 lines must tile L2 lines for the inclusive fill paths *)
  let cfg =
    { Config.p4e with
      Config.l1 = { Config.size = 16384; line = 128; assoc = 4; latency = 1 };
      l2 = { Config.size = 1048576; line = 64; assoc = 8; latency = 18 }
    }
  in
  (match Memsys.create cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "l2 line < l1 line accepted");
  match Memsys.create { cfg with Config.l1 = { cfg.Config.l1 with Config.line = 48 } } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 L1 line accepted"

let fresh_ms cfg =
  let ms = Memsys.create cfg in
  Memsys.reset ms ~flush:true;
  ms

let test_load_latencies () =
  let cfg = Config.p4e in
  let ms = fresh_ms cfg in
  let t1 = Memops.load ms ~addr:4096 ~now:0.0 in
  Alcotest.(check bool) "cold load pays full memory latency" true
    (t1 >= float_of_int cfg.Config.mem_latency);
  (* after the fill settles, the same line is an L1 hit *)
  let t2 = Memops.load ms ~addr:4096 ~now:(t1 +. 1.0) in
  Alcotest.(check (float 1e-9)) "L1 hit latency"
    (t1 +. 1.0 +. float_of_int cfg.Config.l1.Config.latency)
    t2

let test_bandwidth_bound () =
  let cfg = Config.p4e in
  let ms = fresh_ms cfg in
  (* stream 64 KiB of demand loads issued as fast as possible *)
  let bytes = 65536 in
  let finish = ref 0.0 in
  let now = ref 0.0 in
  for i = 0 to (bytes / 8) - 1 do
    finish := Float.max !finish (Memops.load ms ~addr:(4096 + (i * 8)) ~now:!now);
    now := !now +. 0.5
  done;
  let min_cycles = float_of_int bytes /. cfg.Config.bus_bytes_per_cycle in
  Alcotest.(check bool) "cannot beat the bus" true (!finish >= min_cycles)

let test_prefetch_hides_latency () =
  let cfg = Config.p4e in
  let run ~pf =
    let ms = fresh_ms cfg in
    let now = ref 0.0 and finish = ref 0.0 in
    for i = 0 to 4095 do
      let addr = 4096 + (i * 8) in
      if pf then Memops.prefetch ms ~kind:Instr.Nta ~addr:(addr + 2048) ~now:!now;
      let c = Memops.load ms ~addr ~now:!now in
      finish := Float.max !finish c;
      (* consumer paced by data arrival, like a ROB-limited core *)
      now := Float.max (!now +. 2.0) (c -. 200.0)
    done;
    !finish
  in
  let without = run ~pf:false and with_pf = run ~pf:true in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch helps (%.0f vs %.0f)" with_pf without)
    true (with_pf < without)

let test_nt_store_penalty_when_cached () =
  let cfg = Config.opteron in
  let ms = fresh_ms cfg in
  (* load brings the line into cache; an NT store to it must pay *)
  let _ = Memops.load ms ~addr:4096 ~now:0.0 in
  let before = Memops.bus_backlog ms ~now:10000.0 in
  Memops.nt_store ms ~addr:4096 ~bytes:8 ~now:10000.0;
  let cached_cost = Memops.bus_backlog ms ~now:10000.0 -. before in
  let ms2 = fresh_ms cfg in
  Memops.nt_store ms2 ~addr:4096 ~bytes:8 ~now:10000.0;
  let cold_cost = Memops.bus_backlog ms2 ~now:10000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.1f > streaming %.1f" cached_cost cold_cost)
    true (cached_cost > cold_cost)

let test_bus_turnaround () =
  let cfg = Config.p4e in
  (* alternating read/write claims cost more bus time than batched *)
  let alternating =
    let ms = fresh_ms cfg in
    for i = 0 to 31 do
      let _ = Memops.load ms ~addr:(4096 + (i * 128)) ~now:0.0 in
      Memops.nt_store ms ~addr:(65536 + (i * 128)) ~bytes:64 ~now:0.0
    done;
    Memops.bus_backlog ms ~now:0.0
  in
  let batched =
    let ms = fresh_ms cfg in
    for i = 0 to 31 do
      ignore (Memops.load ms ~addr:(4096 + (i * 128)) ~now:0.0 : float)
    done;
    for i = 0 to 31 do
      Memops.nt_store ms ~addr:(65536 + (i * 128)) ~bytes:64 ~now:0.0
    done;
    Memops.bus_backlog ms ~now:0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "alternating %.0f > batched %.0f" alternating batched)
    true (alternating > batched +. (30.0 *. cfg.Config.bus_turnaround))

let test_hw_prefetcher_covers_stream () =
  (* stream one line per step with a data-paced consumer; the stream
     prefetcher must make it significantly faster than with the
     prefetcher disabled, and full-latency misses must become rare *)
  let run cfg =
    let ms = fresh_ms cfg in
    let lines = 256 in
    let full_misses = ref 0 in
    let now = ref 0.0 in
    for i = 0 to lines - 1 do
      let addr = 4096 + (i * 64) in
      let c = Memops.load ms ~addr ~now:!now in
      if c -. !now >= float_of_int cfg.Config.mem_latency then incr full_misses;
      now := Float.max (!now +. 20.0) c
    done;
    (!now, !full_misses)
  in
  let cfg = Config.opteron in
  let with_pf, full_misses = run cfg in
  let without_pf, _ = run { cfg with Config.hw_prefetch_ahead = 0 } in
  Alcotest.(check bool)
    (Printf.sprintf "prefetcher speeds the stream (%.0f vs %.0f)" with_pf without_pf)
    true
    (with_pf < 0.8 *. without_pf);
  Alcotest.(check bool)
    (Printf.sprintf "few full-latency misses (%d/256)" full_misses)
    true (full_misses < 128)

let test_wc_batching () =
  (* consecutive NT stores within one line gather in the WC buffer and
     claim the bus once, when the buffer switches lines *)
  let cfg = Config.p4e in
  let ms = fresh_ms cfg in
  for i = 0 to 7 do
    Memops.nt_store ms ~addr:(4096 + (i * 8)) ~bytes:8 ~now:0.0
  done;
  Alcotest.(check (float 1e-9)) "still buffered" 0.0 (Memops.bus_backlog ms ~now:0.0);
  Memops.nt_store ms ~addr:8192 ~bytes:8 ~now:0.0;
  let after_switch = Memops.bus_backlog ms ~now:0.0 in
  Alcotest.(check bool) "line flushed on switch" true
    (after_switch >= 64.0 /. cfg.Config.bus_bytes_per_cycle)

let test_touch_is_demand_priority () =
  (* a Touch completes like a demand load (full priority), while a
     software prefetch of the same line lands later (lazy latency) *)
  let cfg = Config.p4e in
  let ms1 = fresh_ms cfg in
  let demand = Memops.load ms1 ~addr:4096 ~now:0.0 in
  let ms2 = fresh_ms cfg in
  Memops.prefetch ms2 ~kind:Instr.Nta ~addr:4096 ~now:0.0;
  let via_pf = Memops.load ms2 ~addr:4096 ~now:1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "prefetched arrival %.0f later than demand %.0f" via_pf demand)
    true (via_pf > demand)

let test_warm_l2 () =
  let cfg = Config.p4e in
  let ms = fresh_ms cfg in
  Memsys.warm_l2 ms ~addr:4096;
  let t = Memops.load ms ~addr:4096 ~now:0.0 in
  Alcotest.(check bool) "L2-warm load is fast" true
    (t <= float_of_int (cfg.Config.l2.Config.latency + 1))

let test_pending_writeback_cost () =
  let cfg = Config.p4e in
  let ms = fresh_ms cfg in
  Alcotest.(check (float 1e-9)) "clean = 0" 0.0 (Memsys.pending_writeback_cost ms);
  (* dirty a line via a store to an L2-warm line *)
  Memsys.warm_l2 ms ~addr:4096;
  Memops.store ms ~addr:4096 ~now:0.0;
  Alcotest.(check bool) "dirty lines cost" true (Memsys.pending_writeback_cost ms > 0.0)

let test_elems_per_line () =
  Alcotest.(check int) "P4E doubles" 16 (Config.elems_per_line Config.p4e Instr.D);
  Alcotest.(check int) "P4E singles" 32 (Config.elems_per_line Config.p4e Instr.S);
  Alcotest.(check int) "Opteron doubles" 8 (Config.elems_per_line Config.opteron Instr.D)

(* The MRU way filter and the touched-way log are acceleration state:
   a reused cache must behave exactly like a fresh one after flush, and
   the filter must never survive a flush (a stale hint is re-validated,
   but the contract is that flush clears it outright). *)
let test_cache_flush_clears_acceleration () =
  let lvl = { Config.size = 1024; line = 64; assoc = 2; latency = 1 } in
  let reused = Cache.create lvl in
  (* churn: fill beyond capacity, flush, refill *)
  for i = 0 to 63 do
    ignore (Cache.insert reused ~addr:(i * 64) ~write:(i land 1 = 0) : int option)
  done;
  Cache.flush reused;
  Alcotest.(check int) "flush leaves nothing dirty" 0 (Cache.dirty_lines reused);
  for i = 0 to 63 do
    Alcotest.(check bool) "flush empties every line" false
      (Cache.probe reused ~addr:(i * 64))
  done;
  Cache.reset_stats reused;
  (* a fresh twin must now agree access-for-access, including the
     eviction sequence (scan order depends on cleared LRU/MRU state) *)
  let fresh = Cache.create lvl in
  for i = 0 to 127 do
    let addr = (i * 192) land 8191 in
    let w = i land 3 = 0 in
    Alcotest.(check bool) "access parity" (Cache.access fresh ~addr ~write:w)
      (Cache.access reused ~addr ~write:w);
    match (Cache.insert fresh ~addr ~write:w, Cache.insert reused ~addr ~write:w) with
    | Some a, Some b -> Alcotest.(check int) "same victim" a b
    | None, None -> ()
    | _ -> Alcotest.fail "divergent eviction"
  done;
  Alcotest.(check (pair int int)) "same stats" (Cache.stats fresh) (Cache.stats reused)

(* ---- the timers' machine pool ----

   The pool's contract is deliberately loose — a returned machine is
   not cleaned and a borrowed one may hold arbitrary prior state — so
   these tests drive the exact caller protocol (reset or restore before
   first use) and check bit-identity against fresh construction. *)

(* A deterministic mixed workload: strided loads/stores/prefetches over
   a few arrays, returning a trace (sum of completion times) plus the
   profile counters — any divergence in cache/bus/MSHR state shows up
   in one of them. *)
let drive ms =
  let now = ref 0.0 and acc = ref 0.0 in
  for i = 0 to 799 do
    let addr = 4096 + (i * 24 mod 16384) in
    (match i land 3 with
    | 0 | 1 -> acc := !acc +. Memops.load ms ~addr ~now:!now
    | 2 -> Memops.store ms ~addr:(32768 + (i * 64 mod 8192)) ~now:!now
    | _ -> Memops.prefetch ms ~kind:Instr.T0 ~addr:(addr + 4096) ~now:!now);
    now := !now +. 1.5
  done;
  let p = Memsys.profile ms in
  ( !acc +. Memsys.pending_writeback_cost ms +. Memsys.drain_time ms ~now:!now,
    ((p.Memsys.l1_hits, p.Memsys.l1_misses), (p.Memsys.l2_hits, p.Memsys.l2_misses)) )

let fresh_trace cfg =
  let ms = Memsys.create cfg in
  Memsys.reset ms ~flush:true;
  drive ms

(* borrows since [s0], and how many of them built a fresh machine *)
let borrows_since (s0 : Ifko_par.Memo.stats) =
  let s = Ifko_par.Freelist.stats Ifko_sim.Timer.machines in
  (s.hits + s.misses - s0.hits - s0.misses, s.misses - s0.misses)

let test_arena_reuse_interleaved () =
  let s0 = Memops.drain_machines [ Config.p4e; Config.opteron ] in
  let want_p4e = fresh_trace Config.p4e in
  let want_opt = fresh_trace Config.opteron in
  (* interleave the two geometries so each return/borrow pair hands
     back an instance dirtied by the previous round *)
  for round = 1 to 4 do
    List.iter
      (fun (cfg, want) ->
        let ms = Ifko_sim.Timer.borrow_machine cfg in
        Memsys.reset ms ~flush:true;
        let got = drive ms in
        Alcotest.(check (pair (float 0.0) (pair (pair int int) (pair int int))))
          (Printf.sprintf "round %d %s identical to fresh" round cfg.Config.name)
          want got;
        Ifko_sim.Timer.return_machine ms)
      [ (Config.p4e, want_p4e); (Config.opteron, want_opt) ]
  done;
  let borrows, creates = borrows_since s0 in
  Alcotest.(check int) "acquires" 8 borrows;
  Alcotest.(check int) "one instance created per geometry" 2 creates

(* A run that traps mid-flight returns a half-driven machine to the
   pool; the next borrower's reset must erase every trace of it. *)
let test_arena_reset_after_trap () =
  let s0 = Memops.drain_machines [ Config.p4e ] in
  let want = fresh_trace Config.p4e in
  (match
     let ms = Ifko_sim.Timer.borrow_machine Config.p4e in
     Fun.protect
       ~finally:(fun () -> Ifko_sim.Timer.return_machine ms)
       (fun () ->
         Memsys.reset ms ~flush:true;
         for i = 0 to 99 do
           ignore (Memops.load ms ~addr:(i * 64) ~now:(float_of_int i) : float)
         done;
         failwith "trap")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the trap to propagate");
  let ms = Ifko_sim.Timer.borrow_machine Config.p4e in
  Memsys.reset ms ~flush:true;
  Alcotest.(check (pair (float 0.0) (pair (pair int int) (pair int int))))
    "post-trap borrower identical to fresh" want (drive ms);
  Ifko_sim.Timer.return_machine ms;
  Alcotest.(check int) "the trapped instance was pooled" 1 (snd (borrows_since s0))

(* Restore targets may hold arbitrary prior contents of the same
   geometry (the pool hands them out that way): a snapshot applied over
   a dirty instance must continue exactly like one applied to a fresh
   instance. *)
let test_restore_into_used_instance () =
  let cfg = Config.p4e in
  let warm = Memsys.create cfg in
  Memsys.reset warm ~flush:true;
  ignore (drive warm);
  let snap = Memsys.snapshot warm in
  let cont ms = drive ms in
  let into_fresh =
    let ms = Memsys.create cfg in
    Memsys.restore ms snap;
    cont ms
  in
  let into_used =
    let ms = Memsys.create cfg in
    Memsys.reset ms ~flush:true;
    (* different touched set and clock state than the snapshot *)
    for i = 0 to 499 do
      ignore (Memops.load ms ~addr:(65536 + (i * 72 mod 32768)) ~now:(float_of_int i))
    done;
    Memsys.restore ms snap;
    cont ms
  in
  Alcotest.(check (pair (float 0.0) (pair (pair int int) (pair int int))))
    "restore over dirty state continues identically" into_fresh into_used

let suite =
  [ Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache geometry validation" `Quick test_cache_geometry_validation;
    Alcotest.test_case "memsys geometry validation" `Quick test_memsys_geometry_validation;
    Alcotest.test_case "flush clears acceleration state" `Quick
      test_cache_flush_clears_acceleration;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache invalidate/flush" `Quick test_cache_invalidate_flush;
    Alcotest.test_case "load latencies" `Quick test_load_latencies;
    Alcotest.test_case "bandwidth bound" `Quick test_bandwidth_bound;
    Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
    Alcotest.test_case "nt store penalty" `Quick test_nt_store_penalty_when_cached;
    Alcotest.test_case "bus turnaround" `Quick test_bus_turnaround;
    Alcotest.test_case "hw prefetcher" `Quick test_hw_prefetcher_covers_stream;
    Alcotest.test_case "WC batching" `Quick test_wc_batching;
    Alcotest.test_case "touch vs prefetch priority" `Quick test_touch_is_demand_priority;
    Alcotest.test_case "warm L2" `Quick test_warm_l2;
    Alcotest.test_case "pending writebacks" `Quick test_pending_writeback_cost;
    Alcotest.test_case "elems per line" `Quick test_elems_per_line;
    Alcotest.test_case "arena reuse across interleaved geometries" `Quick
      test_arena_reuse_interleaved;
    Alcotest.test_case "arena reset after trap" `Quick test_arena_reset_after_trap;
    Alcotest.test_case "restore into used instance" `Quick test_restore_into_used_instance;
  ]
