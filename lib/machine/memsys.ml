type fill = {
  mutable arrival : float;
  mutable fill_l1 : bool;
  mutable fill_l2 : bool;
  mutable want_write : bool;
  mutable l1_addr : int;  (** which L1 line within the (possibly wider) L2 line *)
  mutable observed : bool;  (** the stream prefetcher has seen this line *)
  is_pf : bool;  (** brought in by a prefetch, not a demand miss *)
}

type stream = { mutable expect : int; mutable dir : int }

(* The four hot clocks live in one float array rather than mutable
   float fields: float fields of a mixed record box on every write,
   and these are written on every simulated memory operation. *)
let f_bus = 0 (* bus_free: earliest time the bus is idle *)
and f_claims = 1 (* total bus cycles claimed *)
and f_clock = 2 (* consumption frontier: max issue/completion seen *)
and f_wc = 3 (* bytes pending in the WC buffer *)
and f_now = 4 (* unboxed-call channel: the caller's clock *)
and f_ret = 5 (* unboxed-call channel: the completion time *)

type t = {
  cfg : Config.t;
  l1 : Cache.t;
  l2 : Cache.t;
  l1_lat : float;  (** [l1.latency], pre-converted for the hot path *)
  l2_lat : float;
  mem_lat : float;  (** [mem_latency] as a float *)
  mem_lat_pf : float;  (** [mem_latency *. pf_latency_factor] *)
  occ : float;  (** bus occupancy of one L2-line transfer, in cycles *)
  fl : float array;  (** [f_bus]/[f_claims]/[f_clock]/[f_wc] *)
  mshr : float array;
      (** ring of completion times of in-flight demand misses;
          power-of-two capacity (>= the configured slot count) so the
          ring arithmetic is a mask, not a division *)
  mutable mshr_head : int;
  mutable mshr_len : int;
  (* In-flight fills, keyed by L2-line base address: an open-addressed
     table with linear probing.  A generic [Hashtbl] costs a [caml_hash]
     C call per lookup, and the all-miss phase of an out-of-cache run
     looks the line up two or three times per memory instruction. *)
  mutable if_keys : int array;  (* -1 empty, -2 tombstone *)
  mutable if_vals : fill array;
  mutable if_n : int;  (* live entries *)
  mutable if_used : int;  (* live entries + tombstones *)
  if_shift : int;  (* log2 of the L2 line size (0 for odd sizes) *)
  streams : stream array;
  mutable next_stream : int;
  mutable sw_pf_issued : int;
  mutable sw_pf_dropped : int;
  mutable hw_pf_issued : int;
  mutable nt_lines : int;
  mutable pf_inflight : int;  (* prefetched lines not yet settled *)
  mutable fifo : int array;  (* ring: inflight lines in arrival order *)
  mutable fifo_head : int;
  mutable fifo_len : int;
  (* Cached [if_find] result for the fifo head: during a streaming
     phase every memory operation sweeps past the head to check whether
     its fill has arrived, and the cached pair answers that in one
     compare instead of a table probe.  [head_line = -1] means
     "recompute"; the cache is dropped whenever the head could change
     (pop) or its fill could be removed/replaced (remove/insert of the
     same line), so it is a pure acceleration and never changes
     behavior. *)
  mutable head_line : int;
  mutable head_fill : fill;
  (* The whole fifo/head state folded into one float so [tick] is a
     single compare: [infinity] when nothing is in flight, the head
     fill's arrival when the head cache is valid, [neg_infinity] when
     the head must be recomputed (forces one sweep, which restores the
     invariant).  Sweeping exactly when [clock >= next_event] is
     equivalent to the three-part guard it replaces. *)
  mutable next_event : float;
  mutable last_dir_write : bool;  (* direction of the last bus transfer *)
  mutable wc_line : int;  (* write-combining buffer: current NT line *)
  (* Fast-path coverage and cycle-attribution counters (the bench's
     --profile report).  Always on: two int bumps per memory operation
     are noise next to the work they count. *)
  mutable n_loads : int;
  mutable n_stores : int;
  mutable fast_loads : int;  (* loads served by the open-coded fast path *)
  mutable fast_stores : int;
  mutable n_demand : int;  (* demand misses reaching the memory bus *)
  mutable demand_cycles : float;  (* latency cycles those misses cost *)
}

(* Same max as the timing model's: times are finite and non-negative,
   so this agrees with [Float.max] while staying inlinable. *)
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* Ring-buffer helpers.  [Queue] allocates a cell per push (and a
   [Some] per [peek_opt]); the all-miss phase of an out-of-cache run
   pushes one fifo entry and one MSHR slot per missed line, so both
   live in flat reusable buffers instead.  The fifo capacity is kept a
   power of two; the MSHR ring never exceeds the configured slot
   count. *)
let[@inline] fifo_push t v =
  let cap = Array.length t.fifo in
  if t.fifo_len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to t.fifo_len - 1 do
      buf.(i) <- t.fifo.((t.fifo_head + i) land (cap - 1))
    done;
    t.fifo <- buf;
    t.fifo_head <- 0
  end;
  let mask = Array.length t.fifo - 1 in
  t.fifo.((t.fifo_head + t.fifo_len) land mask) <- v;
  t.fifo_len <- t.fifo_len + 1;
  if t.fifo_len = 1 then t.next_event <- neg_infinity

let[@inline] fifo_pop t =
  t.fifo_head <- (t.fifo_head + 1) land (Array.length t.fifo - 1);
  t.fifo_len <- t.fifo_len - 1;
  t.head_line <- -1;
  t.next_event <- neg_infinity

let[@inline] mshr_push t v =
  let mask = Array.length t.mshr - 1 in
  t.mshr.((t.mshr_head + t.mshr_len) land mask) <- v;
  t.mshr_len <- t.mshr_len + 1

let[@inline] mshr_pop t =
  let v = t.mshr.(t.mshr_head) in
  t.mshr_head <- (t.mshr_head + 1) land (Array.length t.mshr - 1);
  t.mshr_len <- t.mshr_len - 1;
  v

(* Sentinel for "no fill in flight": lets the hot lookups avoid
   allocating an option.  Never mutated — callers compare against it
   (physically) before touching any field. *)
let no_fill =
  { arrival = 0.0; fill_l1 = false; fill_l2 = false; want_write = false;
    l1_addr = -1; observed = true; is_pf = false }

(* The in-flight table.  Keys are L2-line bases, so [line asr if_shift]
   is dense and sequential for streaming kernels — taken modulo a
   power-of-two capacity it spreads perfectly without any mixing.
   Callers only insert after a failed lookup (a line is in flight at
   most once), which keeps the probe logic trivial. *)

let[@inline] if_home t line = (line asr t.if_shift) land (Array.length t.if_keys - 1)

let if_probe_chain t line i =
  let mask = Array.length t.if_keys - 1 in
  let rec go i =
    let k = Array.unsafe_get t.if_keys i in
    if k = line then Array.unsafe_get t.if_vals i
    else if k = -1 then no_fill
    else go ((i + 1) land mask)
  in
  go ((i + 1) land mask)

(* The home slot answers almost every lookup (line bases hash densely
   and the table stays sparse), so that probe is inlined at the call
   sites — [load_io]/[store_io] do one per access whenever anything is
   in flight — and only collision chains pay a call. *)
let[@inline] if_find t line =
  let i = if_home t line in
  let k = Array.unsafe_get t.if_keys i in
  if k = line then Array.unsafe_get t.if_vals i
  else if k = -1 then no_fill
  else if_probe_chain t line i

let if_grow t =
  let keys = t.if_keys and vals = t.if_vals in
  t.if_keys <- Array.make (2 * Array.length keys) (-1);
  t.if_vals <- Array.make (2 * Array.length vals) no_fill;
  t.if_used <- t.if_n;
  let mask = Array.length t.if_keys - 1 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let rec place j =
          if t.if_keys.(j) = -1 then begin
            t.if_keys.(j) <- k;
            t.if_vals.(j) <- vals.(i)
          end
          else place ((j + 1) land mask)
        in
        place (if_home t k)
      end)
    keys

let if_insert t line f =
  if line = t.head_line then begin
    t.head_line <- -1;
    t.next_event <- neg_infinity
  end;
  if 2 * t.if_used >= Array.length t.if_keys then if_grow t;
  let mask = Array.length t.if_keys - 1 in
  let rec go i =
    let k = Array.unsafe_get t.if_keys i in
    if k = -1 || k = -2 then begin
      if k = -1 then t.if_used <- t.if_used + 1;
      t.if_keys.(i) <- line;
      t.if_vals.(i) <- f;
      t.if_n <- t.if_n + 1
    end
    else go ((i + 1) land mask)
  in
  go (if_home t line)

let if_remove t line =
  if line = t.head_line then begin
    t.head_line <- -1;
    t.next_event <- neg_infinity
  end;
  let mask = Array.length t.if_keys - 1 in
  let rec go i =
    let k = Array.unsafe_get t.if_keys i in
    if k = line then begin
      t.if_vals.(i) <- no_fill;
      t.if_n <- t.if_n - 1;
      if t.if_keys.((i + 1) land mask) = -1 then begin
        (* No probe chain continues past this slot, so it can revert to
           empty rather than a tombstone — and so can any tombstone run
           ending here.  Streaming fills march through the table in
           home order leaving a tombstone trail; this cleanup keeps
           lookups at one probe and the table from growing. *)
        let rec erase j =
          t.if_keys.(j) <- -1;
          t.if_used <- t.if_used - 1;
          let p = (j - 1) land mask in
          if t.if_keys.(p) = -2 then erase p
        in
        erase i
      end
      else t.if_keys.(i) <- -2
    end
    else if k <> -1 then go ((i + 1) land mask)
  in
  go (if_home t line)

let create (cfg : Config.t) =
  if cfg.Config.l2.Config.line < cfg.Config.l1.Config.line then
    invalid_arg
      (Printf.sprintf "Memsys: L2 line (%d) smaller than L1 line (%d)"
         cfg.Config.l2.Config.line cfg.Config.l1.Config.line);
  let pow2_at_least n =
    let rec go k = if k >= n then k else go (2 * k) in
    go 1
  in
  let l2_line_f = float_of_int cfg.Config.l2.Config.line in
  {
    cfg;
    l1 = Cache.create cfg.Config.l1;
    l2 = Cache.create cfg.Config.l2;
    l1_lat = float_of_int cfg.Config.l1.Config.latency;
    l2_lat = float_of_int cfg.Config.l2.Config.latency;
    mem_lat = float_of_int cfg.Config.mem_latency;
    mem_lat_pf = float_of_int cfg.Config.mem_latency *. cfg.Config.pf_latency_factor;
    occ = l2_line_f /. cfg.Config.bus_bytes_per_cycle;
    fl = Array.make 6 0.0;
    mshr = Array.make (pow2_at_least (max 1 cfg.Config.mshrs)) 0.0;
    mshr_head = 0;
    mshr_len = 0;
    if_keys = Array.make 256 (-1);
    if_vals = Array.make 256 no_fill;
    if_n = 0;
    if_used = 0;
    if_shift =
      (let line = cfg.Config.l2.Config.line in
       let rec go k = if 1 lsl k >= line then k else go (k + 1) in
       if line > 1 then go 0 else 0);
    streams =
      Array.init cfg.Config.hw_prefetch_streams (fun _ -> { expect = -1; dir = 1 });
    next_stream = 0;
    sw_pf_issued = 0;
    sw_pf_dropped = 0;
    hw_pf_issued = 0;
    nt_lines = 0;
    pf_inflight = 0;
    fifo = Array.make 64 0;
    fifo_head = 0;
    fifo_len = 0;
    head_line = -1;
    head_fill = no_fill;
    next_event = infinity;
    last_dir_write = false;
    wc_line = -1;
    n_loads = 0;
    n_stores = 0;
    fast_loads = 0;
    fast_stores = 0;
    n_demand = 0;
    demand_cycles = 0.0;
  }

let config t = t.cfg

let reset t ~flush =
  Array.fill t.fl 0 6 0.0;
  t.mshr_head <- 0;
  t.mshr_len <- 0;
  (* [if_used] counts live entries plus tombstones, so zero means every
     slot is already empty — the common case when the previous run
     drained — and the fills can be skipped. *)
  if t.if_used > 0 then begin
    Array.fill t.if_keys 0 (Array.length t.if_keys) (-1);
    Array.fill t.if_vals 0 (Array.length t.if_vals) no_fill
  end;
  t.if_n <- 0;
  t.if_used <- 0;
  Array.iter (fun s -> s.expect <- -1) t.streams;
  t.sw_pf_issued <- 0;
  t.sw_pf_dropped <- 0;
  t.hw_pf_issued <- 0;
  t.nt_lines <- 0;
  t.pf_inflight <- 0;
  t.fifo_head <- 0;
  t.fifo_len <- 0;
  t.head_line <- -1;
  t.head_fill <- no_fill;
  t.next_event <- infinity;
  t.last_dir_write <- false;
  t.wc_line <- -1;
  t.n_loads <- 0;
  t.n_stores <- 0;
  t.fast_loads <- 0;
  t.fast_stores <- 0;
  t.n_demand <- 0;
  t.demand_cycles <- 0.0;
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2;
  (* Acceleration state never survives a reset, flushed or not: the
     MRU way filters are rebuilt from scratch so a reused instance is
     bit-identical (including internal scan order) to a fresh one. *)
  Cache.clear_mru t.l1;
  Cache.clear_mru t.l2;
  if flush then begin
    Cache.flush t.l1;
    Cache.flush t.l2
  end

let[@inline] l2_line t addr = Cache.line_base t.l2 addr

(* Addresses are non-negative (bounds-checked before any traffic), so
   the shift agrees with division by the page size. *)
let[@inline] page_of addr = addr lsr 12

(* Claim the bus for [extra] line-transfers' worth of traffic starting
   no earlier than [now]; returns the transfer start. *)
let turnaround t ~write =
  if t.last_dir_write <> write then begin
    t.last_dir_write <- write;
    t.fl.(f_bus) <- t.fl.(f_bus) +. t.cfg.Config.bus_turnaround;
    t.fl.(f_claims) <- t.fl.(f_claims) +. t.cfg.Config.bus_turnaround
  end

(* Claim the bus for [extra] read-line transfers starting no earlier
   than [now]; returns the transfer start. *)
let claim_bus t now extra =
  turnaround t ~write:false;
  let start = fmax now t.fl.(f_bus) in
  t.fl.(f_claims) <- t.fl.(f_claims) +. (t.occ *. extra);
  t.fl.(f_bus) <- start +. (t.occ *. extra);
  start

(* Write-direction traffic (writebacks, non-temporal stores). *)
let claim_bytes t now bytes =
  turnaround t ~write:true;
  let start = fmax now t.fl.(f_bus) in
  t.fl.(f_claims) <- t.fl.(f_claims) +. (bytes /. t.cfg.Config.bus_bytes_per_cycle);
  t.fl.(f_bus) <- start +. (bytes /. t.cfg.Config.bus_bytes_per_cycle)

(* Dirty eviction out of L2 goes to memory over the bus (with the
   configured burst-overhead factor). *)
let l2_evicted t now = function
  | Some _ ->
    claim_bytes t now
      (float_of_int (Cache.line_bytes t.l2) *. t.cfg.Config.wb_extra)
  | None -> ()

(* Dirty eviction out of L1 lands in L2 when the line is still there
   (no bus traffic); otherwise it must go to memory. *)
let l1_evicted t now = function
  | Some addr ->
    if Cache.probe t.l2 ~addr then
      l2_evicted t now (Cache.insert t.l2 ~addr ~write:true)
    else
      claim_bytes t now
        (float_of_int (Cache.line_bytes t.l1) *. t.cfg.Config.wb_extra)
  | None -> ()

(* Issue a prefetch line fetch from memory.  The caller has already
   established the line is not in flight (both prefetch paths look the
   fill up first, because augmenting an existing fill is the common
   streaming case and needs none of the bus work below). *)
let schedule_issue t ~now ~fill_l1 ~fill_l2 ~l1_addr line =
  let start = claim_bus t now 1.0 in
  (* prefetches lose memory-controller arbitration to demand reads *)
  let arrival = start +. t.mem_lat_pf in
  if_insert t line
    { arrival; fill_l1; fill_l2; want_write = false; l1_addr; observed = false;
      is_pf = true };
  t.pf_inflight <- t.pf_inflight + 1;
  fifo_push t line

(* Move an arrived fill into the caches. *)
let settle t now line (f : fill) =
  if_remove t line;
  if f.is_pf then t.pf_inflight <- t.pf_inflight - 1;
  (* a line in flight is never in L2 (see [hw_prefetch]), so both L2
     installs below skip the present-line probe *)
  if f.fill_l2 then l2_evicted t now (Cache.insert_new t.l2 ~addr:line ~write:false);
  if f.fill_l1 then begin
    (* the transfer brought a whole (possibly wider) memory line;
       install every L1-sized piece of it *)
    let l1_bytes = Cache.line_bytes t.l1 in
    let pieces = max 1 (Cache.line_bytes t.l2 / l1_bytes) in
    for k = 0 to pieces - 1 do
      let piece = line + (k * l1_bytes) in
      let write = f.want_write && piece = Cache.line_base t.l1 f.l1_addr in
      l1_evicted t now (Cache.insert t.l1 ~addr:piece ~write)
    done
  end
  else if f.want_write then
    ignore (Cache.insert_new t.l2 ~addr:line ~write:true : int option)

(* Hardware stream prefetcher: trains on L2 demand misses, runs a few
   lines ahead, never crosses a 4 KiB page. *)
let hw_prefetch t ~now addr =
  let cfg = t.cfg in
  if cfg.Config.hw_prefetch_ahead > 0 then begin
    let line_sz = Cache.line_bytes t.l2 in
    let line = l2_line t addr in
    let ns = Array.length t.streams in
    (* first stream expecting this line, if any (no closure: this runs
       on every demand miss and first touch of a prefetched line) *)
    let rec find k =
      if k >= ns then -1 else if t.streams.(k).expect = line then k else find (k + 1)
    in
    let m = find 0 in
    if m >= 0 then begin
      let s = t.streams.(m) in
      s.expect <- line + (s.dir * line_sz);
      for k = 1 to cfg.Config.hw_prefetch_ahead do
        (* [target] is L2-line aligned, so it is its own table key *)
        let target = line + (s.dir * k * line_sz) in
        if page_of target = page_of line then begin
          let f = if_find t target in
          if f != no_fill then begin
            (* Already in flight — the steady-state case: every ahead
               line but the newest was issued by an earlier miss.  A
               line in flight is never in L2 (fills enter the table
               only after missing L2, and L2 only gains lines via
               [settle], which removes them from the table first), so
               the L2 probe this replaces always failed here and the
               old path always counted and augmented the fill. *)
            t.hw_pf_issued <- t.hw_pf_issued + 1;
            f.fill_l2 <- true
          end
          else if not (Cache.probe t.l2 ~addr:target) then begin
            t.hw_pf_issued <- t.hw_pf_issued + 1;
            schedule_issue t ~now ~fill_l1:false ~fill_l2:true ~l1_addr:target target
          end
        end
      done
    end
    else begin
      let s = t.streams.(t.next_stream) in
      t.next_stream <- (t.next_stream + 1) mod ns;
      s.expect <- line + line_sz;
      s.dir <- 1
    end
  end

(* Take an MSHR slot for a demand miss requested at [now]; returns the
   effective request time (delayed when all slots are busy). *)
let mshr_admit t now =
  while t.mshr_len > 0 && t.mshr.(t.mshr_head) <= now do
    ignore (mshr_pop t : float)
  done;
  if t.mshr_len < t.cfg.Config.mshrs then now else fmax now (mshr_pop t)

let demand_fetch t ~now ~write addr =
  hw_prefetch t ~now addr;
  let t0 = mshr_admit t now in
  let start = claim_bus t t0 1.0 in
  let arrival = start +. t.mem_lat in
  t.n_demand <- t.n_demand + 1;
  t.demand_cycles <- t.demand_cycles +. (arrival -. now);
  mshr_push t arrival;
  let line = l2_line t addr in
  if_insert t line
    { arrival; fill_l1 = true; fill_l2 = true; want_write = write; l1_addr = addr;
      observed = true; is_pf = false };
  fifo_push t line;
  arrival

(* Advance the consumption frontier and settle every fill it passed:
   a line is architecturally in the cache once its arrival time is
   behind the furthest completion the core has seen. *)
let rec sweep t =
  if t.fifo_len = 0 then t.next_event <- infinity
  else begin
    let line = Array.unsafe_get t.fifo t.fifo_head in
    let f = if line = t.head_line then t.head_fill else if_find t line in
    if f == no_fill then begin
      (* stale entry: the fill already settled via a hit-under-fill *)
      fifo_pop t;
      sweep t
    end
    else if f.arrival <= t.fl.(f_clock) then begin
      fifo_pop t;
      settle t t.fl.(f_clock) line f;
      sweep t
    end
    else begin
      (* the usual streaming case: the head has not arrived yet — cache
         its fill so the next sweep is one compare, not a table probe,
         and the next [tick] is one compare against [next_event] *)
      t.head_line <- line;
      t.head_fill <- f;
      t.next_event <- f.arrival
    end
  end

let[@inline] tick t time =
  if time > t.fl.(f_clock) then t.fl.(f_clock) <- time;
  (* [next_event] folds the whole guard: [infinity] when nothing is in
     flight (cache-resident phases), the head arrival when the head
     cache is valid (streaming steady state — sweep only once it
     actually arrives), [neg_infinity] when the head must be
     recomputed. *)
  if Array.unsafe_get t.fl f_clock >= t.next_event then sweep t

(* The stream prefetcher also observes the first touch of a line it
   (or a software prefetch) brought in, so coverage is continuous
   rather than retraining every few lines. *)
let observe t ~now (f : fill) line =
  if not f.observed then begin
    f.observed <- true;
    hw_prefetch t ~now line
  end

(* The hot calling convention: the caller's clock comes in through
   [fl.(f_now)] and the completion time goes out through [fl.(f_ret)].
   Passing them as float argument/return would box both on every
   simulated memory instruction. *)
(* The open-coded steady-state fast path.  Guard:
   - [fifo_len = 0]: nothing is in flight (every live fill holds a fifo
     entry, so this implies [if_n = 0]) — the general path's inflight
     lookup and sweep would both be no-ops;
   - bus free in the past: no transfer extends beyond [now], so no
     deferred bus state could interact with this access (L1 hits never
     touch the bus anyway — the guard keeps the invariant trivially
     audit-able and costs one compare);
   - the set's MRU way holds the line: [Cache.hit_mru] then performs
     the identical hit-counter/dirty/LRU updates the general path
     would.
   Under the guard the general path reduces to: advance the
   consumption frontier, count the L1 hit, return [now + l1_lat] —
   which is exactly what the straight-line code below does.  Any
   failure falls through with *no* state changed. *)

let load_io t addr =
  let now = Array.unsafe_get t.fl f_now in
  t.n_loads <- t.n_loads + 1;
  if
    t.fifo_len = 0
    && Array.unsafe_get t.fl f_bus <= now
    && Cache.hit_mru t.l1 addr ~write:false
  then begin
    t.fast_loads <- t.fast_loads + 1;
    if now > Array.unsafe_get t.fl f_clock then Array.unsafe_set t.fl f_clock now;
    Array.unsafe_set t.fl f_ret (now +. t.l1_lat)
  end
  else if
    (* Second-tier fast path: L1 hit while fills are in flight.  Guard:
       no event is due ([now < next_event] — [next_event] is above the
       clock or [neg_infinity], so the general path's [tick] would not
       sweep), and the line is not in flight (so the general path would
       take its plain L1 branch, whose updates [hit_mru] reproduces
       exactly).  This is the streaming steady state: prefetches are
       outstanding but the demanded line already arrived. *)
    now < t.next_event
    && (t.if_n = 0 || if_find t (l2_line t addr) == no_fill)
    && Cache.hit_mru t.l1 addr ~write:false
  then begin
    t.fast_loads <- t.fast_loads + 1;
    if now > Array.unsafe_get t.fl f_clock then Array.unsafe_set t.fl f_clock now;
    Array.unsafe_set t.fl f_ret (now +. t.l1_lat)
  end
  else begin
    let l1_lat = t.l1_lat in
    let line = l2_line t addr in
    tick t now;
    (* hashing the line is pointless when nothing is in flight, which is
       every access of a cache-resident phase *)
    let f = if t.if_n = 0 then no_fill else if_find t line in
    if f != no_fill then begin
      f.fill_l1 <- true;
      f.l1_addr <- addr;
      observe t ~now f line;
      if f.arrival > now then begin
        (* hit under fill: ride the outstanding fetch *)
        tick t f.arrival;
        t.fl.(f_ret) <- fmax (now +. l1_lat) f.arrival
      end
      else begin
        settle t now line f;
        t.fl.(f_ret) <- now +. l1_lat
      end
    end
    else if Cache.access t.l1 ~addr ~write:false then t.fl.(f_ret) <- now +. l1_lat
    else if Cache.access t.l2 ~addr ~write:false then begin
      l1_evicted t now (Cache.insert t.l1 ~addr ~write:false);
      t.fl.(f_ret) <- now +. t.l2_lat
    end
    else begin
      let arrival = demand_fetch t ~now ~write:false addr in
      tick t arrival;
      t.fl.(f_ret) <- arrival
    end
  end

let store_io t addr =
  let now = Array.unsafe_get t.fl f_now in
  t.n_stores <- t.n_stores + 1;
  if
    t.fifo_len = 0
    && Array.unsafe_get t.fl f_bus <= now
    && Cache.hit_mru t.l1 addr ~write:true
  then begin
    (* same reduction as the load fast path; stores return no time *)
    t.fast_stores <- t.fast_stores + 1;
    if now > Array.unsafe_get t.fl f_clock then Array.unsafe_set t.fl f_clock now
  end
  else if
    (* second-tier fast path; see [load_io] *)
    now < t.next_event
    && (t.if_n = 0 || if_find t (l2_line t addr) == no_fill)
    && Cache.hit_mru t.l1 addr ~write:true
  then begin
    t.fast_stores <- t.fast_stores + 1;
    if now > Array.unsafe_get t.fl f_clock then Array.unsafe_set t.fl f_clock now
  end
  else begin
    let line = l2_line t addr in
    tick t now;
    let f = if t.if_n = 0 then no_fill else if_find t line in
    if f != no_fill then begin
      f.want_write <- true;
      f.fill_l1 <- true;
      f.l1_addr <- addr;
      observe t ~now f line;
      if f.arrival <= now then settle t now line f
    end
    else if Cache.access t.l1 ~addr ~write:true then ()
    else if Cache.access t.l2 ~addr ~write:false then
      l1_evicted t now (Cache.insert t.l1 ~addr ~write:true)
    else
      (* read-for-ownership: fetch the line, but do not stall *)
      ignore (demand_fetch t ~now ~write:true addr : float)
  end

let io t = t.fl
let io_now = f_now
let io_ret = f_ret
let io_bus = f_bus

(* Flush the write-combining buffer: its contents cross the bus as one
   write burst. *)
let wc_flush t now =
  if t.fl.(f_wc) > 0.0 then begin
    claim_bytes t now t.fl.(f_wc);
    t.fl.(f_wc) <- 0.0
  end;
  t.wc_line <- -1

let nt_store_io t ~bytes addr =
  let now = Array.unsafe_get t.fl f_now in
  let cfg = t.cfg in
  tick t now;
  (* non-temporal stores gather in a write-combining buffer and go out
     in full-line bursts — this is what keeps them off the bus's
     read/write turnaround path *)
  let line = l2_line t addr in
  if line <> t.wc_line then begin
    wc_flush t now;
    t.wc_line <- line;
    t.nt_lines <- t.nt_lines + 1
  end;
  t.fl.(f_wc) <- t.fl.(f_wc) +. float_of_int bytes;
  (* coherence: a cached copy forces the streaming store through the
     coherence protocol — a dirty copy must be flushed first, and the
     round trip costs extra on some machines (this is where blind
     non-temporal stores lose on the Opteron-like model).  The cached
     copy stays usable for timing purposes: it now matches memory. *)
  let in_l1 = Cache.probe t.l1 ~addr and in_l2 = Cache.probe t.l2 ~addr in
  if in_l1 || in_l2 then begin
    let dirty1 = if in_l1 then Cache.access t.l1 ~addr ~write:false else false in
    ignore dirty1;
    let stores_per_line = float_of_int (Cache.line_bytes t.l1 / max 1 bytes) in
    let pen = cfg.Config.wnt_read_penalty /. stores_per_line in
    t.fl.(f_bus) <- fmax now t.fl.(f_bus) +. pen;
    t.fl.(f_claims) <- t.fl.(f_claims) +. pen
  end

let prefetch_io t ~kind addr =
  let now = Array.unsafe_get t.fl f_now in
  let cfg = t.cfg in
  tick t now;
  if t.pf_inflight >= cfg.Config.pf_queue then
    t.sw_pf_dropped <- t.sw_pf_dropped + 1
  else begin
    let fill_l1, fill_l2 =
      match kind with
      | Instr.T0 -> (true, true)
      | Instr.T1 -> (false, true)
      | Instr.Nta | Instr.W -> (true, false)
    in
    if not (Cache.probe t.l1 ~addr) then begin
      let line = l2_line t addr in
      let f = if_find t line in
      if f != no_fill then begin
        (* In flight ⇒ not in L2 (see [hw_prefetch]), so the old path
           always counted this prefetch and augmented the fill. *)
        t.sw_pf_issued <- t.sw_pf_issued + 1;
        f.fill_l1 <- f.fill_l1 || fill_l1;
        f.fill_l2 <- f.fill_l2 || fill_l2;
        if fill_l1 then f.l1_addr <- addr
      end
      else if Cache.probe t.l2 ~addr then begin
        if fill_l1 then
          (* L2-resident: promote to L1 without bus traffic *)
          l1_evicted t now (Cache.insert t.l1 ~addr ~write:false)
      end
      else begin
        t.sw_pf_issued <- t.sw_pf_issued + 1;
        schedule_issue t ~now ~fill_l1 ~fill_l2 ~l1_addr:addr line
      end
    end
  end

let warm_l2 t ~addr = ignore (Cache.insert t.l2 ~addr ~write:false : int option)

let drain_time t ~now =
  wc_flush t now;
  fmax now t.fl.(f_bus)

(* Cost (in bus cycles) of eventually writing back every dirty line the
   run left in the hierarchy.  The out-of-cache timers charge this: for
   working sets beyond L2 these writebacks happen inside the timed
   window anyway, and charging them uniformly gives the steady-state
   slope the extrapolation needs. *)
let pending_writeback_cost t =
  let l1b = Cache.dirty_lines t.l1 * Cache.line_bytes t.l1 in
  let l2b = Cache.dirty_lines t.l2 * Cache.line_bytes t.l2 in
  float_of_int (l1b + l2b) *. t.cfg.Config.wb_extra /. t.cfg.Config.bus_bytes_per_cycle

type profile = {
  loads : int;
  stores : int;
  fast_loads : int;
  fast_stores : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  demand_misses : int;
  demand_cycles : float;
  bus_cycles : float;
  sw_pf_issued : int;
  sw_pf_dropped : int;
  hw_pf_issued : int;
}

let profile t =
  let l1_hits, l1_misses = Cache.stats t.l1 in
  let l2_hits, l2_misses = Cache.stats t.l2 in
  {
    loads = t.n_loads;
    stores = t.n_stores;
    fast_loads = t.fast_loads;
    fast_stores = t.fast_stores;
    l1_hits;
    l1_misses;
    l2_hits;
    l2_misses;
    demand_misses = t.n_demand;
    demand_cycles = t.demand_cycles;
    bus_cycles = t.fl.(f_claims);
    sw_pf_issued = t.sw_pf_issued;
    sw_pf_dropped = t.sw_pf_dropped;
    hw_pf_issued = t.hw_pf_issued;
  }

(* Deep copy of the full mutable state, for the timers' warm-state
   checkpointing (see Ckpt in lib/sim).  Fills are copied record by
   record in both directions: a snapshot must not alias fills the live
   run will keep mutating, and a restore must not hand the run fills
   owned by the snapshot.  Every free (empty or tombstone) slot of the
   in-flight table holds the physical [no_fill] sentinel — [if_remove],
   [if_grow] and [reset] all write it — and [copy_fill] keeps it, so
   copying the slots keeps the lookups' physical comparisons exact. *)
type snapshot = {
  ms_l1 : Cache.snapshot;
  ms_l2 : Cache.snapshot;
  ms_fl : float array;
  ms_mshr : float array;
  ms_mshr_head : int;
  ms_mshr_len : int;
  ms_if_keys : int array;
  ms_if_vals : fill array;
  ms_if_n : int;
  ms_if_used : int;
  ms_streams : (int * int) array;  (* (expect, dir) per stream *)
  ms_next_stream : int;
  ms_sw_pf_issued : int;
  ms_sw_pf_dropped : int;
  ms_hw_pf_issued : int;
  ms_nt_lines : int;
  ms_pf_inflight : int;
  ms_fifo : int array;
  ms_fifo_head : int;
  ms_fifo_len : int;
  ms_last_dir_write : bool;
  ms_wc_line : int;
  ms_n_loads : int;
  ms_n_stores : int;
  ms_fast_loads : int;
  ms_fast_stores : int;
  ms_n_demand : int;
  ms_demand_cycles : float;
}

let copy_fill f =
  if f == no_fill then no_fill
  else
    {
      arrival = f.arrival;
      fill_l1 = f.fill_l1;
      fill_l2 = f.fill_l2;
      want_write = f.want_write;
      l1_addr = f.l1_addr;
      observed = f.observed;
      is_pf = f.is_pf;
    }

let snapshot t =
  {
    ms_l1 = Cache.snapshot t.l1;
    ms_l2 = Cache.snapshot t.l2;
    ms_fl = Array.sub t.fl 0 6;
    ms_mshr = Array.copy t.mshr;
    ms_mshr_head = t.mshr_head;
    ms_mshr_len = t.mshr_len;
    ms_if_keys = Array.copy t.if_keys;
    ms_if_vals = Array.map copy_fill t.if_vals;
    ms_if_n = t.if_n;
    ms_if_used = t.if_used;
    ms_streams = Array.map (fun s -> (s.expect, s.dir)) t.streams;
    ms_next_stream = t.next_stream;
    ms_sw_pf_issued = t.sw_pf_issued;
    ms_sw_pf_dropped = t.sw_pf_dropped;
    ms_hw_pf_issued = t.hw_pf_issued;
    ms_nt_lines = t.nt_lines;
    ms_pf_inflight = t.pf_inflight;
    ms_fifo = Array.copy t.fifo;
    ms_fifo_head = t.fifo_head;
    ms_fifo_len = t.fifo_len;
    ms_last_dir_write = t.last_dir_write;
    ms_wc_line = t.wc_line;
    ms_n_loads = t.n_loads;
    ms_n_stores = t.n_stores;
    ms_fast_loads = t.fast_loads;
    ms_fast_stores = t.fast_stores;
    ms_n_demand = t.n_demand;
    ms_demand_cycles = t.demand_cycles;
  }

(* Translate every absolute timestamp so the consumption frontier
   becomes 0.  The timing model only ever compares or differences
   times, so a uniform translation leaves every future decision — bus
   stalls, fill arrivals, MSHR retirement — exactly as it would have
   unfolded; it simply re-expresses the state in the clock base of a
   fresh [Exec] run, whose issue clocks start at 0.  The sampled timer
   uses this to continue a warmed-up run as if it were one long
   simulation.  Completed-but-unswept events go negative, which the
   model treats the same as 0 (all consumers are [fmax]-style). *)
let rebase t =
  let d = t.fl.(f_clock) in
  if d <> 0.0 then begin
    t.fl.(f_clock) <- 0.0;
    t.fl.(f_bus) <- t.fl.(f_bus) -. d;
    let mask = Array.length t.mshr - 1 in
    for i = 0 to t.mshr_len - 1 do
      let j = (t.mshr_head + i) land mask in
      t.mshr.(j) <- t.mshr.(j) -. d
    done;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let f = t.if_vals.(i) in
          f.arrival <- f.arrival -. d
        end)
      t.if_keys;
    (* Same recompute sentinels as [restore]: pure acceleration state. *)
    t.head_line <- -1;
    t.head_fill <- no_fill;
    t.next_event <- (if t.fifo_len = 0 then infinity else neg_infinity)
  end

let restore t s =
  (* Structural-shape guards; Cache.restore validates cache geometry.
     Semantic compatibility (same latencies, bus width, ...) is the
     caller's contract — Ckpt keys snapshots by a digest of the whole
     machine config. *)
  Cache.restore t.l1 s.ms_l1;
  Cache.restore t.l2 s.ms_l2;
  if Array.length s.ms_mshr <> Array.length t.mshr then
    invalid_arg "Memsys.restore: MSHR ring capacity mismatch";
  if Array.length s.ms_streams <> Array.length t.streams then
    invalid_arg "Memsys.restore: prefetch stream count mismatch";
  Array.blit s.ms_fl 0 t.fl 0 6;
  Array.blit s.ms_mshr 0 t.mshr 0 (Array.length t.mshr);
  t.mshr_head <- s.ms_mshr_head;
  t.mshr_len <- s.ms_mshr_len;
  t.if_keys <- Array.copy s.ms_if_keys;
  t.if_vals <- Array.map copy_fill s.ms_if_vals;
  t.if_n <- s.ms_if_n;
  t.if_used <- s.ms_if_used;
  Array.iteri
    (fun i st ->
      let expect, dir = s.ms_streams.(i) in
      st.expect <- expect;
      st.dir <- dir)
    t.streams;
  t.next_stream <- s.ms_next_stream;
  t.sw_pf_issued <- s.ms_sw_pf_issued;
  t.sw_pf_dropped <- s.ms_sw_pf_dropped;
  t.hw_pf_issued <- s.ms_hw_pf_issued;
  t.nt_lines <- s.ms_nt_lines;
  t.pf_inflight <- s.ms_pf_inflight;
  t.fifo <- Array.copy s.ms_fifo;
  t.fifo_head <- s.ms_fifo_head;
  t.fifo_len <- s.ms_fifo_len;
  (* Acceleration caches restart at their recompute sentinels, exactly
     as [reset] leaves them: the first sweep rebuilds the head cache,
     so this is pure acceleration state and never changes behavior. *)
  t.head_line <- -1;
  t.head_fill <- no_fill;
  t.next_event <- (if s.ms_fifo_len = 0 then infinity else neg_infinity);
  t.last_dir_write <- s.ms_last_dir_write;
  t.wc_line <- s.ms_wc_line;
  t.n_loads <- s.ms_n_loads;
  t.n_stores <- s.ms_n_stores;
  t.fast_loads <- s.ms_fast_loads;
  t.fast_stores <- s.ms_fast_stores;
  t.n_demand <- s.ms_n_demand;
  t.demand_cycles <- s.ms_demand_cycles
