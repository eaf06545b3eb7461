(** Machine descriptions for the cycle-approximate simulator.

    Two configurations model the paper's evaluation platforms.  The
    parameters are not a die-shot reproduction; they encode the
    qualitative properties the paper's analysis rests on:

    - the P4E-like machine has a fast clock but a bus that delivers few
      bytes per cycle, so streaming kernels are strongly bus-bound and
      the MLP (miss-level-parallelism) limit keeps demand misses from
      saturating the bus without prefetch;
    - the Opteron-like machine has a slower clock with an on-die memory
      controller: lower latency, more bytes per cycle, hence less
      bus-bound — which is why the paper finds more headroom for
      empirical prefetch tuning there;
    - non-temporal stores avoid the read-for-ownership and the
      (inefficient) dirty-writeback path on the P4E-like bus, but on
      the Opteron-like machine they carry a penalty whenever the target
      line is also cached (the paper: "non-temporal writes result in
      significant overhead unless the operand is write only");
    - the Opteron-like core splits 16-byte vector operations into two
      8-byte halves (as the K8 did), halving the SIMD advantage;
    - the hardware prefetcher runs a bounded number of lines ahead and
      does not cross 4 KiB page boundaries, leaving the gap software
      prefetch fills. *)

type cache_level = {
  size : int;  (** bytes *)
  line : int;  (** bytes *)
  assoc : int;
  latency : int;  (** load-to-use cycles on a hit *)
}

type t = {
  name : string;
  ghz : float;
  issue_width : int;  (** micro-ops issued per cycle *)
  rob_size : int;
      (** reorder-buffer capacity in micro-ops: issue stalls when the
          µop this many slots back has not completed.  This is what
          bounds how far demand misses can overlap — and hence why
          software prefetch (which needs no ROB residency for its data)
          can run much further ahead *)
  l1 : cache_level;
  l2 : cache_level;
  mem_latency : int;  (** cycles from request to first use *)
  bus_bytes_per_cycle : float;  (** sustained memory bandwidth *)
  mshrs : int;  (** maximum outstanding demand misses *)
  fadd_lat : int;
  fmul_lat : int;
  fdiv_lat : int;
  vec_uops : int;  (** µops per 16-byte vector operation (1 or 2) *)
  hw_prefetch_ahead : int;  (** lines the stream prefetcher runs ahead *)
  hw_prefetch_streams : int;
  wnt_read_penalty : float;
      (** extra bus cycles when a non-temporal store hits a cached line *)
  wb_extra : float;
      (** dirty-writeback bus-occupancy multiplier (FSB burst overhead) *)
  branch_misp_penalty : int;
  prefetchable_line : int;
      (** the paper's L: line size of the first prefetchable cache *)
  bus_turnaround : float;
      (** extra bus cycles when a transfer switches direction between
          read and write: DRAM/FSB turnaround.  Amortizing it is what
          AMD's block-fetch technique (used by ATLAS's hand-tuned
          [dcopy*]) is about. *)
  pf_queue : int;
      (** capacity of the prefetch request queue: software prefetches
          are dropped while this many prefetched lines are still in
          flight.  Under bus saturation arrivals slow down, the queue
          stays full and prefetches get discarded — the paper's
          "architectures simply ignore prefetch instructions in this
          case". *)
  pf_latency_factor : float;
      (** prefetch requests (hardware and software) are lowest-priority
          at the memory controller and lose arbitration to demand
          reads, so a prefetched line arrives this factor later than a
          demand fetch would.  This is what bounds the fixed-ahead
          hardware prefetcher's throughput and what the empirically
          tuned software-prefetch distance must out-run. *)
}

(** 2.8 GHz Pentium-4E-like configuration. *)
let p4e =
  {
    name = "P4E";
    ghz = 2.8;
    issue_width = 3;
    rob_size = 126;
    l1 = { size = 16 * 1024; line = 64; assoc = 8; latency = 4 };
    l2 = { size = 1024 * 1024; line = 128; assoc = 8; latency = 22 };
    mem_latency = 360;
    bus_bytes_per_cycle = 2.3;
    mshrs = 8;
    fadd_lat = 5;
    fmul_lat = 7;
    fdiv_lat = 38;
    vec_uops = 1;
    hw_prefetch_ahead = 3;
    hw_prefetch_streams = 8;
    wnt_read_penalty = 4.0;
    wb_extra = 1.35;
    branch_misp_penalty = 24;
    prefetchable_line = 128;
    bus_turnaround = 18.0;
    pf_queue = 32;
    pf_latency_factor = 2.2;
  }

(** 1.6 GHz Opteron-like configuration. *)
let opteron =
  {
    name = "Opteron";
    ghz = 1.6;
    issue_width = 3;
    rob_size = 72;
    l1 = { size = 64 * 1024; line = 64; assoc = 2; latency = 3 };
    l2 = { size = 1024 * 1024; line = 64; assoc = 16; latency = 16 };
    mem_latency = 130;
    bus_bytes_per_cycle = 4.0;
    mshrs = 8;
    fadd_lat = 4;
    fmul_lat = 4;
    fdiv_lat = 20;
    vec_uops = 2;
    hw_prefetch_ahead = 3;
    hw_prefetch_streams = 8;
    wnt_read_penalty = 40.0;
    wb_extra = 1.0;
    branch_misp_penalty = 12;
    prefetchable_line = 64;
    bus_turnaround = 4.0;
    pf_queue = 48;
    pf_latency_factor = 1.9;
  }

let all = [ p4e; opteron ]

(** The names the CLI and the daemon accept: ["p4e" | "opteron"]. *)
let of_name = function
  | "p4e" -> Ok p4e
  | "opteron" -> Ok opteron
  | other -> Error (Printf.sprintf "unknown machine %S (p4e|opteron)" other)

(** Elements of [fsize] per line of the first prefetchable cache — the
    paper's L_e, used for FKO's default unroll factor. *)
let elems_per_line t fsize = t.prefetchable_line / Instr.fsize_bytes fsize
