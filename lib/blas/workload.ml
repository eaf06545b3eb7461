open Defs

let alpha = 0.77

let vector ~seed ~which ~prec n =
  let rng = Ifko_util.Rng.create (seed + (which * 7919)) in
  Array.init n (fun _ -> Ref_impl.round_to prec (Ifko_util.Rng.sign_float rng 1.0))

(* The timers rebuild the same few environments thousands of times per
   tune (per probe point, per sample size), and drawing the input
   vectors afresh dominated environment construction.  The draws are a
   pure function of (seed, which, prec, n), so memoize them.  Entries
   are handed out read-only: [make_env] copies them into the simulated
   memory and [reference_expectation] (which mutates its vectors in
   place) keeps calling [vector] directly. *)
let vector_cache : (int * int * Instr.fsize * int, float array) Hashtbl.t =
  Hashtbl.create 32

let vector_mutex = Mutex.create ()

let vector_memo ~seed ~which ~prec n =
  let key = (seed, which, prec, n) in
  Mutex.lock vector_mutex;
  let v =
    match Hashtbl.find_opt vector_cache key with
    | Some v -> v
    | None ->
      let v = vector ~seed ~which ~prec n in
      (* the cache is bounded by the handful of window sizes a run
         uses; drop everything if it somehow grows past that *)
      if Hashtbl.length vector_cache > 256 then Hashtbl.reset vector_cache;
      Hashtbl.replace vector_cache key v;
      v
  in
  Mutex.unlock vector_mutex;
  v

let mem_bytes_for ~prec n =
  (* two arrays, page alignment slack, stack, prefetch headroom; the
     floor only binds for small (window-sized) problems, where a big
     flat allocation would be pure memset overhead.  Array addresses
     are independent of the total size, so cycle counts are too. *)
  let bytes = n * Instr.fsize_bytes prec in
  max (1 lsl 18) ((2 * bytes) + (1 lsl 16))

let make_env ({ routine; prec } as id) ~seed n =
  ignore id;
  let env = Ifko_sim.Env.create ~mem_bytes:(mem_bytes_for ~prec n) () in
  Ifko_sim.Env.bind_int env "N" n;
  if has_alpha routine then Ifko_sim.Env.bind_fp env "alpha" prec alpha;
  Ifko_sim.Env.alloc_array env "X" prec n;
  let x = vector_memo ~seed ~which:1 ~prec n in
  Ifko_sim.Env.fill env "X" (fun i -> x.(i));
  if has_y routine then begin
    Ifko_sim.Env.alloc_array env "Y" prec n;
    let y = vector_memo ~seed ~which:2 ~prec n in
    Ifko_sim.Env.fill env "Y" (fun i -> y.(i))
  end;
  env

let timer_spec id ~seed =
  {
    Ifko_sim.Timer.make_env = (fun n -> make_env id ~seed n);
    ret_fsize = id.prec;
  }

let reference_expectation ({ routine; prec } as id) ~seed n =
  ignore id;
  let x = vector ~seed ~which:1 ~prec n in
  let y = if has_y routine then vector ~seed ~which:2 ~prec n else [||] in
  match routine with
  | Swap ->
    Ref_impl.swap ~x ~y;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = None }
  | Scal ->
    Ref_impl.scal prec ~alpha ~x;
    { Ifko_sim.Verify.arrays = [ ("X", x) ]; ret = None }
  | Copy ->
    Ref_impl.copy ~x ~y;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = None }
  | Axpy ->
    Ref_impl.axpy prec ~alpha ~x ~y;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = None }
  | Dot ->
    let d = Ref_impl.dot prec ~x ~y in
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = Some (Ifko_sim.Exec.Rfp d) }
  | Asum ->
    let s = Ref_impl.asum prec ~x in
    { Ifko_sim.Verify.arrays = [ ("X", x) ]; ret = Some (Ifko_sim.Exec.Rfp s) }
  | Iamax ->
    let i = Ref_impl.iamax ~x in
    { Ifko_sim.Verify.arrays = [ ("X", x) ]; ret = Some (Ifko_sim.Exec.Rint i) }

(* Testers ask for the same few expectations on every probe (the BLAS
   tester checks six sizes per candidate), and each is a pure function
   of (kernel, seed, n): memoize them like the vectors, dropping the
   whole table when it fills.  The bound is two tunes' six sizes: each
   tune draws its own seed, so older entries are dead weight, and
   keeping them costs memory out of proportion to their size (with 64
   entries, the benchmark's 20 s tune_par run peaked about a fifth
   higher in resident memory; with 12, within its run-to-run spread;
   2 vCPUs, OCaml 5.1).  Entries are shared, so they are handed out
   read-only: every tester only compares against them. *)
let expectation_cache : (kernel_id * int * int, Ifko_sim.Verify.expectation) Hashtbl.t =
  Hashtbl.create 32

let expectation_mutex = Mutex.create ()

let expectation id ~seed n =
  let key = (id, seed, n) in
  Mutex.protect expectation_mutex (fun () ->
      match Hashtbl.find_opt expectation_cache key with
      | Some e -> e
      | None ->
        let e = reference_expectation id ~seed n in
        if Hashtbl.length expectation_cache >= 12 then Hashtbl.reset expectation_cache;
        Hashtbl.replace expectation_cache key e;
        e)

let tolerance { routine; prec } ~n =
  let base = match prec with Instr.S -> 2e-6 | Instr.D -> 1e-12 in
  match routine with
  | Dot | Asum -> base *. Float.max 16.0 (sqrt (float_of_int (max 1 n))) *. 16.0
  | Swap | Scal | Copy | Axpy | Iamax -> base *. 16.0
