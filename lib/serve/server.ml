(* The `ifko serve` daemon: a socket front-end over Driver.tune.

   One systhread per connection reads newline-delimited JSON requests
   (Proto) and answers them in order.  All in-flight tunes share one
   sharded probe store (single-flight per probe key) and one domain
   pool, so concurrent clients' probe compilations batch onto the same
   workers and identical cold tunes coalesce into one search.  Each
   tune is an ordinary Driver.tune ~store, which journals its
   Tune_record as a CLI tune does; the daemon answers warm tunes and
   lookups from that record (O(hash lookup), persistent across
   restarts).  Each tune keeps its own warm-state checkpoint cache.
   A bounded per-daemon table memoizes each kernel source's lowering
   and fingerprint, so warm requests skip the front end.

   The determinism contract: any reply computed here is bit-identical
   to a sequential, storeless Driver.tune of the same request — probes
   are pure, caching round-trips floats through %.17g, and the search
   itself is order-preserving under the pool. *)

module Store = Ifko_store.Store
module Json = Store.Json
module Driver = Ifko_search.Driver
module Generic = Ifko_search.Generic
module Codecache = Ifko_search.Codecache
module Tune_record = Ifko_search.Tune_record

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  store_dir : string;
  shards : int;
  jobs : int;
  replica : bool;
  max_bytes : int option;  (** whole-store eviction budget *)
  max_age : float option;  (** seconds; entries older are evictable *)
  log : string -> unit;
}

let default_config ~store_dir listen =
  {
    listen;
    store_dir;
    shards = 8;
    jobs = 1;
    replica = false;
    max_bytes = None;
    max_age = None;
    log = ignore;
  }

(* ---------------- server state ---------------- *)

type t = {
  cfg : config;
  store : Store.t;
  pool : Ifko_par.Par.Pool.t option;
  clock : unit -> float;
  started : float;
  wake_wr : Unix.file_descr;  (* self-pipe: unblocks the accept select *)
  mu : Mutex.t;
  cv : Condition.t;
  mutable stopping : bool;
  mutable active : int;  (* live connection threads *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  tune_flight : (string, (Tune_record.t * bool, string) result) Ifko_par.Flight.t;
      (* whole-tune single flight: concurrent cold tunes of the same
         request run the search once (probe-level single flight alone
         would dedup the probes but still replay the line-search
         bookkeeping per client) *)
  codecache : Codecache.t;
      (* daemon-wide: distinct in-flight tunes (same kernel, different
         N / context / fidelity) compile each candidate once *)
  lowerings : (string, Ifko_codegen.Lower.compiled * string) Ifko_par.Memo.t;
      (* source text -> its lowering and kernel fingerprint *)
  n_requests : int Atomic.t;
  n_tunes : int Atomic.t;  (* tune ops that ran the search *)
  n_tune_hits : int Atomic.t;  (* tune ops answered from the result cache *)
  n_lookups : int Atomic.t;
  n_errors : int Atomic.t;
}

let logf t fmt = Printf.ksprintf t.cfg.log fmt

(* ---------------- tune / lookup ---------------- *)

(* Four request lines' worth ([max_line] below): one source always fits. *)
let max_lowering_bytes = 4 lsl 20

(* The front end, memoized per daemon: a warm request sends the same
   source text every time, so its lowering and fingerprint come from
   the memo.  Rejected kernels raise out of the compute and are not
   stored, so they are lowered (and fail the same way) again. *)
let lower_kernel t src =
  match
    Ifko_par.Memo.get t.lowerings src (fun () ->
        let compiled = Ifko_codegen.Lower.of_source src in
        (compiled, Driver.kernel_fingerprint compiled))
  with
  | exception Failure msg -> Error msg
  | exception e -> Error (Printexc.to_string e)
  | lowered -> Ok lowered

let ( let* ) = Result.bind

(* Computed and cached replies alike. *)
let reply_of_record ~hit (r : Tune_record.t) =
  { Proto.best = r.Tune_record.best;
    mflops = r.Tune_record.mflops;
    fko_mflops = r.Tune_record.fko_mflops;
    evaluations = r.Tune_record.evaluations;
    hit;
  }

(* Decode a request and resolve its kernel text to the result-cache key
   and the tune that computes the keyed record.  Any lowering-relevant
   source edit changes the fingerprint, hence the key.  The daemon
   tunes at full fidelity in the paper's space: [Driver.tune]'s and
   [Driver.tune_key]'s defaults. *)
let resolve t (a : Proto.tune_args) =
  let* cfg, context, strategy = Proto.decode a in
  let* compiled, kernel = lower_kernel t a.kernel in
  let key =
    Driver.tune_key ~check_each_pass:a.check ~strategy ~seed:a.seed ~cfg ~context ~n:a.n
      ~flops_per_n:a.flops_per_n kernel
  in
  let compute () =
    match
      let spec = Generic.spec ~seed:a.seed compiled in
      Driver.tune ~check_each_pass:a.check ~strategy ~warm_start:a.warm_start ~store:t.store
        ?pool:t.pool ~seed:a.seed ~codecache:t.codecache ~cfg ~context ~spec ~n:a.n
        ~flops_per_n:a.flops_per_n
        ~test:(Generic.test compiled spec)
        compiled
    with
    | exception Failure msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
    | tuned -> Ok (Driver.record tuned)
  in
  Ok (key, compute)

(* Opportunistic maintenance: after every computed tune, apply the
   configured bounds (age first, then size) — shards compact themselves
   only when something was actually dropped, so a warm steady state
   costs one stat per tune. *)
let apply_bounds t =
  match (t.cfg.max_bytes, t.cfg.max_age) with
  | None, None -> ()
  | max_bytes, max_age ->
    let dropped =
      Store.evict ?max_bytes ?max_age ~now:(t.clock ()) t.store
    in
    if dropped > 0 then logf t "evicted %d entries" dropped

let tune_shared t (key, compute) =
  match Tune_record.find t.store ~key with
  | Some r ->
    Atomic.incr t.n_tune_hits;
    Ok (reply_of_record ~hit:true r)
  | None ->
    let r, joined =
      Ifko_par.Flight.run t.tune_flight ~key (fun () ->
          match Tune_record.find t.store ~key with
          | Some r ->
            Atomic.incr t.n_tune_hits;
            Ok (r, true)
          | None ->
            Atomic.incr t.n_tunes;
            let r = compute () in
            if Result.is_ok r then apply_bounds t;
            Result.map (fun r -> (r, false)) r)
    in
    if joined && Result.is_ok r then Atomic.incr t.n_tune_hits;
    Result.map (fun (r, hit) -> reply_of_record ~hit:(hit || joined) r) r

let do_tune t a = Result.bind (resolve t a) (tune_shared t)

let do_lookup t a =
  let* key, _ = resolve t a in
  Atomic.incr t.n_lookups;
  Ok (Option.map (reply_of_record ~hit:true) (Tune_record.find t.store ~key))

(* ---------------- stat ---------------- *)

let stat_fields t =
  let s = Store.stat t.store in
  let num n = Json.N (float_of_int n) in
  let count c = num (Atomic.get c) in
  let lw = Ifko_par.Memo.stats t.lowerings in
  Mutex.lock t.mu;
  let server =
    [ ("uptime_s", Json.N (Float.max 0.0 (t.clock () -. t.started)));
      ("requests", count t.n_requests);
      ("tunes", count t.n_tunes);
      ("tune_hits", count t.n_tune_hits);
      ("lookups", count t.n_lookups);
      ("errors", count t.n_errors);
      ("lowering_hits", num lw.Ifko_par.Memo.hits);
      ("lowering_misses", num lw.Ifko_par.Memo.misses);
      ("lowering_bytes", num lw.Ifko_par.Memo.held);
      ("inflight_tunes", Json.N (float_of_int (Ifko_par.Flight.inflight t.tune_flight)));
      ("connections", Json.N (float_of_int t.active));
      ("jobs", Json.N (float_of_int t.cfg.jobs));
      ("shards", Json.N (float_of_int (Store.shard_count t.store)));
      ("replica", Json.B t.cfg.replica);
    ]
  in
  Mutex.unlock t.mu;
  (* compiled-candidate cache effectiveness: how much per-probe
     compilation the daemon skipped *)
  let cc = Codecache.stats t.codecache in
  let code =
    [ ("hits", Json.N (float_of_int cc.Codecache.hits));
      ("misses", Json.N (float_of_int cc.Codecache.misses));
    ]
  in
  [ ("store", Json.O (Store.stat_fields s));
    ("server", Json.O server);
    ("codecache", Json.O code);
  ]

(* ---------------- shutdown ---------------- *)

let shutdown_fd fd = try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ()

(* Graceful stop: poke the accept loop awake through the self-pipe
   (closing the listening fd would NOT unblock a thread already parked
   in accept), then half-close every other connection for receive —
   each connection thread finishes the request it is processing, sees
   EOF on its next read, and exits.  [run] returns once the last thread
   is gone. *)
let initiate_shutdown t ~self =
  Mutex.lock t.mu;
  let first = not t.stopping in
  t.stopping <- true;
  let others =
    Hashtbl.fold (fun fd () acc -> if Some fd = self then acc else fd :: acc) t.conns []
  in
  Mutex.unlock t.mu;
  if first then begin
    logf t "shutting down";
    (try ignore (Unix.write t.wake_wr (Bytes.of_string "!") 0 1) with _ -> ());
    List.iter shutdown_fd others
  end

(* ---------------- connections ---------------- *)

let handle t ~fd (req : Proto.req) : Proto.reply =
  match req.Proto.request with
  | Proto.Tune a -> (
    match do_tune t a with
    | Ok r -> Proto.Tuned ("tune", r)
    | Error msg -> Proto.Failed msg)
  | Proto.Lookup a -> (
    match do_lookup t a with
    | Ok (Some r) -> Proto.Tuned ("lookup", r)
    | Ok None -> Proto.Miss
    | Error msg -> Proto.Failed msg)
  | Proto.Stat -> Proto.Stats (stat_fields t)
  | Proto.Compact ->
    apply_bounds t;
    Store.compact t.store;
    Proto.Done "compact"
  | Proto.Shutdown ->
    initiate_shutdown t ~self:(Some fd);
    Proto.Done "shutdown"

(* The longest request line the daemon reads, so that one client
   cannot grow its memory without limit. *)
let max_line = 1 lsl 20

(* A connection's lines are read through [chunk], whose bytes
   [pos..len) are read but not yet consumed: one channel lock per read,
   where [input_char] would take one per byte. *)
type reader = { ic : in_channel; chunk : Bytes.t; mutable pos : int; mutable len : int }

(* [input_line] that never holds more than [max_line] bytes of one
   line: [`Line], [`Eof] or [`Too_long].  A last line without its
   newline still counts. *)
let read_line r =
  let line = Buffer.create 256 in
  let rec go () =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then if Buffer.length line = 0 then `Eof else `Line (Buffer.contents line)
    else
      let stop =
        match Bytes.index_from_opt r.chunk r.pos '\n' with Some i when i < r.len -> i | _ -> r.len
      in
      if Buffer.length line + stop - r.pos > max_line then `Too_long
      else begin
        Buffer.add_subbytes line r.chunk r.pos (stop - r.pos);
        r.pos <- min (stop + 1) r.len;
        if stop = r.len then go () else `Line (Buffer.contents line)
      end
  in
  go ()

let reply oc resp =
  match
    output_string oc (Proto.render_response resp);
    output_char oc '\n'
  with
  | exception Sys_error _ -> ()
  | () -> ( try flush oc with Sys_error _ -> ())

let serve_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let r = { ic; chunk = Bytes.create 4096; pos = 0; len = 0 } in
  let rec loop () =
    match read_line r with
    | exception Sys_error _ -> ()
    | `Eof -> ()
    | `Too_long ->
      Atomic.incr t.n_errors;
      reply oc
        { Proto.resp_id = "";
          reply = Proto.Failed (Printf.sprintf "request line exceeds %d bytes" max_line) }
    | `Line line when String.trim line = "" -> loop ()
    | `Line line ->
      Atomic.incr t.n_requests;
      let resp, stop =
        match Proto.parse_request line with
        | Error (id, msg) ->
          Atomic.incr t.n_errors;
          ({ Proto.resp_id = id; reply = Proto.Failed msg }, false)
        | Ok req ->
          let reply = handle t ~fd req in
          (match reply with Proto.Failed _ -> Atomic.incr t.n_errors | _ -> ());
          ( { Proto.resp_id = req.Proto.req_id; reply },
            req.Proto.request = Proto.Shutdown )
      in
      reply oc resp;
      if not stop then loop ()
  in
  (try loop () with _ -> ());
  Mutex.lock t.mu;
  Hashtbl.remove t.conns fd;
  t.active <- t.active - 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  try Unix.close fd with _ -> ()

(* ---------------- listener ---------------- *)

let bind_listen = function
  | `Unix path ->
    if Sys.file_exists path then begin
      (* only ever remove a stale socket, never a regular file *)
      if (Unix.stat path).Unix.st_kind <> Unix.S_SOCK then
        failwith (Printf.sprintf "%s exists and is not a socket" path);
      Unix.unlink path
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    fd
  | `Tcp (host, port) ->
    let addr =
      if host = "" || host = "*" then Unix.inet_addr_any
      else
        try Unix.inet_addr_of_string host
        with _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    fd

let listen_name = function
  | `Unix path -> path
  | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let run ?(clock = Unix.gettimeofday) ?(ready = ignore) config =
  let store =
    Store.open_ ~shards:config.shards ~replica:config.replica ~clock config.store_dir
  in
  let pool =
    if config.jobs <= 1 then None
    else Some (Ifko_par.Par.Pool.create ~jobs:config.jobs)
  in
  let wake_rd, wake_wr = Unix.pipe () in
  let t =
    {
      cfg = config;
      store;
      pool;
      clock;
      started = clock ();
      wake_wr;
      mu = Mutex.create ();
      cv = Condition.create ();
      stopping = false;
      active = 0;
      conns = Hashtbl.create 16;
      tune_flight = Ifko_par.Flight.create ();
      codecache = Codecache.create ();
      lowerings =
        Ifko_par.Memo.create ~limit:max_lowering_bytes
          ~weight:String.length
          ();
      n_requests = Atomic.make 0;
      n_tunes = Atomic.make 0;
      n_tune_hits = Atomic.make 0;
      n_lookups = Atomic.make 0;
      n_errors = Atomic.make 0;
    }
  in
  let listen_fd = bind_listen config.listen in
  Unix.listen listen_fd 64;
  logf t "listening on %s (%d shards, jobs=%d%s)" (listen_name config.listen)
    (Store.shard_count store) config.jobs
    (if config.replica then ", replica" else "");
  ready ();
  (* select-then-accept: the self-pipe makes shutdown from another
     thread reliable (no race against a parked accept), and the
     nonblocking listener makes a spurious wakeup harmless *)
  Unix.set_nonblock listen_fd;
  let stopping () =
    Mutex.lock t.mu;
    let s = t.stopping in
    Mutex.unlock t.mu;
    s
  in
  let rec accept_loop () =
    if not (stopping ()) then begin
      match Unix.select [ listen_fd; wake_rd ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception _ -> ()
      | ready_fds, _, _ ->
        if List.mem listen_fd ready_fds && not (stopping ()) then begin
          match Unix.accept listen_fd with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ()
          | exception _ ->
            Mutex.lock t.mu;
            t.stopping <- true;
            Mutex.unlock t.mu
          | fd, _ ->
            (try Unix.clear_nonblock fd with _ -> ());
            Mutex.lock t.mu;
            Hashtbl.replace t.conns fd ();
            t.active <- t.active + 1;
            Mutex.unlock t.mu;
            ignore (Thread.create (fun () -> serve_conn t fd) ())
        end;
        if not (List.mem wake_rd ready_fds) then accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close listen_fd with _ -> ());
  (* accept can also exit on an unexpected error; make sure connection
     threads are told to finish either way *)
  initiate_shutdown t ~self:None;
  (try Unix.close wake_rd with _ -> ());
  (try Unix.close wake_wr with _ -> ());
  Mutex.lock t.mu;
  while t.active > 0 do
    Condition.wait t.cv t.mu
  done;
  Mutex.unlock t.mu;
  Option.iter Ifko_par.Par.Pool.shutdown pool;
  Store.close store;
  (match config.listen with
  | `Unix path -> ( try Unix.unlink path with _ -> ())
  | `Tcp _ -> ());
  logf t "stopped"
