(** The `ifko serve` daemon.

    A socket server (Unix-domain or TCP) speaking the newline-delimited
    JSON protocol of {!Proto}: one systhread per connection, all
    in-flight tunes multiplexed onto one sharded probe store
    ({!Ifko_store.Store}), one shared domain pool and one shared
    compiled-candidate cache ({!Ifko_search.Codecache}).  Each tune is a
    {!Ifko_search.Driver.tune} with [~store], exactly as [ifko tune
    --store] runs it, with its own warm-state checkpoint cache; the
    {!Ifko_search.Tune_record} it journals answers repeat [tune] and
    [lookup] requests.  Computed and cached replies are built from a
    tune record alike.

    Each daemon memoizes its front end: a table maps a request's kernel
    source text to its {!Ifko_codegen.Lower.compiled} lowering and
    {!Ifko_search.Driver.kernel_fingerprint}, so a warm [tune] or
    [lookup] goes from {!Proto.decode} and the table straight to
    {!Ifko_search.Driver.tune_key} and the record's lookup without
    parsing, type checking or lowering.  Only successful lowerings are kept: a
    rejected kernel is lowered again on every request and gets the same
    [Failed] text.  The table is an {!Ifko_par.Memo}: racing first
    requests for one source lower it once, and it holds at most
    {!max_lowering_bytes} bytes of source text, dropped whole when an
    insert would pass that.  Cold tunes run on the shared lowering, which nothing
    mutates: {!Ifko_transform.Pipeline.apply} transforms a
    {!Ifko_transform.Pipeline.snapshot} (whose [Cfg.copy] starts fresh
    register and label counters), and {!Ifko_analysis.Report.analyze},
    {!Ifko_search.Generic.spec} and {!Ifko_search.Generic.test} only
    read it.

    The [stat] reply holds three objects: ["store"]
    ({!Ifko_store.Store.stat_fields}), ["server"] (request counters,
    in-flight tunes, connections, pool geometry, and the lowering
    table's ["lowering_hits"], ["lowering_misses"] and
    ["lowering_bytes"], the source bytes it holds) and ["codecache"]
    (its hits and misses).

    A request line may be at most 1 MiB.  A longer one gets a [Failed]
    reply naming the limit, counts as one error in [stat], and closes
    that connection; other connections are unaffected.

    Determinism contract: a [tune] reply is bit-identical to a local,
    sequential, storeless {!Ifko_search.Driver.tune} of the same
    request, whatever the daemon's [jobs]/[shards] settings, whichever
    client asked first, and whether the reply was computed or served
    from cache. *)

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  store_dir : string;  (** shard directory, created on first run *)
  shards : int;  (** only used when creating the directory *)
  jobs : int;  (** shared domain pool size; 1 = no pool *)
  replica : bool;  (** several daemons share [store_dir] *)
  max_bytes : int option;  (** whole-store eviction budget *)
  max_age : float option;  (** seconds; older entries are evictable *)
  log : string -> unit;  (** one line per event; [ignore] to silence *)
}

val default_config : store_dir:string -> listen -> config
(** 8 shards, jobs 1, no replica, no bounds, silent. *)

val max_lowering_bytes : int
(** 4 MiB: the most kernel source text one daemon's lowering table
    holds. *)

val run : ?clock:(unit -> float) -> ?ready:(unit -> unit) -> config -> unit
(** Bind, listen, and serve until a [shutdown] request (or a fatal
    accept error).  Blocks the calling thread; spawn it in a
    {!Thread.t} to run in-process (the bench and tests do).  [ready]
    fires once the socket is listening.  [clock] (default
    [Unix.gettimeofday]) stamps store entries for age-bounded eviction
    and feeds the uptime statistic — tests pass a fake clock.

    Shutdown is graceful: the listener closes first, every connection
    finishes the request it is processing and is then half-closed, and
    [run] returns when the last connection thread exits (Unix socket
    path unlinked, store and pool released).

    In a replica group, configure eviction bounds on {e one} daemon
    only: compaction rewrites journals in place, which is safe against
    concurrent [O_APPEND] writers only when a single process compacts
    (see DESIGN.md §13). *)
