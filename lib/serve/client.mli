(** Blocking client for the `ifko serve` protocol.

    One request at a time per connection; every call is a full round
    trip.  Protocol- and server-level failures come back as
    [Error msg]; transport failures (refused connection, broken pipe)
    raise the underlying [Unix.Unix_error].  Not thread-safe — use one
    client per thread (the daemon multiplexes them fine). *)

type t

val connect : Server.listen -> t
(** @raise Unix.Unix_error if the daemon is not there. *)

val close : t -> unit
(** Idempotent. *)

val with_client : Server.listen -> (t -> 'a) -> 'a
(** [connect], run, [close] (also on exceptions). *)

val tune : t -> Proto.tune_args -> (Proto.tune_reply, string) result
(** Full empirical tune; [reply.hit] tells whether the daemon answered
    from its result cache.  Bit-identical to a local sequential
    {!Ifko_search.Driver.tune} of the same request. *)

val lookup : t -> Proto.tune_args -> (Proto.tune_reply option, string) result
(** Result-cache query; [Ok None] on a miss.  Never computes. *)

val stat : t -> ((string * Proto.Json.value) list, string) result
(** The daemon's statistics object: ["store"] ({!Ifko_store.Store.stat_fields})
    and ["server"] (request counters, uptime, pool geometry). *)

val compact : t -> (unit, string) result
(** Apply the daemon's eviction bounds and compact every shard. *)

val shutdown : t -> (unit, string) result
(** Graceful stop; the daemon acknowledges before exiting. *)
