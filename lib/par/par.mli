(** Domain-based parallel evaluation with deterministic result order.

    The empirical search spends essentially all of its time in probe
    evaluation (compile + verify + time); probes are pure with respect
    to each other — every probe snapshots the kernel and builds its own
    {!Ifko_sim.Env}/{!Ifko_machine.Memsys} state — so whole candidate
    batches can be evaluated concurrently.  This module provides the
    substrate: a persistent pool of worker domains and an order-
    preserving [map], so callers get bit-identical results regardless
    of [jobs] (results come back in submission order; ties are then
    broken exactly as in the sequential code).

    Exceptions raised by tasks are re-raised in the submitting domain;
    when several tasks of one batch fail, the {e lowest-index} failure
    is chosen, so even error behaviour is deterministic. *)

module Pool : sig
  type t
  (** A pool of [jobs] lanes: [jobs - 1] worker domains plus the
      submitting domain.  With [jobs <= 1] no domains are spawned and
      every batch runs inline in the submitting domain — the two paths
      are observationally identical for pure tasks.

      Batches may be submitted concurrently from several domains or
      threads (the serve daemon multiplexes every in-flight tune's
      probe batches onto one pool): each batch completes independently,
      and its submitter wakes as soon as its own tasks are done.
      While a batch is outstanding its submitter {e helps}, executing
      queued tasks (its own or other submitters') instead of parking:
      the submitting domain is the pool's last lane, and concurrent
      tunes' probe batches merge into one shared work stream.  Helping
      never affects outputs: results are written to input-indexed
      slots.  With one submitting domain, at most [jobs] tasks run at
      once. *)

  val create : jobs:int -> t
  (** [create ~jobs] clamps [jobs] to [\[1, 64\]] and, when [jobs > 1],
      spawns [jobs - 1] worker domains that sleep until work arrives;
      the caller of {!run} is the [jobs]-th lane, so the pool never
      runs more domains than asked for. *)

  val jobs : t -> int
  (** The (clamped) parallelism degree. *)

  val run : t -> int -> (int -> 'a) -> 'a array
  (** [run t n f] evaluates [f 0 .. f (n-1)] (concurrently when the
      pool has workers) and returns the results indexed by input:
      [(run t n f).(i) = f i].  Re-raises the lowest-index exception
      after the whole batch has settled. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Order-preserving parallel [List.map] built on {!run}. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  Idempotent.  The pool must be
      idle (no batch in flight). *)

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [with_pool ~jobs f] runs [f] on a fresh pool and shuts the pool
      down afterwards, whether [f] returns or raises. *)
end
