(** A bounded keyed free list: a pool of exclusive scratch values.

    Where a {!Memo} shares finished results between callers, a free
    list lends values out one holder at a time: {!take} removes a held
    value from the pool, {!put} hands one back.  Every pool of reusable
    scratch state in ifko is one of these (DESIGN.md §15, "Pools").
    The pool never cleans a value: what state a returned value is in,
    and what a taker must do before using it, is the owner's contract.

    The bound is {!Memo}'s: a weight per value, worked out from its
    key, and a limit on the weight held.  A {!put} that would pass the
    limit drops everything held first (a value heavier than the limit
    on its own is dropped), so the held weight never exceeds the
    limit.  The default is unbounded.

    Keys are compared structurally, as in {!Memo}.  Thread-safe: one
    mutex guards the table, and no value is ever handed to two
    takers. *)

type ('k, 'v) t

val create : ?limit:int -> ?weight:('k -> int) -> unit -> ('k, 'v) t
(** An empty pool holding at most [limit] (default [max_int]) total
    [weight] (default 1 per value). *)

val take : ('k, 'v) t -> 'k -> 'v option
(** A held value for the key, removed from the pool, or [None] when
    none is held.  Counts one hit or one miss. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Return a value to the pool under the bound; counts nothing.  The
    caller must not use the value afterwards. *)

val stats : ('k, 'v) t -> Memo.stats
(** Takes answered from the pool ([hits]), takes that found nothing
    ([misses]) and the weight held now ([held]). *)
