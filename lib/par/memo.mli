(** A bounded single-flight memo: a table of finished results in front
    of a {!Flight}.

    Every cache of pure results in ifko is one of these (DESIGN.md §15,
    "Caches"): concurrent misses on one key run the compute once, the
    other callers block until it lands and share it.  A compute that
    raises reaches its own caller only, is never stored, and one waiter
    takes the key over.

    The bound is a weight per entry, worked out from its key, and a
    limit on the weight held.  An insert that would pass the limit
    drops the whole table first (an entry heavier than the limit on its
    own is not stored), so the held weight never exceeds the limit.
    The default is unbounded.

    Keys are compared structurally, as in {!Flight}.  Values are shared
    between callers and domains: treat them as read-only. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** calls answered from the table or by joining a flight *)
  misses : int;  (** calls that ran their compute, raising or not *)
  held : int;  (** weight of the entries held now *)
}

val create : ?limit:int -> ?weight:('k -> int) -> unit -> ('k, 'v) t
(** An empty memo holding at most [limit] (default [max_int]) total
    [weight] (default 1 per entry). *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t k f] is the value held for [k], or [f ()] computed once
    under single flight and stored.  [f] must be a pure function of
    [k].  Counts one hit or one miss. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The value held for [k], if any, counting one hit or one miss: for
    a caller that computes in its own context and stores with {!add}. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Store a value under the bound; counts nothing.  A key already held
    keeps its first value (values are functions of their keys). *)

val stats : ('k, 'v) t -> stats
