(** Single flight: concurrent calls for one key run the work once.

    The first caller of a key (the leader) computes; callers arriving
    while it runs wait and share its result.  A leader that raises
    re-raises to itself alone, and one waiter takes over the
    computation.  Only in-flight work is tracked: a finished key is
    forgotten, so memoizing the result is the caller's business
    ({!Memo} keeps it in a table, the probe store journals it).

    Keys are compared structurally ([Hashtbl.hash] and [=]), so they
    must hold no closures or cyclic values. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val run : ('k, 'v) t -> key:'k -> (unit -> 'v) -> 'v * bool
(** [run t ~key f] is [f ()] computed once per concurrent burst of
    calls for [key].  The flag is [true] when this call joined another
    caller's flight instead of leading its own. *)

val inflight : ('k, 'v) t -> int
(** Keys being computed right now. *)
