(** Single flight: concurrent calls for one key run the work once.

    The first caller of a key (the leader) computes; callers arriving
    while it runs wait and share its result.  A leader that raises
    re-raises to itself alone, and one waiter takes over the
    computation.  Only in-flight work is tracked: a finished key is
    forgotten, so memoizing the result is the caller's business (the
    probe store journals it, the codecache keeps it in a table). *)

type 'a t

val create : unit -> 'a t

val run : 'a t -> key:string -> (unit -> 'a) -> 'a * bool
(** [run t ~key f] is [f ()] computed once per concurrent burst of
    calls for [key].  The flag is [true] when this call joined another
    caller's flight instead of leading its own. *)

val inflight : 'a t -> int
(** Keys being computed right now. *)
