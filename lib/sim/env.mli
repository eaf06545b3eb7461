(** Memory images and argument bindings for simulated kernel runs.

    An environment owns a flat byte-addressed memory holding the
    kernel's vectors and its stack/spill area, plus the values bound to
    each kernel parameter.  Arrays are 16-byte aligned (the vector ISA
    requires it) and staggered across pages so distinct operands do not
    collide pathologically in the low-associativity L1. *)

type array_info = { addr : int; len : int; fsize : Instr.fsize }

type binding =
  | Int_arg of int
  | Fp_arg of Instr.fsize * float
  | Array_arg of array_info

type t

val create : ?mem_bytes:int -> unit -> t
(** Fresh environment; default memory size fits the paper's N=80000
    double-precision workloads with room to spare.  The backing buffer
    may come from a pool of recycled buffers ({!release}); either way
    it is all-zero, so pooling is unobservable. *)

val release : t -> unit
(** Scrub the environment's backing buffer to zero and return it to
    the buffer pool for a later {!create} / {!materialize} of the same
    [mem_bytes].  The environment must not be used afterwards.  The
    whole buffer is scrubbed — not just the allocated prefix — so a
    recycled buffer is byte-identical to a fresh one even past the
    allocation cursor.

    Whoever consumes an environment's outputs releases it: the timers,
    {!Verify.check} and the testers built on it.
    @raise Invalid_argument when [t] was already released — one buffer
    in the pool twice would let two live environments share memory. *)

val buffers : (int, Bytes.t) Ifko_par.Freelist.t
(** The pool {!create} takes buffers from and {!release} returns them
    to, keyed and weighed by byte length: it holds at most
    {!max_pooled_bytes} bytes across all sizes. *)

val max_pooled_bytes : int

type master
(** An immutable pristine image of an environment: its written prefix,
    bindings and allocation state.  Capture once per (spec, n), then
    {!materialize} per measurement instead of re-running the spec's
    fills. *)

val capture : t -> master
(** Must be called while the environment is pristine (no kernel has
    run in it yet), so that every written byte lies below the
    allocation cursor. *)

val master_bindings : master -> (string * binding) list
(** The captured environment's bindings, read without materializing
    it. *)

val materialize : master -> t
(** A new environment observably identical to the one [capture] saw:
    pooled zeroed buffer of the same size, image blitted back,
    bindings and cursor restored.  Release it with {!release} when the
    measurement is done. *)

val mem : t -> Bytes.t
val stack_base : t -> int

val bind_int : t -> string -> int -> unit
val bind_fp : t -> string -> Instr.fsize -> float -> unit

val alloc_array : t -> string -> Instr.fsize -> int -> unit
(** [alloc_array t name fsize len] reserves and binds an array.
    @raise Invalid_argument when memory is exhausted. *)

val binding : t -> string -> binding
(** @raise Not_found for unbound names. *)

val bindings : t -> (string * binding) list

val set_elem : t -> string -> int -> float -> unit
(** Write element [i] of a bound array (rounding to single precision
    for single-precision arrays). *)

val get_elem : t -> string -> int -> float
(** Read element [i] of a bound array.
    @raise Invalid_argument when [t] has been released. *)

val fill : t -> string -> (int -> float) -> unit
(** Initialize a whole array from an index function. *)

val to_array : t -> string -> float array
(** Snapshot a bound array's current contents.
    @raise Invalid_argument when [t] has been released. *)

val iter_array_lines : t -> line:int -> (int -> unit) -> unit
(** Apply a function to the base address of every [line]-byte line of
    every bound array — the timers' cache-warming hook. *)

val set_counts : t -> int -> unit
(** Rebind every integer argument to [n].  Every timer spec binds its
    integer arguments to the element count (BLAS binds ["N"]; generic
    kernels bind each int parameter to the problem size), so this
    retargets the kernel to run over the first [n] elements of the
    bound arrays.  The sampled timer uses it to run the warm-up and
    detailed-window phases against one environment. *)

val advance : t -> elems:int -> unit
(** Slide every bound array forward by [elems] elements (the binding's
    address advances, its length shrinks; scalars are untouched), so a
    subsequent run continues the exact address streams a previous
    phase was consuming — trained prefetch streams stay seamless.
    @raise Invalid_argument when any array has at most [elems]
    elements. *)
