(** The `ifko serve` wire protocol.

    Newline-delimited JSON: the client writes one flat request object
    per line, the daemon answers with one flat response object per line
    (requests on one connection are answered in order), correlated by
    the client-chosen [id].  Five ops:

    - [tune]: full empirical tune of a HIL kernel; answered from the
      service-level result cache when possible ([hit] says which).
    - [lookup]: result-cache query only — never computes.
    - [stat]: shard-aware store + server statistics as a JSON object.
    - [compact]: apply the eviction policy and compact every shard.
    - [shutdown]: stop the daemon gracefully.

    Floats travel as [%.17g] (see {!Ifko_store.Store.Json.number}), so
    a tune result served over the wire is bit-identical to the locally
    computed one — the store's determinism guarantee survives the
    protocol boundary. *)

module Json = Ifko_store.Store.Json

type tune_args = {
  kernel : string;  (** HIL source text *)
  machine : string;  (** "p4e" | "opteron" *)
  context : string;  (** "oc" | "l2" *)
  n : int;  (** problem size, > 0 *)
  seed : int;  (** workload seed (part of every store key) *)
  flops_per_n : float;  (** FLOPs per element for MFLOPS reporting *)
  check : bool;  (** per-pass validation of every probe *)
  strategy : string;  (** "linesearch" (default) | "surrogate" *)
  warm_start : bool;
      (** seed the search from the nearest past tunes in the daemon's
          store (changes the probe path, never correctness) *)
}

val default_args : kernel:string -> tune_args
(** p4e, out-of-cache, n = 80000, seed 0, 2 flops per element, no
    per-pass checking, linesearch strategy, no warm start — the
    wire-format defaults for omitted fields, so pre-strategy clients
    keep working unchanged.  The CLI's [ifko tune] and [ifko query]
    always send a seed, by default 20050614; the wire default stays 0
    for clients that omit it. *)

val decode :
  tune_args ->
  ( Ifko_machine.Config.t * Ifko_sim.Timer.context * Ifko_search.Driver.strategy,
    string )
  result
(** A request's machine, context and strategy, typed: the one decode
    the daemon and [ifko tune] share.  [Error] is the text of the first
    bad field, in that order ({!Ifko_machine.Config.of_name},
    {!Ifko_sim.Timer.context_of_name},
    {!Ifko_search.Driver.strategy_of_string}, then a [flops_per_n] that
    is not positive and finite).  {!parse_request} checks only the wire
    shape, so an unknown name fails here. *)

type request =
  | Tune of tune_args
  | Lookup of tune_args
  | Stat
  | Compact
  | Shutdown

type req = { req_id : string; request : request }

type tune_reply = {
  best : string;  (** canonical parameter point *)
  mflops : float;  (** the tuned point *)
  fko_mflops : float;  (** the default (un-searched) point *)
  evaluations : int;
  hit : bool;  (** answered from the service-level result cache *)
}

type reply =
  | Tuned of string * tune_reply  (** op ("tune"/"lookup") and payload *)
  | Miss  (** lookup found nothing *)
  | Stats of (string * Json.value) list
  | Done of string  (** ack, echoing the op *)
  | Failed of string

type resp = { resp_id : string; reply : reply }

val render_request : req -> string
(** One line, no trailing newline. *)

val render_response : resp -> string

val parse_request : string -> (req, string * string) result
(** [Error (id, msg)] on malformed input — [id] is the request id when
    one could still be extracted (so the error reply stays
    correlatable), [""] otherwise.  Never raises. *)

val parse_response : string -> (resp, string) result
(** Never raises. *)
