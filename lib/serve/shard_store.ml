(* Alias kept only for the frozen bench/e2e sources; use Ifko_store.Store. *)
include Ifko_store.Store
