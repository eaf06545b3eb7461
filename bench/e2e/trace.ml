(* Spans recorded by the benchmark around its own calls into the
   repository's layers.  Nothing inside lib/ or bin/ is instrumented:
   a span is opened by bench code immediately before a public call and
   closed immediately after it.

   Each domain appends to its own buffer (domain-local storage), so the
   hot path takes no lock; the buffers are merged when the run ends.
   With tracing off, [span] is one flag test and a direct call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0: no parent *)
  op : int;  (** the benchmark operation the span belongs to *)
  dom : int;  (** recording domain *)
  t0 : float;
  t1 : float;
}

let on = ref false
let ids = Atomic.make 0
let buffers : span list ref list ref = ref []
let buffers_mu = Mutex.create ()

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.lock buffers_mu;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mu;
      b)

(* The innermost open span of this domain, as (op, span id): nested
   spans inherit it as their parent.  Work handed to another domain
   (the probe pool) names its parent explicitly with [~under]. *)
let current = Domain.DLS.new_key (fun () -> (0, 0))

let now = Unix.gettimeofday

let span ?under name f =
  if not !on then f ()
  else begin
    let op, parent = match under with Some u -> u | None -> Domain.DLS.get current in
    let id = Atomic.fetch_and_add ids 1 + 1 in
    let saved = Domain.DLS.get current in
    Domain.DLS.set current (op, id);
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        Domain.DLS.set current saved;
        let b = Domain.DLS.get buffer in
        b := { id; name; parent; op; dom = (Domain.self () :> int); t0; t1 } :: !b)
      f
  end

(* Add a span the caller timed itself (for work timed on threads that
   share a domain, whose spans cannot nest through [current]). *)
let record ~op name t0 t1 =
  if !on then begin
    let id = Atomic.fetch_and_add ids 1 + 1 in
    let b = Domain.DLS.get buffer in
    b := { id; name; parent = 0; op; dom = (Domain.self () :> int); t0; t1 } :: !b
  end

(* Open a span that is the root of operation [op]. *)
let op_span op name f = span ~under:(op, 0) name f

(* The (op, span) pair of the innermost open span, for handing to work
   that runs on another domain. *)
let here () = Domain.DLS.get current

let reset () =
  Mutex.lock buffers_mu;
  List.iter (fun b -> b := []) !buffers;
  Mutex.unlock buffers_mu

let collect () =
  Mutex.lock buffers_mu;
  let all = List.concat_map (fun b -> !b) !buffers in
  Mutex.unlock buffers_mu;
  List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all

(* Length of the part of [t0, t1] covered by the union of [intervals]. *)
let covered ~t0 ~t1 intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   children cover.  Children recorded on other domains may overlap each
   other; their union is what is subtracted, never their sum. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. covered ~t0:s.t0 ~t1:s.t1 (Hashtbl.find_all children s.id)))
    spans

let to_json ~origin s =
  let module J = Ifko_store.Store.Json in
  J.render
    [ ("id", J.N (float_of_int s.id));
      ("name", J.S s.name);
      ("parent", J.N (float_of_int s.parent));
      ("op", J.N (float_of_int s.op));
      ("dom", J.N (float_of_int s.dom));
      ("start_us", J.N (Float.round ((s.t0 -. origin) *. 1e6)));
      ("end_us", J.N (Float.round ((s.t1 -. origin) *. 1e6)));
    ]

let write_jsonl path spans =
  let origin = match spans with [] -> 0.0 | s :: _ -> s.t0 in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json ~origin s ^ "\n")) spans;
  close_out oc
