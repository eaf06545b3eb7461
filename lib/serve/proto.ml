(* The serve wire protocol: newline-delimited JSON, one request object
   per line in, one response object per line out, correlated by a
   client-chosen request id.  Numbers render through Store.Json
   (%.17g), so MFLOPS survive the wire bit-identically — the
   service-level determinism contract depends on it. *)

module Json = Ifko_store.Store.Json

type tune_args = {
  kernel : string;  (** HIL source text *)
  machine : string;  (** "p4e" | "opteron" *)
  context : string;  (** "oc" | "l2" *)
  n : int;
  seed : int;
  flops_per_n : float;
  check : bool;  (** per-pass validation of every probe *)
  strategy : string;  (** "linesearch" (default) | "surrogate" *)
  warm_start : bool;  (** seed the search from past tunes in the store *)
}

let default_args ~kernel =
  { kernel; machine = "p4e"; context = "oc"; n = 80000; seed = 0; flops_per_n = 2.0;
    check = false; strategy = "linesearch"; warm_start = false }

type request =
  | Tune of tune_args
  | Lookup of tune_args
  | Stat
  | Compact
  | Shutdown

type req = { req_id : string; request : request }

type tune_reply = {
  best : string;  (** canonical parameter point ({!Ifko_transform.Params.canonical}) *)
  mflops : float;
  fko_mflops : float;
  evaluations : int;
  hit : bool;  (** answered from the service-level result cache *)
}

type reply =
  | Tuned of string * tune_reply  (** op ("tune"/"lookup") * payload *)
  | Miss  (** lookup found nothing (lookups never compute) *)
  | Stats of (string * Json.value) list
  | Done of string  (** ack, echoing the op ("compact"/"shutdown") *)
  | Failed of string

type resp = { resp_id : string; reply : reply }

(* ---------------- rendering ---------------- *)

let args_fields (a : tune_args) =
  [ ("kernel", Json.S a.kernel);
    ("machine", Json.S a.machine);
    ("context", Json.S a.context);
    ("n", Json.N (float_of_int a.n));
    ("seed", Json.N (float_of_int a.seed));
    ("flops_per_n", Json.N a.flops_per_n);
    ("check", Json.B a.check);
    ("strategy", Json.S a.strategy);
    ("warm_start", Json.B a.warm_start);
  ]

let render_request { req_id; request } =
  let fields =
    match request with
    | Tune a -> ("op", Json.S "tune") :: args_fields a
    | Lookup a -> ("op", Json.S "lookup") :: args_fields a
    | Stat -> [ ("op", Json.S "stat") ]
    | Compact -> [ ("op", Json.S "compact") ]
    | Shutdown -> [ ("op", Json.S "shutdown") ]
  in
  Json.render (("id", Json.S req_id) :: fields)

let tune_reply_fields (r : tune_reply) =
  [ ("hit", Json.B r.hit);
    ("best", Json.S r.best);
    ("mflops", Json.N r.mflops);
    ("fko_mflops", Json.N r.fko_mflops);
    ("evaluations", Json.N (float_of_int r.evaluations));
  ]

let render_response { resp_id; reply } =
  let id = ("id", Json.S resp_id) in
  match reply with
  | Tuned (op, r) ->
    Json.render ((id :: [ ("ok", Json.B true); ("op", Json.S op) ]) @ tune_reply_fields r)
  | Miss ->
    Json.render [ id; ("ok", Json.B true); ("op", Json.S "lookup"); ("hit", Json.B false) ]
  | Stats fields ->
    Json.render [ id; ("ok", Json.B true); ("op", Json.S "stat"); ("stat", Json.O fields) ]
  | Done op -> Json.render [ id; ("ok", Json.B true); ("op", Json.S op) ]
  | Failed msg -> Json.render [ id; ("ok", Json.B false); ("error", Json.S msg) ]

(* ---------------- parsing ---------------- *)

(* Malformed input yields [Error msg], never an exception: the daemon
   turns it into an error reply, the client into a [Failed]-style
   result — a garbage line must not take either side down. *)

let parse_line line =
  match Json.parse line with
  | exception Json.Bad -> Error "malformed JSON (expected one object per line)"
  | fields -> Ok fields

(* [int_of_float] is unspecified outside OCaml's int range, where it
   would wrap silently: refuse anything outside [-2^62, 2^62). *)
let int_limit = Float.ldexp 1.0 62

let int_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.N f) when Float.is_integer f && f >= -.int_limit && f < int_limit ->
    Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let num_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.N f) -> Ok f
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let bool_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.B b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let str_field fields name ~default =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.S s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let ( let* ) = Result.bind

let parse_args fields =
  let* kernel =
    match Json.str fields "kernel" with
    | Some s when String.trim s <> "" -> Ok s
    | Some _ -> Error "field \"kernel\" must not be empty"
    | None -> Error "tune/lookup requires a \"kernel\" field (HIL source text)"
  in
  let d = default_args ~kernel in
  let* machine = str_field fields "machine" ~default:d.machine in
  let* context = str_field fields "context" ~default:d.context in
  let* n = int_field fields "n" ~default:d.n in
  let* () = if n > 0 then Ok () else Error "field \"n\" must be positive" in
  let* seed = int_field fields "seed" ~default:d.seed in
  let* flops_per_n = num_field fields "flops_per_n" ~default:d.flops_per_n in
  let* check = bool_field fields "check" ~default:d.check in
  (* Absent fields take defaults, so clients speaking the pre-strategy
     protocol keep working unchanged. *)
  let* strategy = str_field fields "strategy" ~default:d.strategy in
  let* warm_start = bool_field fields "warm_start" ~default:d.warm_start in
  Ok { kernel; machine; context; n; seed; flops_per_n; check; strategy; warm_start }

let parse_request line =
  match parse_line line with
  | Error msg -> Error ("", msg)
  | Ok fields ->
  let req_id = Option.value ~default:"" (Json.str fields "id") in
  let wrap r = Result.map (fun request -> { req_id; request }) r in
  (* carry the id even through malformed-field errors, so the error
     reply can still be correlated *)
  Result.map_error
    (fun msg -> (req_id, msg))
    (match Json.str fields "op" with
    | None -> Error "missing \"op\" field"
    | Some "tune" -> wrap (Result.map (fun a -> Tune a) (parse_args fields))
    | Some "lookup" -> wrap (Result.map (fun a -> Lookup a) (parse_args fields))
    | Some "stat" -> wrap (Ok Stat)
    | Some "compact" -> wrap (Ok Compact)
    | Some "shutdown" -> wrap (Ok Shutdown)
    | Some op ->
      Error (Printf.sprintf "unknown op %S (tune|lookup|stat|compact|shutdown)" op))

let decode (a : tune_args) =
  let* cfg = Ifko_machine.Config.of_name a.machine in
  let* context = Ifko_sim.Timer.context_of_name a.context in
  let* strategy = Ifko_search.Driver.strategy_of_string a.strategy in
  (* MFLOPS scale with flops_per_n: at zero or below, or not finite,
     the search would maximise a meaningless (or negated) score *)
  let* () =
    if Float.is_finite a.flops_per_n && a.flops_per_n > 0.0 then Ok ()
    else Error "field \"flops_per_n\" must be positive and finite"
  in
  Ok (cfg, context, strategy)

let parse_tune_reply fields ~hit =
  let* best =
    match Json.str fields "best" with
    | Some s -> Ok s
    | None -> Error "missing \"best\" field"
  in
  let* mflops =
    match Json.num fields "mflops" with
    | Some f -> Ok f
    | None -> Error "missing \"mflops\" field"
  in
  let* fko_mflops = num_field fields "fko_mflops" ~default:0.0 in
  let* evaluations = int_field fields "evaluations" ~default:0 in
  Ok { best; mflops; fko_mflops; evaluations; hit }

let parse_response line =
  let* fields = parse_line line in
  let resp_id = Option.value ~default:"" (Json.str fields "id") in
  let* reply =
    match Json.bool fields "ok" with
    | None -> Error "missing \"ok\" field"
    | Some false ->
      Ok (Failed (Option.value ~default:"unknown error" (Json.str fields "error")))
    | Some true -> (
      match Json.str fields "op" with
      | None -> Error "missing \"op\" field"
      | Some ("tune" as op) ->
        let* hit = bool_field fields "hit" ~default:false in
        Result.map (fun r -> Tuned (op, r)) (parse_tune_reply fields ~hit)
      | Some ("lookup" as op) -> (
        let* hit = bool_field fields "hit" ~default:false in
        if not hit then Ok Miss
        else Result.map (fun r -> Tuned (op, r)) (parse_tune_reply fields ~hit:true))
      | Some "stat" -> (
        match List.assoc_opt "stat" fields with
        | Some (Json.O o) -> Ok (Stats o)
        | _ -> Error "missing or non-object \"stat\" field")
      | Some op -> Ok (Done op))
  in
  Ok { resp_id; reply }
