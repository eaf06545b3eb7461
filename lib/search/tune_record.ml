module Store = Ifko_store.Store
module Json = Store.Json

type t = {
  best : string;
  mflops : float;
  fko_mflops : float;
  evaluations : int;
  kernel : string option;
  feat : Json.value option;
}

let feat_json feat = Json.O (List.map (fun (k, v) -> (k, Json.N v)) feat)

let features r =
  match r.feat with
  | Some (Json.O kvs) ->
    Some (List.filter_map (function k, Json.N v -> Some (k, v) | _ -> None) kvs)
  | Some _ | None -> None

(* The field order is the journal's byte format: keep it. *)
let add st ~key ~prov r =
  if Store.find_entry st ~key = None then begin
    let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
    let params =
      Json.render
        ([ ("best", Json.S r.best);
           ("fko", Json.N r.fko_mflops);
           ("evals", Json.N (float_of_int r.evaluations));
         ]
        @ opt "kernel" (fun k -> Json.S k) r.kernel
        @ opt "feat" Fun.id r.feat)
    in
    Store.add st ~key ~params ~prov:(Store.tune_prov prov)
      (Store.Timed { mflops = r.mflops; cycles = 0.0 })
  end

let of_entry ~params mflops =
  match Json.parse params with
  | exception Json.Bad -> None
  | fields -> (
    match (Json.str fields "best", Json.num fields "fko", Json.num fields "evals") with
    | Some best, Some fko, Some evals ->
      Some
        { best; mflops; fko_mflops = fko; evaluations = int_of_float evals;
          kernel = Json.str fields "kernel"; feat = List.assoc_opt "feat" fields }
    | _ -> None)

let find st ~key =
  match Store.find_entry st ~key with
  | Some (Store.Timed { mflops; _ }, params, _) -> of_entry ~params mflops
  | Some _ | None -> None

let fold st ~init ~f =
  let acc = ref init in
  Store.iter_tunes st ~f:(fun ~key:_ ~params ~prov:_ ~mflops ->
      Option.iter (fun r -> acc := f !acc r) (of_entry ~params mflops));
  !acc
