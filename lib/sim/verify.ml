type expectation = {
  arrays : (string * float array) list;
  ret : Exec.ret_val option;
}

let close ?(tol = 1e-5) a b =
  let diff = Float.abs (a -. b) in
  diff <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* Map an IEEE double onto a monotone signed integer line, so that the
   distance between two finite floats counts the representable values
   between them. *)
let ord64 x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

let ord32 x =
  let b = Int64.of_int32 (Int32.bits_of_float x) in
  if Int64.compare b 0L < 0 then Int64.sub (Int64.of_int32 Int32.min_int) b else b

let ulp_diff ?(fsize = Instr.D) a b =
  if Float.is_nan a || Float.is_nan b then
    if Float.is_nan a && Float.is_nan b then 0L else Int64.max_int
  else
    let ord = match fsize with Instr.D -> ord64 | Instr.S -> ord32 in
    let d = Int64.sub (ord a) (ord b) in
    if Int64.compare d 0L < 0 then Int64.neg d else d

let close_ulp ?fsize ?(ulps = 4L) a b = Int64.compare (ulp_diff ?fsize a b) ulps <= 0

let exact_fp a b = Float.equal a b || (Float.is_nan a && Float.is_nan b)

let close_reduction ?fsize ?(ulps = 4096L) ?(abs_floor = 1e-6) a b =
  exact_fp a b || close_ulp ?fsize ~ulps a b || Float.abs (a -. b) <= abs_floor

(* The environment is spent once its outputs are read, so it goes back
   to the buffer pool on every path, traps included. *)
let outputs ~ret_fsize ~arrays cf env =
  Fun.protect
    ~finally:(fun () -> Env.release env)
    (fun () ->
      match Exec.exec ~ret_fsize cf env with
      | exception Exec.Trap msg -> Error (Printf.sprintf "trap: %s" msg)
      | r ->
        Ok { ret = r.Exec.ret; arrays = List.map (fun a -> (a, Env.to_array env a)) arrays })

let mismatch ~close ~expected got =
  let ret =
    match (expected.ret, got.ret) with
    | None, None -> None
    | Some (Exec.Rint e), Some (Exec.Rint g) ->
      if e = g then None else Some (Printf.sprintf "return: got %d, expected %d" g e)
    | Some (Exec.Rfp e), Some (Exec.Rfp g) ->
      if close None e g then None
      else Some (Printf.sprintf "return: got %.17g, expected %.17g" g e)
    | Some _, Some _ -> Some "return: kind mismatch"
    | Some _, None -> Some "return: kernel returned nothing"
    | None, Some _ -> Some "return: kernel returned a value, none expected"
  in
  let array (name, e) =
    match List.assoc_opt name got.arrays with
    | None -> Some (Printf.sprintf "array %s: missing" name)
    | Some g when Array.length g <> Array.length e ->
      Some (Printf.sprintf "array %s: length %d, expected %d" name (Array.length g)
              (Array.length e))
    | Some g ->
      let ok = close (Some name) in
      let rec go i =
        if i = Array.length e then None
        else if ok e.(i) g.(i) then go (i + 1)
        else Some (Printf.sprintf "array %s[%d]: got %.17g, expected %.17g" name i g.(i) e.(i))
      in
      go 0
  in
  match ret with Some _ -> ret | None -> List.find_map array expected.arrays

let check_compiled ?(tol = 1e-5) ~ret_fsize cf env expected =
  match outputs ~ret_fsize ~arrays:(List.map fst expected.arrays) cf env with
  | Error msg -> Error msg
  | Ok got -> (
    match mismatch ~close:(fun _ -> close ~tol) ~expected got with
    | None -> Ok ()
    | Some msg -> Error msg)

let check ?tol ~ret_fsize func env expected =
  check_compiled ?tol ~ret_fsize (Exec.compile func) env expected
