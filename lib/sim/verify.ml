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

let run_and_compare ~tol ~ret_fsize cf env expectation =
  match Exec.exec ~ret_fsize cf env with
  | exception Exec.Trap msg -> Error (Printf.sprintf "trap: %s" msg)
  | result -> (
    let mismatch = ref None in
    let note msg = if !mismatch = None then mismatch := Some msg in
    List.iter
      (fun (name, expected) ->
        let got = Env.to_array env name in
        if Array.length got <> Array.length expected then
          note (Printf.sprintf "array %s: length %d, expected %d" name (Array.length got)
                  (Array.length expected))
        else
          Array.iteri
            (fun i e ->
              if !mismatch = None && not (close ~tol e got.(i)) then
                note (Printf.sprintf "array %s[%d]: got %.17g, expected %.17g" name i got.(i) e))
            expected)
      expectation.arrays;
    (match (expectation.ret, result.Exec.ret) with
    | None, _ -> ()
    | Some (Exec.Rint e), Some (Exec.Rint g) ->
      if e <> g then note (Printf.sprintf "return: got %d, expected %d" g e)
    | Some (Exec.Rfp e), Some (Exec.Rfp g) ->
      if not (close ~tol e g) then note (Printf.sprintf "return: got %.17g, expected %.17g" g e)
    | Some _, Some _ -> note "return: kind mismatch"
    | Some _, None -> note "return: kernel returned nothing");
    match !mismatch with None -> Ok () | Some msg -> Error msg)

(* The environment is spent once its outputs are read, so it goes back
   to the buffer pool on every path, traps and mismatches included. *)
let check_compiled ?(tol = 1e-5) ~ret_fsize cf env expectation =
  Fun.protect
    ~finally:(fun () -> Env.release env)
    (fun () -> run_and_compare ~tol ~ret_fsize cf env expectation)

let check ?(tol = 1e-5) ~ret_fsize func env expectation =
  Fun.protect
    ~finally:(fun () -> Env.release env)
    (fun () -> run_and_compare ~tol ~ret_fsize (Exec.compile func) env expectation)
