type routine = Rot | Nrm2 | Dot_strided | Axpy_strided

type kernel_id = { routine : routine; prec : Instr.fsize }

let all =
  List.concat_map
    (fun routine -> [ { routine; prec = Instr.S }; { routine; prec = Instr.D } ])
    [ Rot; Nrm2; Dot_strided; Axpy_strided ]

let name { routine; prec } =
  let p = match prec with Instr.S -> "s" | Instr.D -> "d" in
  match routine with
  | Rot -> p ^ "rot"
  | Nrm2 -> p ^ "nrm2"
  | Dot_strided -> p ^ "dot_inc"
  | Axpy_strided -> p ^ "axpy_inc"

let flops_per_n = function Rot -> 4.0 | Nrm2 -> 2.0 | Dot_strided -> 2.0 | Axpy_strided -> 2.0

let prec_name = function Instr.S -> "single" | Instr.D -> "double"

let source ({ routine; prec } as id) =
  let p = prec_name prec in
  let n = name id in
  match routine with
  | Rot ->
    (* x' = c*x + s*y ; y' = c*y - s*x *)
    Printf.sprintf
      {|KERNEL %s(N : int, c : %s, s : %s, X : ptr %s OUTPUT, Y : ptr %s OUTPUT)
VARS
  x, y, tx, ty : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    tx = c * x + s * y;
    ty = c * y - s * x;
    X[0] = tx;
    Y[0] = ty;
    X += 1;
    Y += 1;
  LOOP_END
END
|}
      n p p p p p
  | Nrm2 ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s) RETURNS %s
VARS
  ssq : %s = 0.0;
  x : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    ssq += x * x;
    X += 1;
  LOOP_END
  ssq = SQRT ssq;
  RETURN ssq;
END
|}
      n p p p p
  | Dot_strided ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s, incx : int, Y : ptr %s, incy : int) RETURNS %s
VARS
  dot : %s = 0.0;
  x, y : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += incx;
    Y += incy;
  LOOP_END
  RETURN dot;
END
|}
      n p p p p p
  | Axpy_strided ->
    Printf.sprintf
      {|KERNEL %s(N : int, alpha : %s, X : ptr %s, incx : int, Y : ptr %s OUTPUT, incy : int)
VARS
  x, y : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    y += alpha * x;
    Y[0] = y;
    X += incx;
    Y += incy;
  LOOP_END
END
|}
      n p p p p

let compile id = Ifko_codegen.Lower.of_source (source id)

(* rotation coefficients: a normalized (c, s) pair *)
let rot_c = 0.8
let rot_s = 0.6

let vector ~seed ~which ~prec n =
  let rng = Ifko_util.Rng.create (seed + (which * 7919)) in
  Array.init n (fun _ -> Ref_impl.round_to prec (Ifko_util.Rng.sign_float rng 1.0))

let make_env ({ routine; prec } as id) ~seed ?(incx = 1) ?(incy = 1) n =
  ignore id;
  let phys inc = max 1 (n * inc) in
  let bytes = (phys incx + phys incy) * Instr.fsize_bytes prec in
  let env = Ifko_sim.Env.create ~mem_bytes:(max (1 lsl 20) (bytes + (1 lsl 16))) () in
  Ifko_sim.Env.bind_int env "N" n;
  (match routine with
  | Rot ->
    Ifko_sim.Env.bind_fp env "c" prec rot_c;
    Ifko_sim.Env.bind_fp env "s" prec rot_s
  | Axpy_strided -> Ifko_sim.Env.bind_fp env "alpha" prec Workload.alpha
  | Nrm2 | Dot_strided -> ());
  (match routine with
  | Dot_strided | Axpy_strided ->
    Ifko_sim.Env.bind_int env "incx" incx;
    Ifko_sim.Env.bind_int env "incy" incy
  | Rot | Nrm2 -> ());
  Ifko_sim.Env.alloc_array env "X" prec (phys incx);
  let x = vector ~seed ~which:1 ~prec (phys incx) in
  Ifko_sim.Env.fill env "X" (fun i -> x.(i));
  (match routine with
  | Rot | Dot_strided | Axpy_strided ->
    Ifko_sim.Env.alloc_array env "Y" prec (phys incy);
    let y = vector ~seed ~which:2 ~prec (phys incy) in
    Ifko_sim.Env.fill env "Y" (fun i -> y.(i))
  | Nrm2 -> ());
  env

let expectation ({ routine; prec } as id) ~seed ?(incx = 1) ?(incy = 1) n =
  ignore id;
  let phys inc = max 1 (n * inc) in
  let x = vector ~seed ~which:1 ~prec (phys incx) in
  let r32 = Ref_impl.round_to prec in
  match routine with
  | Rot ->
    let y = vector ~seed ~which:2 ~prec (phys incy) in
    for i = 0 to n - 1 do
      let xi = x.(i) and yi = y.(i) in
      x.(i) <- r32 (r32 (rot_c *. xi) +. r32 (rot_s *. yi));
      y.(i) <- r32 (r32 (rot_c *. yi) -. r32 (rot_s *. xi))
    done;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = None }
  | Nrm2 ->
    let ssq = ref 0.0 in
    for i = 0 to n - 1 do
      ssq := r32 (!ssq +. r32 (x.(i) *. x.(i)))
    done;
    { Ifko_sim.Verify.arrays = [ ("X", x) ];
      ret = Some (Ifko_sim.Exec.Rfp (r32 (Float.sqrt !ssq)))
    }
  | Dot_strided ->
    let y = vector ~seed ~which:2 ~prec (phys incy) in
    let dot = ref 0.0 in
    for i = 0 to n - 1 do
      dot := r32 (!dot +. r32 (x.(i * incx) *. y.(i * incy)))
    done;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ];
      ret = Some (Ifko_sim.Exec.Rfp !dot)
    }
  | Axpy_strided ->
    let y = vector ~seed ~which:2 ~prec (phys incy) in
    for i = 0 to n - 1 do
      y.(i * incy) <- r32 (y.(i * incy) +. r32 (Workload.alpha *. x.(i * incx)))
    done;
    { Ifko_sim.Verify.arrays = [ ("X", x); ("Y", y) ]; ret = None }

let tolerance { routine; prec } ~n =
  let base = match prec with Instr.S -> 2e-6 | Instr.D -> 1e-12 in
  match routine with
  | Nrm2 | Dot_strided -> base *. Float.max 16.0 (sqrt (float_of_int (max 1 n))) *. 16.0
  | Rot | Axpy_strided -> base *. 16.0

let timer_spec id ~seed =
  { Ifko_sim.Timer.make_env = (fun n -> make_env id ~seed n); ret_fsize = id.prec }
