open Defs

let prec_name = function Instr.S -> "single" | Instr.D -> "double"

module Str_replace = struct
  (* replace the first occurrence of [pat] in [s] with [rep] *)
  let first s pat rep =
    let np = String.length pat and ns = String.length s in
    let rec find i = if i + np > ns then None
      else if String.sub s i np = pat then Some i else find (i + 1) in
    match find 0 with
    | None -> s
    | Some i -> String.sub s 0 i ^ rep ^ String.sub s (i + np) (ns - i - np)
end

let source ({ routine; prec } as id) =
  let p = prec_name prec in
  let n = name id in
  match routine with
  | Swap ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s OUTPUT, Y : ptr %s OUTPUT)
VARS
  tmp, x : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    tmp = Y[0];
    x = X[0];
    Y[0] = x;
    X[0] = tmp;
    X += 1;
    Y += 1;
  LOOP_END
END
|}
      n p p p
  | Scal ->
    Printf.sprintf
      {|KERNEL %s(N : int, alpha : %s, X : ptr %s OUTPUT)
VARS
  x : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x *= alpha;
    X[0] = x;
    X += 1;
  LOOP_END
END
|}
      n p p p
  | Copy ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s, Y : ptr %s OUTPUT)
VARS
  x : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    Y[0] = x;
    X += 1;
    Y += 1;
  LOOP_END
END
|}
      n p p p
  | Axpy ->
    Printf.sprintf
      {|KERNEL %s(N : int, alpha : %s, X : ptr %s, Y : ptr %s OUTPUT)
VARS
  x, y : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    y += alpha * x;
    Y[0] = y;
    X += 1;
    Y += 1;
  LOOP_END
END
|}
      n p p p p
  | Dot ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s, Y : ptr %s) RETURNS %s
VARS
  dot : %s = 0.0;
  x, y : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    y = Y[0];
    dot += x * y;
    X += 1;
    Y += 1;
  LOOP_END
  RETURN dot;
END
|}
      n p p p p p
  | Asum ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s) RETURNS %s
VARS
  sum : %s = 0.0;
  x : %s;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x = ABS x;
    sum += x;
    X += 1;
  LOOP_END
  RETURN sum;
END
|}
      n p p p p
  | Iamax ->
    Printf.sprintf
      {|KERNEL %s(N : int, X : ptr %s) RETURNS int
VARS
  amax, x : %s = -1.0;
  imax : int = 0;
BEGIN
  OPTLOOP i = N, 0, -1
  LOOP_BODY
    x = X[0];
    x = ABS x;
    IF (x > amax) GOTO NEWMAX;
    ENDOFLOOP:
    X += 1;
  LOOP_END
  RETURN imax;
  NEWMAX:
  amax = x;
  imax = N - i;
  GOTO ENDOFLOOP;
END
|}
      n p p

(* The "more straightforward implementation" of iamax (paper §3.2.1):
   a scoped conditional in the loop, as the ANSI C reference has it.
   The paper used this variant for icc and gcc because the Figure 6(b)
   branch-out-of-line formulation depressed icc's performance. *)
let straightforward_iamax ({ routine; prec } as id) =
  assert (routine = Iamax);
  let p = prec_name prec in
  Printf.sprintf
    {|KERNEL %s(N : int, X : ptr %s) RETURNS int
VARS
  amax, x : %s = -1.0;
  imax : int = 0;
BEGIN
  OPTLOOP i = 0, N
  LOOP_BODY
    x = X[0];
    x = ABS x;
    IF (x > amax) THEN
      amax = x;
      imax = i;
    ENDIF
    X += 1;
  LOOP_END
  RETURN imax;
END
|}
    (name id) p p

(* The straightforward formulation with the SPECULATE mark-up: the
   user-assisted path that lets FKO vectorize iamax after all. *)
let speculative_iamax id =
  let src = straightforward_iamax id in
  (* the mark-up goes on the OPTLOOP header *)
  Str_replace.first src "OPTLOOP i = 0, N" "OPTLOOP i = 0, N SPECULATE"

let compile id = Ifko_codegen.Lower.of_source (source id)
let compile_straightforward id = Ifko_codegen.Lower.of_source (straightforward_iamax id)
let compile_speculative id = Ifko_codegen.Lower.of_source (speculative_iamax id)
