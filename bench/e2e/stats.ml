(* Summary statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The nearest rank of percentile [p] among [n] samples (1-based); the
   slack keeps e.g. 99.9% of 10000 at rank 9990, not 9991. *)
let rank ~n p = int_of_float (ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile of an ascending array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n p - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples strictly above the nearest-rank [p] percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(* The tail percentile a run may report: the highest of the usual ones
   that still has at least ten samples beyond it, so a single outlier
   cannot set it.  [None] below 20 samples. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= 10) [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads quoted from this tool
   and from a Python one-liner agree.  Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs med

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [a /. b], reading 0 when nothing was counted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
