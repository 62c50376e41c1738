(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [p]-quantile among [n] samples; the
   epsilon keeps a product like 0.9 * n that rounds just above an
   integer from skipping a rank *)
let rank ~n p =
  Int.max 1 (Int.min n (int_of_float (Float.ceil ((p *. Float.of_int n) -. 1e-9))))

(* nearest-rank percentile, [p] in (0, 1]; nan on no samples *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* samples ranked above the [p]-quantile *)
let beyond ~n p = n - rank ~n p

(* A tail percentile is reported only when at least ten samples lie
   beyond it; with fewer, the figure is one or two unlucky samples. *)
let min_beyond = 10

let tail xs p =
  let n = List.length xs in
  if n > 0 && beyond ~n p >= min_beyond then Some (percentile xs p) else None

let sum = List.fold_left ( +. ) 0.
