(* Seeded Zipf draws over ranks [0, n): rank [k] has weight
   [1 / (k + 1)^s].  The same seed gives the same stream. *)

type t = { cdf : float array; rng : Prng.t }

let create ~seed ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  let w = Array.init n (fun k -> 1. /. (Float.of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.;
  { cdf; rng = Prng.create seed }

(* smallest rank whose cumulative weight exceeds a uniform draw *)
let next t =
  let u = Prng.float t.rng in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let take t count = List.init count (fun _ -> next t)
