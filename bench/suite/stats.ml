(* Order statistics over float samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile ([p] in 0..100); nan on an empty sample. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so spreads printed here match the
   ones a reader computes from the same values. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = i * m / 4 and delta = i * m mod 4 in
      let lo = s.(max 0 (min (n - 1) (j - 1))) and hi = s.(min (n - 1) j) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
