(* The exact answers a histogram approximates: the nearest-rank
   percentile over a sorted copy of every sample (rank
   ceil (p / 100 * n - 1e-9), clamped to [1, n], the rule [Td_obs.Hist]
   applies to its buckets), and the log-linear bucket that holds a value
   (one value each below 128; above that, 64 equal buckets per power of
   two). The histogram property checks [Hist] against both. *)

let percentile samples p =
  match List.sort compare samples with
  | [] -> None
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
      Some a.(max 1 (min n rank) - 1)

(* inclusive [lo, hi] of the bucket holding [v] *)
let bucket v =
  if v < 128 then (v, v)
  else begin
    let e = ref 7 in
    while v lsr (!e + 1) <> 0 do
      incr e
    done;
    let width = 1 lsl (!e - 6) in
    let lo = v / width * width in
    (lo, lo + width - 1)
  end
