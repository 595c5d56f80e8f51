(* Bucket i < 128 holds the value i. Above that, bucket s * 64 + m, for
   s >= 1 and m in 64..127, holds [m lsl s, ((m + 1) lsl s) - 1]: 64
   buckets per power of two, each at most 1/64 of its values wide. [cells] keeps a
   (count, largest value seen) pair per bucket, allocated on the first
   observation and grown to the end of the highest power of two seen. *)
type t = {
  mutable cells : int array;
  mutable count : int;
  mutable sum : int;
  mutable lo : int;
  mutable hi : int;
}

let create () = { cells = [||]; count = 0; sum = 0; lo = max_int; hi = 0 }

(* floor (log2 v) + r for v > 0: six halving steps from k = 32 *)
let rec log2 v r k =
  if k = 0 then r
  else if v lsr k <> 0 then log2 (v lsr k) (r + k) (k / 2)
  else log2 v r (k / 2)

let index v =
  if v < 128 then v
  else
    let s = log2 v 0 32 - 6 in
    (s * 64) + (v lsr s)

let upper_edge i =
  if i < 128 then i
  else
    let s = (i / 64) - 1 in
    ((i - (s * 64) + 1) lsl s) - 1

let ensure t i =
  if 2 * i >= Array.length t.cells then begin
    let cells = Array.make (2 * ((i lor 63) + 1)) 0 in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end

let observe t v =
  if v < 0 then invalid_arg "Td_obs.Hist.observe: negative value";
  let i = index v in
  ensure t i;
  t.cells.(2 * i) <- t.cells.(2 * i) + 1;
  if v > t.cells.((2 * i) + 1) then t.cells.((2 * i) + 1) <- v;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then 0 else t.lo
let max t = t.hi
let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let percentile t p =
  if t.count = 0 then None
  else begin
    (* the epsilon keeps an inexact p (99.9 -> 0.99900000000000005) from
       ceiling one rank past the mathematical nearest rank *)
    let rank =
      int_of_float (ceil ((p /. 100. *. float_of_int t.count) -. 1e-9))
      |> Int.min t.count |> Int.max 1
    in
    let rec go i seen =
      let seen = seen + t.cells.(2 * i) in
      if seen >= rank then t.cells.((2 * i) + 1) else go (i + 1) seen
    in
    Some (go 0 0)
  end

let buckets t =
  List.init (Array.length t.cells / 2) (fun i -> (upper_edge i, t.cells.(2 * i)))
  |> List.filter (fun (_, n) -> n > 0)

let merge_into ~into src =
  if src.count > 0 then begin
    ensure into ((Array.length src.cells / 2) - 1);
    Array.iteri
      (fun j v ->
        if j land 1 = 0 then into.cells.(j) <- into.cells.(j) + v
        else if v > into.cells.(j) then into.cells.(j) <- v)
      src.cells;
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    into.lo <- Int.min into.lo src.lo;
    into.hi <- Int.max into.hi src.hi
  end

let reset t =
  Array.fill t.cells 0 (Array.length t.cells) 0;
  t.count <- 0;
  t.sum <- 0;
  t.lo <- max_int;
  t.hi <- 0
