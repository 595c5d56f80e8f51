type category = Dom0 | DomU | Xen | Driver

let categories = [ Dom0; DomU; Xen; Driver ]

let category_name = function
  | Dom0 -> "dom0"
  | DomU -> "domU"
  | Xen -> "Xen"
  | Driver -> "e1000"

let index = function Dom0 -> 0 | DomU -> 1 | Xen -> 2 | Driver -> 3

(* [domains] is a second, finer-grained axis: cycles attributed to the
   named domain that {e caused} the work, including Xen work done on its
   behalf. Plain ints with no metric mirrors, so runs that never read
   them are bit-identical with or without the rows. *)

(* growable append-only sample log (per-direction I/O latencies, in
   simulated cycles); plain arrays, no metric mirrors, deterministic *)
type samples = { mutable buf : int array; mutable len : int }

let samples_create () = { buf = [||]; len = 0 }

let samples_push s v =
  if s.len = Array.length s.buf then begin
    let cap = max 64 (2 * Array.length s.buf) in
    let nb = Array.make cap 0 in
    Array.blit s.buf 0 nb 0 s.len;
    s.buf <- nb
  end;
  s.buf.(s.len) <- v;
  s.len <- s.len + 1

(* [charge_for] runs on every domain charge, and a string [Hashtbl.find]
   there hashes and compares the name each time. Callers pass the same
   name string for a domain on every charge, so the two rows charged
   last are kept by the physical identity of that string: a hit is one
   pointer compare, and a miss falls back to the table and takes the
   older cache entry. A cached ref is always the one in [domains]; the
   table only loses or replaces a row in [retire_domain] and [reset],
   which empty the cache. *)
type t = {
  cells : int array;
  domains : (string, int ref) Hashtbl.t;
  mutable key0 : string;
  mutable row0 : int ref;
  mutable key1 : string;
  mutable row1 : int ref;
  tx_lat : samples;
  rx_lat : samples;
}

(* Never a caller's string, so an empty entry never hits. *)
let no_key = String.make 1 '\000'
let no_row = ref 0

(* mirror counter names, indexed like [cells]; the registry copy lets
   Measure cross-check instrumentation against the authoritative ledger *)
let metric_names =
  [| "ledger.cycles.dom0"; "ledger.cycles.domU"; "ledger.cycles.xen";
     "ledger.cycles.driver" |]

let metric_name c = metric_names.(index c)

let create () =
  (* register the mirrors up front so snapshots always carry all four
     categories, even ones a configuration never charges *)
  if Td_obs.Control.enabled () then
    Array.iter
      (fun name -> ignore (Td_obs.Metrics.counter name))
      metric_names;
  {
    cells = Array.make 4 0;
    domains = Hashtbl.create 8;
    key0 = no_key;
    row0 = no_row;
    key1 = no_key;
    row1 = no_row;
    tx_lat = samples_create ();
    rx_lat = samples_create ();
  }

let lat t = function `Tx -> t.tx_lat | `Rx -> t.rx_lat
let note_latency t dir v = samples_push (lat t dir) v
let latency_count t dir = (lat t dir).len

(* nearest-rank percentile over a sorted copy; None when no samples *)
let latency_percentile t dir p =
  let s = lat t dir in
  if s.len = 0 then None
  else begin
    let a = Array.sub s.buf 0 s.len in
    Array.sort compare a;
    (* the epsilon keeps an inexact p (99.9 -> 0.99900000000000005) from
       ceiling one rank past the mathematical nearest rank *)
    let rank =
      int_of_float (ceil ((p /. 100. *. float_of_int s.len) -. 1e-9)) - 1
    in
    Some (float_of_int a.(max 0 (min (s.len - 1) rank)))
  end

let charge t c n =
  let i = index c in
  t.cells.(i) <- t.cells.(i) + n;
  if Td_obs.Control.enabled () then
    Td_obs.Metrics.bump_by metric_names.(i) n

let forget_rows t =
  t.key0 <- no_key;
  t.row0 <- no_row;
  t.key1 <- no_key;
  t.row1 <- no_row

(* The table miss uses [Hashtbl.find], not [find_opt], so it allocates
   nothing either unless the row is new. *)
let row_slow t domain =
  let r =
    match Hashtbl.find t.domains domain with
    | r -> r
    | exception Not_found ->
        let r = ref 0 in
        Hashtbl.replace t.domains domain r;
        r
  in
  t.key1 <- t.key0;
  t.row1 <- t.row0;
  t.key0 <- domain;
  t.row0 <- r;
  r

let[@inline] row t domain =
  if t.key0 == domain then t.row0
  else if t.key1 == domain then t.row1
  else row_slow t domain

let charge_for t c ~domain n =
  charge t c n;
  let r = row t domain in
  r := !r + n

let domain_total t domain =
  match Hashtbl.find_opt t.domains domain with Some r -> !r | None -> 0

(* Destroyed domains keep their cycles on the books: the row is folded
   into a single "<retired>" aggregate so grand totals (and hence shard
   merges and conservation checks) are unchanged by domain churn. *)
let retired_row = "<retired>"

let retire_domain t ~domain =
  match Hashtbl.find_opt t.domains domain with
  | None -> ()
  | Some r ->
      let v = !r in
      Hashtbl.remove t.domains domain;
      forget_rows t;
      if v <> 0 then begin
        match Hashtbl.find_opt t.domains retired_row with
        | Some acc -> acc := !acc + v
        | None -> Hashtbl.replace t.domains retired_row (ref v)
      end

let domain_snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.domains []
  |> List.sort compare

let total t c = t.cells.(index c)
let grand_total t = Array.fold_left ( + ) 0 t.cells

(* Deterministic shard merge: cell and row sums are order-independent,
   and latency samples are appended in the caller's iteration order —
   callers iterate shards by index, so the merged ledger is identical no
   matter how the host scheduled the shards. Metric mirrors are not
   touched: per-shard charges run with observability disabled, and the
   merge must equal the plain sum of what the shards recorded. *)
let merge_into ~into src =
  Array.iteri (fun i v -> into.cells.(i) <- into.cells.(i) + v) src.cells;
  Hashtbl.iter
    (fun dom r ->
      match Hashtbl.find_opt into.domains dom with
      | Some acc -> acc := !acc + !r
      | None -> Hashtbl.replace into.domains dom (ref !r))
    src.domains;
  List.iter
    (fun dir ->
      let s = lat src dir in
      for i = 0 to s.len - 1 do
        samples_push (lat into dir) s.buf.(i)
      done)
    [ `Tx; `Rx ]

let reset t =
  Array.fill t.cells 0 4 0;
  Hashtbl.reset t.domains;
  forget_rows t;
  t.tx_lat.len <- 0;
  t.rx_lat.len <- 0;
  if Td_obs.Control.enabled () then
    Array.iter Td_obs.Metrics.reset metric_names
let snapshot t = List.map (fun c -> (c, total t c)) categories

let per_packet t ~packets =
  let p = float_of_int (max 1 packets) in
  List.map (fun c -> (c, float_of_int (total t c) /. p)) categories

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c -> Format.fprintf fmt "%-6s %d@," (category_name c) (total t c))
    categories;
  Format.fprintf fmt "total  %d@]" (grand_total t)
