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
  tx_lat : Td_obs.Hist.t;  (** per-direction I/O latencies, in cycles *)
  rx_lat : Td_obs.Hist.t;
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
    tx_lat = Td_obs.Hist.create ();
    rx_lat = Td_obs.Hist.create ();
  }

let lat t = function `Tx -> t.tx_lat | `Rx -> t.rx_lat
let note_latency t dir v = Td_obs.Hist.observe (lat t dir) v
let latency_count t dir = Td_obs.Hist.count (lat t dir)

let latency_percentile t dir p =
  Option.map float_of_int (Td_obs.Hist.percentile (lat t dir) p)

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

(* Deterministic shard merge: cell, row and latency-histogram sums are
   order-independent, so the merged ledger is identical no matter how
   the host scheduled the shards. Metric mirrors are not
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
  Td_obs.Hist.merge_into ~into:into.tx_lat src.tx_lat;
  Td_obs.Hist.merge_into ~into:into.rx_lat src.rx_lat

let reset t =
  Array.fill t.cells 0 4 0;
  Hashtbl.reset t.domains;
  forget_rows t;
  Td_obs.Hist.reset t.tx_lat;
  Td_obs.Hist.reset t.rx_lat;
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
