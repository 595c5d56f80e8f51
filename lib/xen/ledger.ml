type category = Dom0 | DomU | Xen | Driver

let categories = [ Dom0; DomU; Xen; Driver ]

let category_name = function
  | Dom0 -> "dom0"
  | DomU -> "domU"
  | Xen -> "Xen"
  | Driver -> "e1000"

let index = function Dom0 -> 0 | DomU -> 1 | Xen -> 2 | Driver -> 3

(* The rows are a second, finer-grained axis: cycles attributed to the
   domain that {e caused} the work, including Xen work done on its
   behalf, in arrays indexed by the domain's id. A charge is one bounds
   check and one add; the arrays double when a larger id first charges.
   Plain ints with no metric mirrors, so runs that never read them are
   bit-identical with or without the rows. *)
type t = {
  cells : int array;
  mutable rows : int array;  (** cycles by domain id *)
  mutable names : string option array;
      (** the name recorded at the id's first charge since its last
          retire; [None]: no row *)
  mutable retired : int;  (** the "<retired>" aggregate; a row iff non-zero *)
  tx_lat : Td_obs.Hist.t;  (** per-direction I/O latencies, in cycles *)
  rx_lat : Td_obs.Hist.t;
}

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
    rows = [||];
    names = [||];
    retired = 0;
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

(* the slow path of a domain's first charge (since create, reset or its
   retire) *)
let open_row t id name =
  t.rows <- Domain.cover t.rows ~id 0;
  t.names <- Domain.cover t.names ~id None;
  t.rows.(id) <- 0;
  t.names.(id) <- Some name

let[@inline] has_row t id = id < Array.length t.names && t.names.(id) <> None

let charge_for t c ~domain n =
  charge t c n;
  let id = Domain.id domain in
  if not (has_row t id) then open_row t id (Domain.name domain);
  t.rows.(id) <- t.rows.(id) + n

let domain_total t domain =
  let id = Domain.id domain in
  if has_row t id then t.rows.(id) else 0

(* Destroyed domains keep their cycles on the books: the row is folded
   into a single "<retired>" aggregate so grand totals (and hence shard
   merges and conservation checks) are unchanged by domain churn. *)
let retired_row = "<retired>"

let retire_domain t ~domain =
  let id = Domain.id domain in
  if has_row t id then begin
    t.retired <- t.retired + t.rows.(id);
    t.names.(id) <- None
  end

let domain_snapshot t =
  let acc = ref (if t.retired <> 0 then [ (retired_row, t.retired) ] else []) in
  Array.iteri
    (fun id -> Option.iter (fun name -> acc := (name, t.rows.(id)) :: !acc))
    t.names;
  List.sort compare !acc

let total t c = t.cells.(index c)
let grand_total t = Array.fold_left ( + ) 0 t.cells

(* Deterministic shard merge, row by id: cell, row and latency-histogram
   sums are order-independent, so the merged ledger is identical no
   matter how the host scheduled the shards. Metric mirrors are not
   touched: per-shard charges run with observability disabled, and the
   merge must equal the plain sum of what the shards recorded. *)
let merge_into ~into src =
  Array.iteri (fun i v -> into.cells.(i) <- into.cells.(i) + v) src.cells;
  Array.iteri
    (fun id ->
      Option.iter (fun name ->
          if not (has_row into id) then open_row into id name;
          into.rows.(id) <- into.rows.(id) + src.rows.(id)))
    src.names;
  into.retired <- into.retired + src.retired;
  Td_obs.Hist.merge_into ~into:into.tx_lat src.tx_lat;
  Td_obs.Hist.merge_into ~into:into.rx_lat src.rx_lat

let reset t =
  Array.fill t.cells 0 4 0;
  t.rows <- [||];
  t.names <- [||];
  t.retired <- 0;
  Td_obs.Hist.reset t.tx_lat;
  Td_obs.Hist.reset t.rx_lat;
  if Td_obs.Control.enabled () then
    Array.iter Td_obs.Metrics.reset metric_names

let snapshot t = List.map (fun c -> (c, total t c)) categories

let per_packet t ~packets =
  let p = float_of_int (Int.max 1 packets) in
  List.map (fun c -> (c, float_of_int (total t c) /. p)) categories

let digest t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter (fun c -> add "%s=%d;" (category_name c) (total t c)) categories;
  List.iter (fun (d, v) -> add "%s=%d;" d v) (domain_snapshot t);
  List.iter
    (fun (tag, dir) ->
      add "%s:%d" tag (latency_count t dir);
      List.iter
        (fun p ->
          match latency_percentile t dir p with
          | None -> add "/-"
          | Some v -> add "/%.0f" v)
        [ 50.; 90.; 99.; 99.9 ];
      add ";")
    [ ("tx", `Tx); ("rx", `Rx) ];
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c -> Format.fprintf fmt "%-6s %d@," (category_name c) (total t c))
    categories;
  Format.fprintf fmt "total  %d@]" (grand_total t)
