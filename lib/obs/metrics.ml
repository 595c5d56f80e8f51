type counter = { mutable n : int }
type gauge = { mutable v : float }

type histogram = Hist.t

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type entry = { name : string; help : string; metric : metric }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 128

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch name entry wanted =
  invalid_arg
    (Printf.sprintf "Td_obs.Metrics: %s is a %s, not a %s" name
       (kind_name entry.metric) wanted)

let counter ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Counter c; _ } -> c
  | Some e -> mismatch name e "counter"
  | None ->
      let c = { n = 0 } in
      Hashtbl.replace registry name { name; help; metric = Counter c };
      c

let gauge ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Gauge g; _ } -> g
  | Some e -> mismatch name e "gauge"
  | None ->
      let g = { v = 0.0 } in
      Hashtbl.replace registry name { name; help; metric = Gauge g };
      g

let histogram ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Histogram h; _ } -> h
  | Some e -> mismatch name e "histogram"
  | None ->
      let h = Hist.create () in
      Hashtbl.replace registry name { name; help; metric = Histogram h };
      h

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let value c = c.n
let set g v = g.v <- v
let gauge_value g = g.v

(* an empty histogram reports 0 *)
let pct h p = Option.value ~default:0 (Hist.percentile h p)

(* ---- registry-wide operations ---- *)

let bump name = if Control.enabled () then incr (counter name)
let bump_by name k = if Control.enabled () then add (counter name) k

let counter_value name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Counter c; _ } -> c.n
  | Some e -> mismatch name e "counter"
  | None -> 0

let exists name = Hashtbl.mem registry name

let reset_metric = function
  | Counter c -> c.n <- 0
  | Gauge g -> g.v <- 0.0
  | Histogram h -> Hist.reset h

let reset name =
  match Hashtbl.find_opt registry name with
  | Some e -> reset_metric e.metric
  | None -> ()

let reset_all () = Hashtbl.iter (fun _ e -> reset_metric e.metric) registry
let clear () = Hashtbl.reset registry

let entries () =
  Hashtbl.fold (fun _ e acc -> e :: acc) registry []
  |> List.sort (fun a b -> compare a.name b.name)

let names () = List.map (fun e -> e.name) (entries ())

let snapshot () =
  List.concat_map
    (fun e ->
      match e.metric with
      | Counter c -> [ (e.name, float_of_int c.n) ]
      | Gauge g -> [ (e.name, g.v) ]
      | Histogram h ->
          [
            (e.name ^ ".count", float_of_int (Hist.count h));
            (e.name ^ ".sum", float_of_int (Hist.sum h));
            (e.name ^ ".mean", Hist.mean h);
            (e.name ^ ".p50", float_of_int (pct h 50.0));
            (e.name ^ ".p99", float_of_int (pct h 99.0));
          ])
    (entries ())

let histogram_json h =
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  let buckets = Hist.buckets h in
  Json.Obj
    [
      ("buckets", ints (List.map fst buckets));
      ("counts", ints (List.map snd buckets));
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("min", Json.Int (Hist.min h));
      ("max", Json.Int (Hist.max h));
      ("p50", Json.Int (pct h 50.0));
      ("p90", Json.Int (pct h 90.0));
      ("p99", Json.Int (pct h 99.0));
    ]

let to_json () =
  let pick f =
    List.filter_map f (entries ())
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (fun e ->
               match e.metric with
               | Counter c -> Some (e.name, Json.Int c.n)
               | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (fun e ->
               match e.metric with
               | Gauge g -> Some (e.name, Json.Float g.v)
               | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (fun e ->
               match e.metric with
               | Histogram h -> Some (e.name, histogram_json h)
               | _ -> None)) );
    ]

let pp fmt () =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      match e.metric with
      | Counter c -> Format.fprintf fmt "%-36s %12d@," e.name c.n
      | Gauge g -> Format.fprintf fmt "%-36s %12.1f@," e.name g.v
      | Histogram h ->
          Format.fprintf fmt
            "%-36s n=%d sum=%d mean=%.1f p50=%d p99=%d@," e.name
            (Hist.count h) (Hist.sum h) (Hist.mean h) (pct h 50.0)
            (pct h 99.0))
    (entries ());
  Format.fprintf fmt "@]"
