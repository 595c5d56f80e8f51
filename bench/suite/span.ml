(* Host-time spans for the traced run. Every World/Mq call a workload
   makes goes through {!Call}, which opens a span here while [on] is set;
   the runner wraps each chunk in a span of its own, so a call's parent
   is the chunk that made it and the chunk's self time is the bench's
   own loop overhead.

   Spans are aggregated per name in memory (count, total and child time,
   minor words allocated inside, every duration for percentiles) and the
   first [log_capacity] are also kept verbatim for the trace file. *)

type stat = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable child_ns : int;  (** time covered by this span's child spans *)
  mutable words : float;  (** minor words allocated inside, this domain *)
  mutable durs : int array;  (** the first [count] entries are valid *)
}

let on = ref false
let registry : stat list ref = ref []
let make name = { name; count = 0; total_ns = 0; child_ns = 0; words = 0.; durs = [||] }

let register name =
  let s = make name in
  registry := s :: !registry;
  s

let max_depth = 8
let open_spans = Array.make max_depth (make "")
let starts = Array.make max_depth 0
let words0 = Array.make max_depth 0.
let depth = ref 0

type logged = { l_name : string; l_parent : string; l_start : int; l_dur : int }

let log_capacity = 2048
let log : logged list ref = ref []
let log_len = ref 0
let origin = ref 0

let reset () =
  List.iter
    (fun s ->
      s.count <- 0;
      s.total_ns <- 0;
      s.child_ns <- 0;
      s.words <- 0.;
      s.durs <- [||])
    !registry;
  depth := 0;
  log := [];
  log_len := 0;
  origin := Clock.now_ns ()

let enter s =
  let d = !depth in
  open_spans.(d) <- s;
  words0.(d) <- Gc.minor_words ();
  starts.(d) <- Clock.now_ns ();
  depth := d + 1

let leave s =
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  decr depth;
  let d = !depth in
  let dt = t1 - starts.(d) in
  if s.count = Array.length s.durs then begin
    let grown = Array.make (max 1024 (2 * s.count)) 0 in
    Array.blit s.durs 0 grown 0 s.count;
    s.durs <- grown
  end;
  s.durs.(s.count) <- dt;
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns + dt;
  s.words <- s.words +. (w1 -. words0.(d));
  let parent = if d > 0 then Some open_spans.(d - 1) else None in
  Option.iter (fun p -> p.child_ns <- p.child_ns + dt) parent;
  if !log_len < log_capacity then begin
    incr log_len;
    log :=
      {
        l_name = s.name;
        l_parent = (match parent with Some p -> p.name | None -> "");
        l_start = starts.(d) - !origin;
        l_dur = dt;
      }
      :: !log
  end

let wrap s f =
  enter s;
  match f () with
  | r ->
      leave s;
      r
  | exception e ->
      leave s;
      raise e

let durations s = Array.init s.count (fun i -> float_of_int s.durs.(i))

let to_json () =
  let module J = Td_obs.Json in
  let used = List.filter (fun s -> s.count > 0) (List.rev !registry) in
  J.Obj
    [
      ( "spans",
        J.Obj
          (List.map
             (fun s ->
               let d = durations s in
               ( s.name,
                 J.Obj
                   [
                     ("count", J.Int s.count);
                     ("total_ns", J.Int s.total_ns);
                     ("self_ns", J.Int (s.total_ns - s.child_ns));
                     ("p50_ns", J.Float (Stats.percentile d 50.));
                     ("p99_ns", J.Float (Stats.percentile d 99.));
                     ( "alloc_words_per_call",
                       J.Float (s.words /. float_of_int s.count) );
                   ] ))
             used) );
      ("log_capacity", J.Int log_capacity);
      ( "log",
        J.List
          (List.rev_map
             (fun l ->
               J.Obj
                 [
                   ("name", J.String l.l_name);
                   ("parent", J.String l.l_parent);
                   ("start_ns", J.Int l.l_start);
                   ("dur_ns", J.Int l.l_dur);
                 ])
             !log) );
    ]
