(* Runs one workload and turns what it measured into the catalogue's
   metrics.

   Untraced (the end-to-end numbers): passes run while the time budget
   allows. Pass 1 gives the simulated and allocation metrics, which every
   later pass must repeat, and the peak heap, which later passes would
   inflate with the previous passes' freed pools. Host
   time is the 10th percentile of ns/frame over every chunk of every
   pass: interference on a shared host only ever adds time, so the fast
   tail is the program's own cost.

   Traced (the per-layer numbers): one untraced pass as the reference,
   then one pass with observability on and every World/Mq call in a span;
   for the sharded workload, one more untraced pass at a single shard. *)

open Twindrivers

type measured = {
  outcome : Workload.outcome;
  samples : float array;  (** host ns per frame, one per chunk *)
  words : float;
  heap_words : int;
      (** largest major heap seen between chunks, when no shard domain is
          running: a sharded run's reading then does not depend on how
          its domains' collections interleave *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  build_ns : int;
  wall_ns : int;  (** build, chunks and finish *)
}

type report = {
  workload : Workload.t;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  digest : string;
  passes : int;
  chunks : int;
  metrics : (Catalog.metric * float option) list;
  diagnostics : (string * float * string) list;
  raw : (string * float array) list;
      (** the samples behind the host-time metrics *)
  trace : Td_obs.Json.t option;
}

let setups = 9
let s_chunk = Span.register "chunk"

(* Each construction starts from a collected heap, so one pass's garbage
   inflates neither the next one's set-up time nor its heap. *)
let timed_build build =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let p = build () in
  (p, Clock.now_ns () - t0)

let measure ?(build_ns = 0) (p : Workload.pass) =
  let t0 = Clock.now_ns () in
  let samples = ref [] in
  let g0 = Gc.quick_stat () in
  let heap = ref g0.Gc.heap_words in
  while p.more () do
    let c0 = Clock.now_ns () in
    let n = if !Span.on then Span.wrap s_chunk p.chunk else p.chunk () in
    let dt = Clock.now_ns () - c0 in
    samples := (float_of_int dt /. float_of_int (max 1 n)) :: !samples;
    heap := max !heap (Gc.quick_stat ()).Gc.heap_words
  done;
  let g1 = Gc.quick_stat () in
  let words = p.words () in
  let outcome = p.finish () in
  {
    outcome;
    samples = Array.of_list (List.rev !samples);
    words;
    heap_words = !heap;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    build_ns;
    wall_ns = build_ns + (Clock.now_ns () - t0);
  }

let run_pass build =
  let p, build_ns = timed_build build in
  measure ~build_ns p

let undelivered m = m.outcome.offered - m.outcome.delivered

let frames m = float_of_int (max 1 m.outcome.delivered)
let p10 a = Stats.percentile a 10.

let merge_checks lists =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) lists) in
  List.map
    (fun n ->
      ( n,
        List.for_all
          (fun l -> match List.assoc_opt n l with Some ok -> ok | None -> true)
          lists ))
    names

let latency_diagnostics ledger =
  List.concat_map
    (fun (tag, dir) ->
      (* a p99.9 needs ten samples beyond it *)
      if Td_xen.Ledger.latency_count ledger dir < 10_000 then []
      else
        let p q =
          Option.value ~default:nan (Td_xen.Ledger.latency_percentile ledger dir q)
        in
        [
          (Printf.sprintf "sim_%s_lat_p50_cycles" tag, p 50., "cycles");
          (Printf.sprintf "sim_%s_lat_p999_cycles" tag, p 99.9, "cycles");
          ( Printf.sprintf "sim_%s_lat_samples" tag,
            float_of_int (Td_xen.Ledger.latency_count ledger dir),
            "count" );
        ])
    [ ("tx", `Tx); ("rx", `Rx) ]

let with_values values metrics =
  List.map
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.name values with
      | Some v -> (m, v)
      | None -> invalid_arg ("Runner: no value for metric " ^ m.name))
    metrics

(* ---- untraced ---- *)

let untraced (w : Workload.t) ~seed ~seconds ~scale =
  let build = w.prepare ~seed ~scale in
  let start = Clock.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let elapsed () = Clock.now_ns () - start in
  let first = run_pass build in
  (* Host speed drifts over seconds, so the set-up samples are spread
     over the run: every pass's construction is one, and stand-alone
     constructions between passes keep the count in step with the time
     spent, up to [setups]. *)
  let setup_ns = ref [ first.build_ns ] in
  let top_up target =
    while List.length !setup_ns < target do
      setup_ns := snd (timed_build build) :: !setup_ns
    done
  in
  let rec more_passes last acc =
    if elapsed () + last > budget then List.rev acc
    else begin
      top_up (1 + ((setups - 1) * elapsed () / max 1 budget));
      let m = run_pass build in
      setup_ns := m.build_ns :: !setup_ns;
      more_passes m.wall_ns (m :: acc)
    end
  in
  let rest = more_passes first.wall_ns [] in
  top_up setups;
  let all = first :: rest in
  let samples = Array.concat (List.map (fun m -> m.samples) all) in
  let o = first.outcome in
  let values =
    [
      ("host_ns_per_frame", Some (p10 samples));
      ("setup_s", Some (Stats.median (Array.of_list (List.map float_of_int !setup_ns)) /. 1e9));
      ("alloc_words_per_frame", Some (first.words /. frames first));
      ( "peak_heap_mb",
        Some (float_of_int (first.heap_words * (Sys.word_size / 8)) /. 1e6) );
      ( "sim_cycles_per_frame",
        Some (float_of_int (Td_xen.Ledger.grand_total o.ledger) /. frames first) );
    ]
  in
  {
    workload = w;
    seed;
    traced = false;
    attempted = List.fold_left (fun acc m -> acc + m.outcome.offered) 0 all;
    failed = List.fold_left (fun acc m -> acc + undelivered m) 0 all;
    checks =
      ( "passes_repeat_digest",
        List.for_all (fun m -> String.equal m.outcome.digest o.digest) rest )
      :: merge_checks (List.map (fun m -> m.outcome.checks) all);
    digest = o.digest;
    passes = List.length all;
    chunks = Array.length samples;
    metrics = with_values values Catalog.end_to_end;
    diagnostics =
      ("host.chunk_p50_ns_per_frame", Stats.median samples, "ns")
      :: latency_diagnostics o.ledger;
    raw =
      [
        ("chunk_ns_per_frame", samples);
        ("setup_ns", Array.of_list (List.rev_map float_of_int !setup_ns));
      ];
    trace = None;
  }

(* ---- traced ---- *)

let gauge name = List.assoc_opt name (Td_obs.Metrics.snapshot ())

(* Engine counters summed over the worlds, read by name after
   [Interp.publish_metrics]: a counter the interpreter stops publishing
   reads as [None] instead of breaking the build. *)
let interp_counts worlds =
  let names = [ "interp.compiled_hits"; "interp.block_hits"; "interp.compiled_bailouts" ] in
  let per_world =
    Array.map
      (fun w ->
        Td_cpu.Interp.publish_metrics (World.interp w);
        List.map gauge names)
      worlds
  in
  List.mapi
    (fun i name ->
      ( name,
        Array.fold_left
          (fun acc l ->
            match (acc, List.nth l i) with
            | Some a, Some v -> Some (a +. v)
            | _ -> None)
          (Some 0.) per_world ))
    names

let steps worlds =
  Array.fold_left (fun acc w -> acc + (World.cpu_state w).Td_cpu.State.steps) 0 worlds

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* Host ns per SVM translation of the packet buffers the hypervisor
   driver uses (all resident in the stlb after a pass). *)
let translate_ns w =
  match (World.svm w, World.pool w) with
  | Some rt, Some pool ->
      let addrs = ref [] in
      Td_kernel.Skb_pool.iter pool (fun skb ->
          addrs := skb.Td_kernel.Skb.addr :: !addrs);
      let addrs = Array.of_list !addrs in
      let ns =
        Clock.median_ns (fun () ->
            Array.iter
              (fun a -> ignore (Sys.opaque_identity (Td_svm.Runtime.translate rt a)))
              addrs)
      in
      [ ("svm.translate_ns", ns /. float_of_int (max 1 (Array.length addrs)), "ns") ]
  | _ -> []

let traced (w : Workload.t) ~seed ~scale =
  let build = w.prepare ~seed ~scale in
  let a = run_pass build in
  Span.on := true;
  Td_obs.Control.enable ();
  Span.reset ();
  for _ = 1 to setups do
    ignore (timed_build build)
  done;
  let creates =
    Array.append (Span.durations Call.s_create) (Span.durations Call.s_mq_create)
  in
  let derive_ns =
    Clock.median_ns (fun () ->
        ignore (Td_rewriter.Twin.derive (Td_driver.E1000_driver.source ())))
  in
  let p, _ = timed_build build in
  Span.reset ();
  Td_obs.Metrics.reset_all ();
  Td_obs.Trace.clear ();
  let interp0 = interp_counts p.worlds and steps0 = steps p.worlds in
  let b = measure p in
  let interp1 = interp_counts p.worlds and steps1 = steps p.worlds in
  let registry = Td_obs.Metrics.snapshot () in
  let workload_diag = p.diagnostics () in
  let translate = translate_ns p.worlds.(0) in
  Span.on := false;
  Td_obs.Control.disable ();
  let trace = Span.to_json () in
  (* the same pass on one shard must digest identically *)
  let single =
    match w.shard_variant with
    | Some variant when Workload.default_shards > 1 ->
        Some (run_pass ((variant 1).prepare ~seed ~scale))
    | _ -> None
  in
  (* the traced pass runs the contexts in order on one domain, so its
     overhead is taken against the untraced single-shard pass *)
  let same_shape = Option.value single ~default:a in
  let fr = frames b in
  let c n = Option.value (List.assoc_opt n registry) ~default:0. in
  let per_frame n = Some (c n /. fr) in
  let total (ss : Span.stat list) = List.fold_left (fun acc (s : Span.stat) -> acc + s.total_ns) 0 ss in
  let share ss = Some (float_of_int (total ss) /. float_of_int (max 1 s_chunk.total_ns)) in
  let pump_durs = Span.durations Call.s_pump in
  let interp name =
    match (List.assoc name interp0, List.assoc name interp1) with
    | Some x, Some y -> Some (y -. x)
    | _ -> None
  in
  let steps_pf = float_of_int (steps1 - steps0) /. fr in
  let ledger = b.outcome.ledger in
  let cat c = Some (float_of_int (Td_xen.Ledger.total ledger c) /. fr) in
  let values =
    [
      ("world.pump.ns_p50", Some (Stats.percentile pump_durs 50.));
      ("world.pump.ns_p99", Some (Stats.percentile pump_durs 99.));
      ("world.share.transmit", share [ Call.s_transmit; Call.s_transmit_from ]);
      ("world.share.inject_rx", share [ Call.s_inject_rx ]);
      ("world.share.pump", share [ Call.s_pump ]);
      ("world.share.tick", share [ Call.s_tick ]);
      ("world.share.churn", share [ Call.s_destroy_guest; Call.s_create_guest ]);
      ( "world.alloc_words.pump",
        Some (Call.s_pump.words /. float_of_int (max 1 Call.s_pump.count)) );
      ("world.create_ms", Some (Stats.median creates /. 1e6));
      ( "world.span_coverage",
        Some (float_of_int s_chunk.child_ns /. float_of_int (max 1 s_chunk.total_ns)) );
      ("rewriter.derive_ms", Some (derive_ns /. 1e6));
      ("cpu.steps_per_frame", Some steps_pf);
      ("cpu.host_ns_per_step", Some (p10 a.samples /. steps_pf));
      ("cpu.compiled_hits_per_frame", Option.map (fun v -> v /. fr) (interp "interp.compiled_hits"));
      ("cpu.block_hits_per_frame", Option.map (fun v -> v /. fr) (interp "interp.block_hits"));
      ( "cpu.compiled_bailouts_per_frame",
        Option.map (fun v -> v /. fr) (interp "interp.compiled_bailouts") );
      ( "cpu.bailout_ratio",
        match (interp "interp.compiled_bailouts", interp "interp.compiled_hits") with
        | Some bail, Some hits -> Some (ratio bail hits)
        | _ -> None );
      ("svm.stlb_hit_per_frame", per_frame "stlb.hit");
      ("svm.stlb_miss_per_frame", per_frame "stlb.miss");
      ("svm.stlb_hit_ratio", Some (ratio (c "stlb.hit") (c "stlb.miss")));
      ("svm.window_reclaims", Some (c "svm.window_reclaim"));
      ("xen.ledger.dom0_cycles_per_frame", cat Td_xen.Ledger.Dom0);
      ("xen.ledger.domU_cycles_per_frame", cat Td_xen.Ledger.DomU);
      ("xen.ledger.xen_cycles_per_frame", cat Td_xen.Ledger.Xen);
      ("xen.ledger.driver_cycles_per_frame", cat Td_xen.Ledger.Driver);
      ("xen.hypercalls_per_frame", per_frame "xen.hypercall");
      ("xen.virqs_per_frame", per_frame "xen.virq");
      ("xen.world_switches_per_frame", per_frame "xen.world_switch");
      ("xen.grant_maps_per_frame", per_frame "grant.map");
      ("xen.grant_copy_bytes_per_frame", per_frame "grant.copy_bytes");
      ("xen.sched_slices_per_frame", per_frame "sched.slices");
      ("xen.upcalls_per_frame", per_frame "upcall.invocations");
      ("xen.quota_throttled_per_kframe", Some (c "xen.quota_throttled" *. 1000. /. fr));
      ( "xen.ledger.latency_samples",
        Some
          (float_of_int
             (Td_xen.Ledger.latency_count ledger `Tx
             + Td_xen.Ledger.latency_count ledger `Rx)) );
      ("kernel.netio_flushes_per_frame", per_frame "netio.flush");
      ("kernel.doorbell_polls_per_frame", per_frame "netio.doorbell_polls");
      ("kernel.suppressed_hypercalls_per_frame", per_frame "netio.suppressed_hypercalls");
      ("kernel.skb_allocs_per_frame", per_frame "skb.alloc");
      ("kernel.skb_pool_allocs_per_frame", per_frame "skb.pool.alloc");
      ("kernel.skb_pool_hit_ratio", Some (ratio (c "skb.pool.alloc") (c "skb.alloc")));
      ("kernel.ring_full", Some (c "netio.ring_full"));
      ("kernel.rx_dropped", Some (c "netio.rx_dropped"));
      ("nic.irqs_per_frame", per_frame "nic.irq");
      ( "nic.dma_bytes_per_frame",
        Some ((c "nic.dma.read_bytes" +. c "nic.dma.write_bytes") /. fr) );
      ("nic.rx_dropped", Some (c "nic.rx.dropped"));
      ("fault.injected", Some (c "fault.injected"));
      ("fault.recoveries", Some (c "fault.recoveries"));
      ("fault.lost_frames", Some (c "fault.lost_frames"));
      ( "gc.minor_collections_per_kframe",
        Some (float_of_int a.minor_gcs *. 1000. /. frames a) );
      ("gc.major_collections", Some (float_of_int a.major_gcs));
      ("gc.promoted_words_per_frame", Some (a.promoted /. frames a));
      ("obs.trace_overhead_frac", Some ((p10 b.samples /. p10 same_shape.samples) -. 1.));
      ("host.chunk_p50_ns_per_frame", Some (Stats.median a.samples));
    ]
  in
  let span_p50 name (s : Span.stat) =
    if s.count = 0 then []
    else [ (name, Stats.percentile (Span.durations s) 50., "ns") ]
  in
  let churns = Call.s_destroy_guest.count in
  let diagnostics =
    span_p50 "world.transmit.ns_p50" Call.s_transmit
    @ span_p50 "world.transmit_from.ns_p50" Call.s_transmit_from
    @ span_p50 "world.inject_rx.ns_p50" Call.s_inject_rx
    @ span_p50 "world.tick.ns_p50" Call.s_tick
    @ span_p50 "world.rx_pop.ns_p50" Call.s_rx_pop
    @ (if Call.s_transmit.count = 0 then []
       else
         [
           ( "world.alloc_words.transmit",
             Call.s_transmit.words /. float_of_int Call.s_transmit.count,
             "words" );
         ])
    @ (if churns = 0 then []
       else
         [
           ( "world.churn.ns_per_op",
             float_of_int (total [ Call.s_destroy_guest; Call.s_create_guest ])
             /. float_of_int churns,
             "ns" );
         ])
    @ translate @ workload_diag
    @ (match single with
      | None -> []
      | Some s ->
          [
            ("mq.run_ns_per_frame_1shard", p10 s.samples, "ns");
            ( Printf.sprintf "mq.run_ns_per_frame_%dshard" Workload.default_shards,
              p10 a.samples,
              "ns" );
            ("shard.speedup", p10 s.samples /. p10 a.samples, "ratio");
          ])
    @ (match w.paper_cycles_per_frame with
      | None -> []
      | Some paper ->
          let sim = float_of_int (Td_xen.Ledger.grand_total ledger) /. fr in
          [ ("model.paper_fig7_error", (sim -. paper) /. paper, "frac") ])
    @ latency_diagnostics ledger
  in
  let runs = a :: b :: Option.to_list single in
  {
    workload = w;
    seed;
    traced = true;
    attempted = List.fold_left (fun acc m -> acc + m.outcome.offered) 0 runs;
    failed = List.fold_left (fun acc m -> acc + undelivered m) 0 runs;
    checks =
      ("traced_digest_equals_untraced", String.equal a.outcome.digest b.outcome.digest)
      :: (match single with
         | None -> []
         | Some s ->
             [ ("one_shard_digest_equals_sharded", String.equal s.outcome.digest a.outcome.digest) ])
      @ merge_checks (List.map (fun m -> m.outcome.checks) runs);
    digest = a.outcome.digest;
    passes = List.length runs;
    chunks = Array.length b.samples;
    metrics = with_values values Catalog.per_layer;
    diagnostics;
    raw = [ ("chunk_ns_per_frame", a.samples); ("traced_chunk_ns_per_frame", b.samples) ];
    trace = Some trace;
  }

let run w ~seed ~seconds ~scale ~trace =
  if trace then traced w ~seed ~scale else untraced w ~seed ~seconds ~scale

let correct r = List.for_all snd r.checks

(* ---- output ---- *)

module J = Td_obs.Json

let value_json = function None -> J.Null | Some v -> J.Float v

let metrics_json r =
  J.Obj
    (List.map
       (fun ((m : Catalog.metric), v) ->
         (m.name, J.Obj [ ("value", value_json v); ("unit", J.String m.unit_) ]))
       r.metrics)

(* the last stdout line of a single-workload run *)
let result_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct r));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", metrics_json r);
       ])

let to_json r =
  J.Obj
    ([
       ("workload", J.String r.workload.name);
       ("why", J.String r.workload.why);
       ("seed", J.Int r.seed);
       ("trace", J.Bool r.traced);
       ("correct", J.Bool (correct r));
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("passes", J.Int r.passes);
       ("chunks", J.Int r.chunks);
       ("digest", J.String r.digest);
       ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) r.checks));
       ("metrics", metrics_json r);
       ( "diagnostics",
         J.Obj
           (List.map
              (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
              r.diagnostics) );
       ( "raw",
         J.Obj
           (List.map
              (fun (n, a) -> (n, J.List (Array.to_list (Array.map (fun v -> J.Float v) a))))
              r.raw) );
     ]
    @ match r.trace with None -> [] | Some t -> [ ("trace", t) ])

let print_lines r =
  let name = r.workload.name in
  let show v = match v with None -> "null" | Some v -> Printf.sprintf "%.6g" v in
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.printf "%s %s %s %s\n" name m.name (show v) m.unit_)
    r.metrics;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %s %s\n" name n (show (Some v)) u)
    r.diagnostics;
  List.iter
    (fun (n, ok) -> if not ok then Printf.printf "%s CHECK-FAILED %s\n" name n)
    r.checks
