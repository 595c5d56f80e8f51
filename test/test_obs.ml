(* Tests for the observability layer: metric registry lifecycle,
   histogram percentile edges, trace-ring wraparound, zero-cost-when-
   disabled, and the end-to-end property the paper's fast path promises —
   an error-free transmit run records no upcall events. *)

open Td_obs

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* every test starts from a pristine, enabled registry and restores the
   disabled default afterwards, so unrelated suites never see obs state *)
let with_fresh f () =
  Metrics.clear ();
  Trace.set_capacity 4096;
  Fun.protect
    ~finally:(fun () ->
      Control.disable ();
      Metrics.clear ();
      Trace.clear ())
    (fun () -> Control.with_enabled f)

let test_registry () =
  let c = Metrics.counter ~help:"a counter" "t.count" in
  Metrics.incr c;
  Metrics.add c 4;
  check int_c "counter" 5 (Metrics.value c);
  (* find-or-create returns the same cell *)
  Metrics.incr (Metrics.counter "t.count");
  check int_c "shared cell" 6 (Metrics.counter_value "t.count");
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  check bool_c "gauge" true (Metrics.gauge_value (Metrics.gauge "t.gauge") = 2.5);
  check bool_c "exists" true (Metrics.exists "t.gauge");
  check int_c "absent counter reads 0" 0 (Metrics.counter_value "t.absent");
  check bool_c "absent" false (Metrics.exists "t.absent");
  (* a name keeps its kind *)
  check bool_c "kind mismatch" true
    (match Metrics.gauge "t.count" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check bool_c "names sorted" true
    (Metrics.names () = [ "t.count"; "t.gauge" ])

let test_reset () =
  Metrics.bump "t.a";
  Metrics.bump_by "t.b" 7;
  Metrics.set (Metrics.gauge "t.g") 9.0;
  Hist.observe (Metrics.histogram "t.h") 100;
  Metrics.reset "t.b";
  check int_c "single reset" 0 (Metrics.counter_value "t.b");
  check int_c "others kept" 1 (Metrics.counter_value "t.a");
  Metrics.reset_all ();
  check int_c "reset_all zeroes" 0 (Metrics.counter_value "t.a");
  check int_c "histogram zeroed" 0 (Hist.count (Metrics.histogram "t.h"));
  (* registrations survive a reset — the snapshot still lists them *)
  check bool_c "registration survives" true (Metrics.exists "t.b");
  check bool_c "snapshot lists reset names" true
    (List.mem_assoc "t.a" (Metrics.snapshot ()));
  Metrics.clear ();
  check bool_c "clear drops registrations" false (Metrics.exists "t.a")

let test_percentiles () =
  let h = Metrics.histogram "t.p" in
  check bool_c "empty histogram" true (Hist.percentile h 50.0 = None);
  check bool_c "empty snapshot reads 0" true
    (List.assoc "t.p.p50" (Metrics.snapshot ()) = 0.0);
  (* 8 observations of 5, one of 15, one of 1000 *)
  for _ = 1 to 8 do
    Hist.observe h 5
  done;
  Hist.observe h 15;
  Hist.observe h 1000;
  check int_c "count" 10 (Hist.count h);
  check int_c "sum" (40 + 15 + 1000) (Hist.sum h);
  check int_c "min" 5 (Hist.min h);
  check int_c "max" 1000 (Hist.max h);
  (* each value is alone in its bucket, so every nearest rank is exact *)
  let p q = Option.get (Hist.percentile h q) in
  check int_c "p50" 5 (p 50.0);
  check int_c "p80" 5 (p 80.0);
  check int_c "p90" 15 (p 90.0);
  check int_c "p99" 1000 (p 99.0);
  check int_c "p100" 1000 (p 100.0);
  check bool_c "snapshot p99" true
    (List.assoc "t.p.p99" (Metrics.snapshot ()) = 1000.0);
  (* out-of-range p clamps instead of raising *)
  check int_c "p<0 clamps" 5 (p (-3.0));
  check int_c "p>100 clamps" 1000 (p 250.0);
  check bool_c "negative value rejected" true
    (match Hist.observe h (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_ring_wraparound () =
  Trace.set_capacity 8;
  check int_c "capacity" 8 (Trace.capacity ());
  for i = 0 to 19 do
    Trace.emit (Trace.Custom { name = "t"; value = i })
  done;
  check int_c "all twenty emitted" 20 (Trace.emitted ());
  let records = Trace.records () in
  check int_c "ring keeps last eight" 8 (List.length records);
  (* oldest-first, contiguous, ending at the newest event *)
  List.iteri
    (fun i (r : Trace.record) ->
      check int_c "seq contiguous" (12 + i) r.Trace.seq;
      match r.Trace.event with
      | Trace.Custom { value; _ } -> check int_c "payload matches seq" (12 + i) value
      | _ -> Alcotest.fail "unexpected event")
    records;
  check int_c "count_if sees only retained" 8
    (Trace.count_if (function Trace.Custom _ -> true | _ -> false));
  Trace.clear ();
  check int_c "clear" 0 (Trace.emitted ());
  check bool_c "empty after clear" true (Trace.records () = [])

let test_disabled_is_noop () =
  Control.disable ();
  Metrics.bump "t.off";
  Metrics.bump_by "t.off" 5;
  Trace.emit (Trace.Custom { name = "t"; value = 1 });
  check bool_c "bump registers nothing" false (Metrics.exists "t.off");
  check int_c "ring untouched" 0 (Trace.emitted ());
  Control.enable ();
  Metrics.bump "t.on";
  check int_c "enabled again" 1 (Metrics.counter_value "t.on")

let test_json_export () =
  Metrics.bump_by "t.j" 3;
  Hist.observe (Metrics.histogram "t.jh") 4;
  let j = Metrics.to_json () in
  (match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
      check bool_c "counter exported" true (List.assoc "t.j" kvs = Json.Int 3)
  | _ -> Alcotest.fail "no counters object");
  (match Json.member "histograms" j with
  | Some (Json.Obj kvs) ->
      let h = List.assoc "t.jh" kvs in
      check bool_c "histogram count" true (Json.member "count" h = Some (Json.Int 1));
      (* only non-empty buckets are listed *)
      check bool_c "one bucket" true
        (Json.member "buckets" h = Some (Json.List [ Json.Int 4 ]));
      check bool_c "its count" true
        (Json.member "counts" h = Some (Json.List [ Json.Int 1 ]))
  | _ -> Alcotest.fail "no histograms object");
  Trace.emit (Trace.Stlb_miss { addr = 0xc0de; refill = true });
  (match Json.member "records" (Trace.to_json ()) with
  | Some (Json.List [ r ]) ->
      check bool_c "event name" true
        (Json.member "event" r = Some (Json.String "stlb.miss"));
      check bool_c "refill field" true
        (Json.member "refill" r = Some (Json.Bool true))
  | _ -> Alcotest.fail "expected one trace record");
  (* the compact printer round-trips the reserved characters *)
  check bool_c "string escaping" true
    (Json.to_string (Json.String "a\"b\\c\n") = {|"a\"b\\c\n"|})

(* §6.1/Table 1: the error-free tx path runs entirely in the hypervisor —
   zero upcalls; every stlb probe after warmup hits. *)
let test_error_free_transmit_no_upcalls () =
  let w = Twindrivers.World.create ~nics:1 Twindrivers.Config.Xen_twin in
  let r = Twindrivers.Measure.run_transmit ~packets:60 w in
  check int_c "no upcall invocations" 0 (Metrics.counter_value "upcall.invocations");
  check bool_c "no upcall events in trace" false
    (Trace.exists (function
      | Trace.Upcall_enter _ | Trace.Upcall_exit _ -> true
      | _ -> false));
  check bool_c "frames were transmitted" true
    (Metrics.counter_value "nic.tx.frames" >= 60);
  check int_c "no stlb misses after warmup" 0 (Metrics.counter_value "stlb.miss");
  check bool_c "stlb hits recorded" true (Metrics.counter_value "stlb.hit" > 0);
  (* the Measure snapshot carries the ledger mirrors the cross-check
     already validated against the authoritative ledger *)
  check bool_c "snapshot has ledger mirror" true
    (List.mem_assoc "ledger.cycles.driver" r.Twindrivers.Measure.metrics)

(* the acceptance property: observability must not perturb the simulated
   machine — identical worlds yield bit-identical cycle counts either way *)
let test_disabled_bit_identical () =
  Control.disable ();
  let run () =
    let w = Twindrivers.World.create ~nics:1 Twindrivers.Config.Xen_twin in
    Twindrivers.Measure.run_transmit ~packets:40 w
  in
  let off = run () in
  check bool_c "no snapshot when disabled" true
    (off.Twindrivers.Measure.metrics = []);
  Control.enable ();
  let on = run () in
  check bool_c "cycles/packet identical" true
    (off.Twindrivers.Measure.cycles_per_packet
    = on.Twindrivers.Measure.cycles_per_packet);
  check bool_c "throughput identical" true
    (off.Twindrivers.Measure.throughput_mbps
    = on.Twindrivers.Measure.throughput_mbps)

(* --- Hist against the sort-based reference (test/ref_hist.ml) --- *)

(* runs of repeated values, mixing one-value buckets below 128, mid-range
   values and values near 2^30 *)
let hist_samples_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (2, int_bound 127);
        (3, int_bound 100_000);
        (2, map (fun d -> (1 lsl 30) + d - 4096) (int_bound 8192));
      ]
  in
  map List.concat
    (list_size (int_range 1 60)
       (map2 (fun v k -> List.init k (fun _ -> v)) value (int_range 1 12)))

let hist_of samples =
  let h = Hist.create () in
  List.iter (Hist.observe h) samples;
  h

(* fixed percentiles plus p = 100 k / n for a spread of ranks k: those
   floats are often a hair above k / n, which only the epsilon keeps on
   rank k *)
let percentiles_for n =
  [ 0.; 50.; 90.; 99.; 99.9; 100. ]
  @ List.map
      (fun k -> 100. *. float_of_int k /. float_of_int n)
      [ 1; n / 3; n / 2; 2 * n / 3; n - 1; n ]

let hist_prop =
  QCheck.Test.make ~name:"hist: nearest rank within 1/64, exact merge"
    ~count:300
    (QCheck.make
       ~print:(fun (l, cut) ->
         Printf.sprintf "cut %d of [%s]" cut
           (String.concat "; " (List.map string_of_int l)))
       QCheck.Gen.(pair hist_samples_gen small_nat))
    (fun (samples, cut) ->
      let n = List.length samples in
      let h = hist_of samples in
      let cut = cut mod (n + 1) in
      let merged = hist_of (List.filteri (fun i _ -> i < cut) samples) in
      Hist.merge_into ~into:merged
        (hist_of (List.filteri (fun i _ -> i >= cut) samples));
      let answers h = List.map (Hist.percentile h) (percentiles_for n) in
      List.iter
        (fun p ->
          let exact = Option.get (Ref_hist.percentile samples p) in
          let got = Option.get (Hist.percentile h p) in
          let lo, hi = Ref_hist.bucket exact in
          let alone =
            List.for_all (fun v -> v < lo || v > hi || v = exact) samples
          in
          if got < exact || got > exact + (exact / 64) then
            QCheck.Test.fail_reportf "p%g: %d outside [%d, %d]" p got exact
              (exact + (exact / 64));
          if alone && got <> exact then
            QCheck.Test.fail_reportf "p%g: %d, exact %d alone in its bucket" p
              got exact)
        (percentiles_for n);
      if answers merged <> answers h then
        QCheck.Test.fail_report "merge differs from the concatenation";
      if
        (Hist.count merged, Hist.sum merged, Hist.min merged, Hist.max merged)
        <> (Hist.count h, Hist.sum h, Hist.min h, Hist.max h)
      then QCheck.Test.fail_report "merged count/sum/min/max differ";
      Hist.reset h;
      if
        Hist.count h <> 0 || Hist.sum h <> 0 || Hist.buckets h <> []
        || Hist.percentile h 50. <> None
      then QCheck.Test.fail_report "reset left observations behind";
      List.iter (Hist.observe h) samples;
      answers h = answers (hist_of samples))

(* memory follows the value range, not the number of observations *)
let test_hist_bounded_memory () =
  let many = Hist.create () and few = Hist.create () in
  let x = ref 1 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hist.observe many (!x mod ((1 lsl 20) + 1))
  done;
  for i = 1 to 999 do
    Hist.observe few i
  done;
  Hist.observe few (1 lsl 20);
  let words h = Obj.reachable_words (Obj.repr h) in
  check bool_c
    (Printf.sprintf "1M observations: %d words <= 1k observations: %d words"
       (words many) (words few))
    true
    (words many <= words few);
  (* warm, [observe] allocates nothing *)
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Hist.observe many (i * 7)
  done;
  let allocated = Gc.minor_words () -. before in
  check bool_c (Printf.sprintf "observe: %.0f minor words" allocated) true
    (allocated < 10.)

(* A ledger that never records a latency holds no bucket array: after a
   reset, a twin world's ledger is as small as a fresh one, while a domU
   world's keeps the arrays its latencies opened. *)
let test_twin_ledger_no_buckets () =
  let reset_words config =
    let w = Twindrivers.World.create ~nics:1 config in
    ignore (Twindrivers.Measure.run_transmit ~packets:40 w);
    let led = Twindrivers.World.ledger w in
    Td_xen.Ledger.reset led;
    Obj.reachable_words (Obj.repr led)
  in
  let fresh = Obj.reachable_words (Obj.repr (Td_xen.Ledger.create ())) in
  check int_c "twin ledger: no bucket array" fresh
    (reset_words Twindrivers.Config.Xen_twin);
  check bool_c "domU ledger keeps its buckets" true
    (reset_words Twindrivers.Config.Xen_domU > fresh)

let suite =
  [
    Alcotest.test_case "registry" `Quick (with_fresh test_registry);
    Alcotest.test_case "reset" `Quick (with_fresh test_reset);
    Alcotest.test_case "percentiles" `Quick (with_fresh test_percentiles);
    Alcotest.test_case "ring wraparound" `Quick (with_fresh test_ring_wraparound);
    Alcotest.test_case "disabled is a no-op" `Quick
      (with_fresh test_disabled_is_noop);
    Alcotest.test_case "json export" `Quick (with_fresh test_json_export);
    Alcotest.test_case "error-free tx: no upcalls" `Quick
      (with_fresh test_error_free_transmit_no_upcalls);
    Alcotest.test_case "disabled run bit-identical" `Quick
      (with_fresh test_disabled_bit_identical);
    QCheck_alcotest.to_alcotest hist_prop;
    Alcotest.test_case "hist memory is bounded" `Quick test_hist_bounded_memory;
    Alcotest.test_case "twin ledger allocates no buckets" `Quick
      test_twin_ledger_no_buckets;
  ]
