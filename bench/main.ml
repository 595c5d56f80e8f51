(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated substrate and prints paper-vs-measured
   rows. `main.exe` runs everything (except bechamel and trajectory);
   `main.exe <experiment>` runs one of: fig5 fig6 fig7 fig8 fig9 fig10
   table1 rewrite-stats slowdown effort profile sensitivity ablations
   bechamel. `main.exe trajectory`, run from the repository root, checks
   bench/trajectory.json and prints its last two rows side by side;
   `main.exe trajectory --check BENCH_suite.json` fails if a suite
   report's allocated words per frame rose above the last row.

   The doorbell, adversary, multiqueue, fleet and interp experiments check
   their results against their rows of the bound table (bench/gates)
   right after they run: every row is logged on stderr, and a failed row
   makes the process exit 1 once the JSON exports are written.

   Observability is enabled for the whole run: every experiment returns a
   JSON payload that the dispatcher writes to BENCH_<name>.json (schema
   documented in README.md §Observability), alongside the usual tables on
   stdout. *)

open Twindrivers
module Json = Td_obs.Json

let line () = print_endline (String.make 78 '-')

let gates_failed = ref false

(* check one experiment's rows of the bound table *)
let gate outcomes = if not (Gates.report outcomes) then gates_failed := true

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* paper numbers for side-by-side printing *)
let paper_fig5 =
  [ ("domU", 1619.); ("domU-twin", 3902.); ("dom0", 4683.); ("Linux", 4690.) ]

let paper_fig6 =
  [ ("domU", 928.); ("domU-twin", 2022.); ("dom0", 2839.); ("Linux", 3010.) ]

let paper_fig7_total =
  [ ("domU", 21159.); ("domU-twin", 9972.); ("dom0", 8310.); ("Linux", 7126.) ]

let paper_fig8_total =
  [ ("domU", 35905.); ("domU-twin", 20089.); ("dom0", 14308.); ("Linux", 11166.) ]

let paper_of name table =
  match List.assoc_opt name table with
  | Some v -> Printf.sprintf "%8.0f" v
  | None -> "       -"

(* Counters are integral floats; keep them as JSON ints for readability. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let json_of_result (r : Measure.result) =
  Json.Obj
    [
      ("config", Json.String (Config.name r.Measure.config));
      ("packets", Json.Int r.Measure.packets);
      ("frame_bytes", Json.Int r.Measure.frame_bytes);
      ("cycles_per_packet", Json.Float r.Measure.cycles_per_packet);
      ("throughput_mbps", Json.Float r.Measure.throughput_mbps);
      ("cpu_limited_mbps", Json.Float r.Measure.cpu_limited_mbps);
      ("cpu_utilisation", Json.Float r.Measure.cpu_utilisation);
      ("drops", Json.Int r.Measure.drops);
      ( "breakdown_cycles_per_packet",
        Json.Obj
          (List.map
             (fun (c, v) -> (Td_xen.Ledger.category_name c, Json.Float v))
             r.Measure.breakdown) );
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, json_number v)) r.Measure.metrics)
      );
    ]

let bench_json name fields =
  Json.Obj
    (("experiment", Json.String name) :: ("schema_version", Json.Int 1)
    :: fields)

let print_throughput ~paper results =
  Printf.printf "%-10s %12s %12s %12s %8s\n" "config" "measured Mb/s"
    "cpu-scaled" "paper Mb/s" "util";
  List.iter
    (fun (cfg, (r : Measure.result)) ->
      Printf.printf "%-10s %12.0f %12.0f %12s %7.1f%%\n" (Config.name cfg)
        r.Measure.throughput_mbps r.Measure.cpu_limited_mbps
        (paper_of (Config.name cfg) paper)
        (100. *. r.Measure.cpu_utilisation))
    results

let ratio results a b =
  let find c =
    (List.assoc c (List.map (fun (k, v) -> (Config.name k, v)) results))
      .Measure.cpu_limited_mbps
  in
  find a /. find b

let fig5 () =
  header "Figure 5: transmit throughput, netperf-like stream over 5 NICs";
  let results = Experiments.fig5_transmit () in
  print_throughput ~paper:paper_fig5 results;
  Printf.printf
    "\nspeedup domU-twin/domU: %.2fx (paper 2.41x);  twin vs Linux: %.0f%% \
     (paper 64%%)\n"
    (ratio results "domU-twin" "domU")
    (100. *. ratio results "domU-twin" "Linux");
  bench_json "fig5"
    [
      ("results", Json.List (List.map (fun (_, r) -> json_of_result r) results));
      ("speedup_twin_over_domU", Json.Float (ratio results "domU-twin" "domU"));
      ("speedup_twin_over_linux", Json.Float (ratio results "domU-twin" "Linux"));
    ]

let fig6 () =
  header "Figure 6: receive throughput, netperf-like stream over 5 NICs";
  let results = Experiments.fig6_receive () in
  print_throughput ~paper:paper_fig6 results;
  Printf.printf
    "\nspeedup domU-twin/domU: %.2fx (paper 2.17x);  twin vs Linux: %.0f%% \
     (paper 67%%)\n"
    (ratio results "domU-twin" "domU")
    (100. *. ratio results "domU-twin" "Linux");
  bench_json "fig6"
    [
      ("results", Json.List (List.map (fun (_, r) -> json_of_result r) results));
      ("speedup_twin_over_domU", Json.Float (ratio results "domU-twin" "domU"));
      ("speedup_twin_over_linux", Json.Float (ratio results "domU-twin" "Linux"));
    ]

let print_breakdown ~paper results =
  Printf.printf "%-10s %8s %8s %8s %8s %9s %12s\n" "config" "dom0" "domU"
    "Xen" "e1000" "total" "paper total";
  List.iter
    (fun (cfg, (r : Measure.result)) ->
      let get c = List.assoc c r.Measure.breakdown in
      Printf.printf "%-10s %8.0f %8.0f %8.0f %8.0f %9.0f %12s\n"
        (Config.name cfg)
        (get Td_xen.Ledger.Dom0) (get Td_xen.Ledger.DomU)
        (get Td_xen.Ledger.Xen) (get Td_xen.Ledger.Driver)
        r.Measure.cycles_per_packet
        (paper_of (Config.name cfg) paper))
    results

let fig7 () =
  header "Figure 7: CPU cycles per packet, transmit (single NIC)";
  let results = Experiments.fig7_tx_breakdown () in
  print_breakdown ~paper:paper_fig7_total results;
  bench_json "fig7"
    [ ("results", Json.List (List.map (fun (_, r) -> json_of_result r) results)) ]

let fig8 () =
  header "Figure 8: CPU cycles per packet, receive (single NIC)";
  let results = Experiments.fig8_rx_breakdown () in
  print_breakdown ~paper:paper_fig8_total results;
  bench_json "fig8"
    [ ("results", Json.List (List.map (fun (_, r) -> json_of_result r) results)) ]

let fig9 () =
  header "Figure 9: web server throughput vs request rate (SPECweb99 set)";
  let results = Experiments.fig9_webserver () in
  let rates =
    match results with
    | (_, pts) :: _ ->
        List.map (fun (p : Experiments.web_point) -> p.Experiments.rate) pts
    | [] -> []
  in
  Printf.printf "%-10s" "req/s";
  List.iter (fun r -> Printf.printf "%7.0f" r) rates;
  print_newline ();
  List.iter
    (fun (cfg, pts) ->
      Printf.printf "%-10s" (Config.name cfg);
      List.iter
        (fun (p : Experiments.web_point) ->
          Printf.printf "%7.0f" p.Experiments.mbps)
        pts;
      print_newline ())
    results;
  print_newline ();
  let peaks =
    List.map
      (fun (cfg, pts) ->
        let peak =
          List.fold_left
            (fun acc (p : Experiments.web_point) ->
              Float.max acc p.Experiments.mbps)
            0.0 pts
        in
        let paper =
          List.assoc (Config.name cfg)
            [ ("Linux", 855.); ("dom0", 712.); ("domU-twin", 572.); ("domU", 269.) ]
        in
        Printf.printf "peak %-10s %6.0f Mb/s   (paper %4.0f Mb/s)\n"
          (Config.name cfg) peak paper;
        (Config.name cfg, peak))
      results
  in
  bench_json "fig9"
    [
      ( "results",
        Json.List
          (List.map
             (fun (cfg, pts) ->
               Json.Obj
                 [
                   ("config", Json.String (Config.name cfg));
                   ( "points",
                     Json.List
                       (List.map
                          (fun (p : Experiments.web_point) ->
                            Json.Obj
                              [
                                ("rate", Json.Float p.Experiments.rate);
                                ("mbps", Json.Float p.Experiments.mbps);
                              ])
                          pts) );
                 ])
             results) );
      ( "peak_mbps",
        Json.Obj (List.map (fun (name, peak) -> (name, Json.Float peak)) peaks)
      );
    ]

let fig10 () =
  header "Figure 10: transmit throughput vs upcalls per driver invocation";
  let points = Experiments.fig10_upcall_cost () in
  Printf.printf "%-44s %9s %12s\n" "demoted routines" "upcalls/op" "Mb/s (cpu)";
  List.iter
    (fun (p : Experiments.upcall_point) ->
      let label =
        match List.rev p.Experiments.demoted with
        | [] -> "(none: all ten native, as Figure 5)"
        | last :: _ ->
            Printf.sprintf "+%s (%d demoted)" last
              (List.length p.Experiments.demoted)
      in
      Printf.printf "%-44s %9.2f %12.0f\n" label p.Experiments.upcalls_per_invocation
        p.Experiments.mbps)
    points;
  print_endline
    "\npaper: 3902 Mb/s with 0 upcalls -> 1638 with 1 -> 359 with 9 (steep cliff)";
  bench_json "fig10"
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : Experiments.upcall_point) ->
               Json.Obj
                 [
                   ( "demoted",
                     Json.List
                       (List.map
                          (fun s -> Json.String s)
                          p.Experiments.demoted) );
                   ( "upcalls_per_invocation",
                     Json.Float p.Experiments.upcalls_per_invocation );
                   ("mbps", Json.Float p.Experiments.mbps);
                 ])
             points) );
    ]

let table1 () =
  header "Table 1: support routines on the error-free tx/rx fast path";
  let t = Experiments.table1_fast_path () in
  Printf.printf "fast-path routines called (hypervisor context):\n";
  List.iter (fun n -> Printf.printf "  %s\n" n) t.Experiments.fast_path_called;
  Printf.printf
    "\n%d routines on the fast path (paper: 10); %d called across all \
     operations; registry holds %d routines (paper: 97)\n"
    (List.length t.Experiments.fast_path_called)
    (List.length t.Experiments.all_called)
    t.Experiments.registry_size;
  let expected = Td_kernel.Support.fast_path_names in
  let missing =
    List.filter
      (fun n -> not (List.mem n t.Experiments.fast_path_called))
      expected
  in
  if missing <> [] then
    Printf.printf "fast-path routines not exercised this run: %s\n"
      (String.concat ", " missing);
  bench_json "table1"
    [
      ( "fast_path_called",
        Json.List
          (List.map (fun s -> Json.String s) t.Experiments.fast_path_called) );
      ( "all_called",
        Json.List (List.map (fun s -> Json.String s) t.Experiments.all_called)
      );
      ("registry_size", Json.Int t.Experiments.registry_size);
    ]

let rewrite_stats () =
  header "Static rewrite statistics (S4.1, S5.1)";
  let r = Experiments.rewrite_report () in
  Format.printf "%a@." Td_rewriter.Rewrite.pp_stats r.Experiments.stats;
  Printf.printf
    "\nfraction of driver instructions referencing memory: %.1f%% (paper: ~25%%)\n"
    (100. *. r.Experiments.memory_fraction);
  bench_json "rewrite-stats"
    [ ("memory_fraction", Json.Float r.Experiments.memory_fraction) ]

let slowdown () =
  header "Rewritten-driver slowdown (S6.2)";
  let r = Experiments.rewrite_report () in
  Printf.printf
    "driver cycles/packet (tx): native %.0f, rewritten %.0f -> %.2fx slower\n"
    r.Experiments.native_driver_cpp r.Experiments.rewritten_driver_cpp
    r.Experiments.slowdown;
  Printf.printf "paper: 960 vs 2218 cycles/packet -> 2.31x (range 2-3x)\n";
  bench_json "slowdown"
    [
      ("native_driver_cpp", Json.Float r.Experiments.native_driver_cpp);
      ("rewritten_driver_cpp", Json.Float r.Experiments.rewritten_driver_cpp);
      ("slowdown", Json.Float r.Experiments.slowdown);
    ]

let effort () =
  header "Engineering effort (S6.5)";
  let w = World.create ~nics:1 Config.Xen_twin in
  let sup = World.support w in
  let native = List.length Td_kernel.Support.fast_path_names in
  let total = Td_kernel.Support.routine_count sup in
  Printf.printf
    "hypervisor implements %d of %d support routines; the remaining %d are \
     upcall stubs generated automatically.\n"
    native total (total - native);
  Printf.printf
    "paper: 851 lines of commented C for the ten routines, against the full \
     driver-support interface.\n";
  bench_json "effort"
    [
      ("native_routines", Json.Int native);
      ("total_routines", Json.Int total);
      ("upcall_stubs", Json.Int (total - native));
    ]

let profile () =
  header "Per-routine cycle profile of the twin transmit path (S6.2)";
  let prof = Experiments.profile_tx () in
  Format.printf "%a@." Td_cpu.Profiler.pp prof;
  Printf.printf
    "(the hypervisor instance 'e1000.hyp' dominates; the VM instance      'e1000.vm' appears only for initialisation/housekeeping)
";
  Td_cpu.Profiler.publish prof;
  bench_json "profile"
    [
      ( "cycles_by_label",
        Json.Obj
          (List.map
             (fun (name, cycles) -> (name, Json.Int cycles))
             (Td_cpu.Profiler.cycles_by_label prof)) );
      ("total_cycles", Json.Int (Td_cpu.Profiler.total_cycles prof));
    ]

let sensitivity () =
  header
    "Sensitivity: tx speedup (twin/domU) vs world-switch and kernel-path      cost scaling";
  let points = Experiments.sensitivity () in
  Printf.printf "%12s %12s %12s
" "switch scale" "kernel scale" "speedup";
  List.iter
    (fun (p : Experiments.sensitivity_point) ->
      Printf.printf "%12.2f %12.2f %11.2fx
" p.Experiments.switch_scale
        p.Experiments.kernel_scale p.Experiments.tx_speedup)
    points;
  print_endline
    "
the speedup grows with switch cost (the overhead TwinDrivers removes)
     and shrinks as kernel work dominates; it exceeds 1.5x everywhere.";
  bench_json "sensitivity"
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : Experiments.sensitivity_point) ->
               Json.Obj
                 [
                   ("switch_scale", Json.Float p.Experiments.switch_scale);
                   ("kernel_scale", Json.Float p.Experiments.kernel_scale);
                   ("tx_speedup", Json.Float p.Experiments.tx_speedup);
                 ])
             points) );
    ]

let ablations () =
  header "Ablations (DESIGN.md S5)";
  let entries = Experiments.ablations () in
  List.iter
    (fun (a : Experiments.ablation) ->
      Printf.printf "%-28s %8.0f Mb/s   %s\n" a.Experiments.label
        a.Experiments.tx_cpu_scaled_mbps a.Experiments.note)
    entries;
  bench_json "ablations"
    [
      ( "entries",
        Json.List
          (List.map
             (fun (a : Experiments.ablation) ->
               Json.Obj
                 [
                   ("label", Json.String a.Experiments.label);
                   ( "tx_cpu_scaled_mbps",
                     Json.Float a.Experiments.tx_cpu_scaled_mbps );
                   ("note", Json.String a.Experiments.note);
                 ])
             entries) );
    ]

let window_batch () =
  header "Map-window x notification-batch sweep (reclaim + kick amortisation)";
  let points = Experiments.window_batch () in
  Printf.printf "%8s %6s %14s %12s %14s %10s %9s %7s\n" "window" "batch"
    "tx cyc/pkt" "kicks/pkt" "kick cyc/pkt" "virqs/pkt" "reclaims" "inuse";
  List.iter
    (fun (p : Experiments.window_batch_point) ->
      Printf.printf "%8d %6d %14.0f %12.3f %14.1f %10.3f %9d %7d\n"
        p.Experiments.window_pages p.Experiments.batch
        p.Experiments.tx_cycles_per_packet p.Experiments.tx_hypercalls_per_packet
        p.Experiments.tx_hypercall_cycles_per_packet
        p.Experiments.rx_virqs_per_packet p.Experiments.window_reclaims
        p.Experiments.window_pages_in_use)
    points;
  print_endline
    "\nper-packet hypercall cycles fall monotonically with the batch factor;\n\
    \     every window size survives a working set twice its capacity (reclaims > 0).";
  bench_json "window_batch"
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : Experiments.window_batch_point) ->
               Json.Obj
                 [
                   ("window_pages", Json.Int p.Experiments.window_pages);
                   ("batch", Json.Int p.Experiments.batch);
                   ( "tx_cycles_per_packet",
                     Json.Float p.Experiments.tx_cycles_per_packet );
                   ( "tx_hypercalls_per_packet",
                     Json.Float p.Experiments.tx_hypercalls_per_packet );
                   ( "tx_hypercall_cycles_per_packet",
                     Json.Float p.Experiments.tx_hypercall_cycles_per_packet );
                   ( "rx_virqs_per_packet",
                     Json.Float p.Experiments.rx_virqs_per_packet );
                   ("window_reclaims", Json.Int p.Experiments.window_reclaims);
                   ( "window_pages_in_use",
                     Json.Int p.Experiments.window_pages_in_use );
                 ])
             points) );
    ]

(* ---- Bechamel micro-benchmarks: one Test.make per table/figure driver ---- *)

let bechamel () =
  header "Bechamel micro-benchmarks (wall-clock of the simulator itself)";
  let open Bechamel in
  let tx_world = World.create ~nics:1 Config.Xen_twin in
  let rx_world = World.create ~nics:1 Config.Xen_twin in
  let payload = String.make 1500 'x' in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      mk "fig5/tx-packet" (fun () ->
          ignore (World.transmit tx_world ~nic:0 ~payload);
          World.pump tx_world);
      mk "fig6/rx-packet" (fun () ->
          World.inject_rx rx_world ~nic:0 ~payload;
          World.pump rx_world);
      mk "fig7/derive-twin" (fun () ->
          ignore (Td_rewriter.Twin.derive (Td_driver.E1000_driver.source ())));
      mk "fig9/webserver-run" (fun () ->
          ignore
            (Td_net.Webserver.run
               {
                 Td_net.Webserver.tx_cycles_per_packet = 10_000.;
                 rx_cycles_per_packet = 17_000.;
                 app_cycles_per_request = 6000.;
                 frequency_hz = 3e9;
                 mss = 1448;
                 wire_limit_mbps = 940.;
               }
               {
                 Td_net.Webserver.request_rate = 5000.;
                 requests = 500;
                 timeout_s = 1.0;
                 seed = 7;
               }));
      mk "table1/stlb-translate" (fun () ->
          match World.svm tx_world with
          | Some rt ->
              ignore (Td_svm.Runtime.translate rt Td_mem.Layout.dom0_heap_base)
          | None -> ());
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              Printf.printf "%-28s %14.0f ns/run\n" name est;
              estimates := (name, est) :: !estimates
          | Some [] | None -> Printf.printf "%-28s (no estimate)\n" name)
        stats)
    tests;
  bench_json "bechamel"
    [
      ( "ns_per_run",
        Json.Obj
          (List.rev_map (fun (name, est) -> (name, Json.Float est)) !estimates)
      );
    ]

let json_of_recovery_point (p : Experiments.recovery_point) =
  Json.Obj
    [
      ("policy", Json.String (Config.recovery_name p.Experiments.policy));
      ("fault_rate", Json.Float p.Experiments.fault_rate);
      ("offered", Json.Int p.Experiments.offered);
      ("delivered", Json.Int p.Experiments.delivered);
      ("aborted", Json.Int p.Experiments.aborted);
      ("refused", Json.Int p.Experiments.refused);
      ("availability", Json.Float p.Experiments.availability);
      ("injected", Json.Int p.Experiments.injected);
      ("recoveries", Json.Int p.Experiments.recoveries);
      ("replayed", Json.Int p.Experiments.replayed);
      ("lost_frames", Json.Int p.Experiments.lost);
      ("tx_lost_frames", Json.Int p.Experiments.tx_lost);
      ("contained", Json.Int p.Experiments.contained);
      ("guest_faults", Json.Int p.Experiments.guest_faults);
      ( "frames_to_recover",
        match p.Experiments.frames_to_recover with
        | Some f -> Json.Float f
        | None -> Json.Null );
      ("all_nics_serviceable", Json.Bool (p.Experiments.failed = []));
      ( "failed_ports",
        Json.List
          (List.map
             (fun (nic, reason) ->
               Json.Obj [ ("nic", Json.Int nic); ("reason", Json.String reason) ])
             p.Experiments.failed) );
    ]

let print_recovery_point (p : Experiments.recovery_point) =
  Printf.printf
    "%-15s %9.4f %8d %9d %7d %7d %10.4f%% %9d %11d %9d %6d %13s  %s\n"
    (Config.recovery_name p.Experiments.policy)
    p.Experiments.fault_rate p.Experiments.offered p.Experiments.delivered
    p.Experiments.aborted p.Experiments.refused
    (100. *. p.Experiments.availability)
    p.Experiments.injected p.Experiments.recoveries p.Experiments.replayed
    p.Experiments.lost
    (match p.Experiments.frames_to_recover with
    | Some f -> Printf.sprintf "%.1f" f
    | None -> "-")
    (if p.Experiments.failed = [] then "serviceable" else "FAILED")

let recovery () =
  header "Fault-injection recovery sweep (docs/FAULTS.md)";
  Printf.printf "%-15s %9s %8s %9s %7s %7s %11s %9s %11s %9s %6s %13s\n"
    "policy" "rate" "offered" "delivered" "aborted" "refused" "avail"
    "injected" "recoveries" "replayed" "lost" "frames/recov";
  let sweep = Experiments.recovery_sweep () in
  List.iter print_recovery_point sweep;
  (* headline: the acceptance soak — 50 k frames under a non-trivial plan
     with the restart-replay supervisor *)
  print_endline "\n50k-frame soak, restart-replay:";
  let headline =
    Experiments.recovery_soak ~frames:50_000
      ~policy:Config.Restart_replay ~rate:0.004 ()
  in
  print_recovery_point headline;
  bench_json "recovery"
    [
      ("sweep", Json.List (List.map json_of_recovery_point sweep));
      ("headline", json_of_recovery_point headline);
    ]

(* ---- fleet: N-domain registry scenario suite (docs/FLEET.md) ---- *)

let fleet () =
  header "N-domain fleet soak (docs/FLEET.md)";
  (* the acceptance soak: 200 domains, >= 1M frames of mixed traffic
     under quotas + a fault plan with runtime churn, run twice — the CI
     gate reads availability, conservation and the determinism bit *)
  let r = Experiments.fleet () in
  Printf.printf
    "%d domains (%d live at end), %d frames (%d tx offered, %d rx \
     injected)\n"
    r.Experiments.fl_domains r.Experiments.fl_live_at_end
    r.Experiments.fl_frames r.Experiments.fl_offered_tx
    r.Experiments.fl_rx_injected;
  Printf.printf
    "availability %.4f  throttled %d  faults %d  recoveries %d  churn %d\n"
    r.Experiments.fl_availability r.Experiments.fl_throttled
    r.Experiments.fl_injected r.Experiments.fl_recoveries
    r.Experiments.fl_churned;
  Printf.printf "tx latency p50/p99/p99.9: %.0f / %.0f / %.0f cycles\n"
    r.Experiments.fl_tx_p50 r.Experiments.fl_tx_p99 r.Experiments.fl_tx_p999;
  Printf.printf "rx latency p50/p99/p99.9: %.0f / %.0f / %.0f cycles\n"
    r.Experiments.fl_rx_p50 r.Experiments.fl_rx_p99 r.Experiments.fl_rx_p999;
  Printf.printf
    "conserved %b  staged-after-shutdown %d  dangling doorbells %d\n"
    r.Experiments.fl_conserved r.Experiments.fl_staged_after_shutdown
    r.Experiments.fl_dangling_doorbells;
  Printf.printf "deterministic across runs: %b  digest %s\n"
    r.Experiments.fl_deterministic r.Experiments.fl_digest;
  Printf.printf "frames allocated %d, resident %d\n"
    r.Experiments.fl_frames_allocated r.Experiments.fl_frames_resident;
  gate
    [
      Gates.fleet_frames r.Experiments.fl_frames;
      Gates.fleet_domains r.Experiments.fl_domains;
      Gates.fleet_churned r.Experiments.fl_churned;
      Gates.fleet_availability r.Experiments.fl_availability;
      Gates.fleet_conserved r.Experiments.fl_conserved;
      Gates.fleet_staged_after_shutdown r.Experiments.fl_staged_after_shutdown;
      Gates.fleet_dangling_doorbells r.Experiments.fl_dangling_doorbells;
      Gates.fleet_deterministic r.Experiments.fl_deterministic;
    ];
  bench_json "fleet"
    [
      ("domains", Json.Int r.Experiments.fl_domains);
      ("live_at_end", Json.Int r.Experiments.fl_live_at_end);
      ("frames", Json.Int r.Experiments.fl_frames);
      ("offered_tx", Json.Int r.Experiments.fl_offered_tx);
      ("delivered_tx", Json.Int r.Experiments.fl_delivered_tx);
      ("rx_injected", Json.Int r.Experiments.fl_rx_injected);
      ("rx_delivered", Json.Int r.Experiments.fl_rx_delivered);
      ("availability", Json.Float r.Experiments.fl_availability);
      ("throttled", Json.Int r.Experiments.fl_throttled);
      ("faults_injected", Json.Int r.Experiments.fl_injected);
      ("recoveries", Json.Int r.Experiments.fl_recoveries);
      ("contained", Json.Int r.Experiments.fl_contained);
      ("churned", Json.Int r.Experiments.fl_churned);
      ("tx_p50", Json.Float r.Experiments.fl_tx_p50);
      ("tx_p99", Json.Float r.Experiments.fl_tx_p99);
      ("tx_p999", Json.Float r.Experiments.fl_tx_p999);
      ("rx_p50", Json.Float r.Experiments.fl_rx_p50);
      ("rx_p99", Json.Float r.Experiments.fl_rx_p99);
      ("rx_p999", Json.Float r.Experiments.fl_rx_p999);
      ("conserved", Json.Bool r.Experiments.fl_conserved);
      ("staged_after_shutdown", Json.Int r.Experiments.fl_staged_after_shutdown);
      ("dangling_doorbells", Json.Int r.Experiments.fl_dangling_doorbells);
      ("deterministic", Json.Bool r.Experiments.fl_deterministic);
      ("digest", Json.String r.Experiments.fl_digest);
      ("frames_allocated", Json.Int r.Experiments.fl_frames_allocated);
      ("frames_resident", Json.Int r.Experiments.fl_frames_resident);
    ]

(* ---- interp: host wall-clock throughput of the execution engine ---- *)

(* A self-contained interpreter rig: one register-mix hot loop. Simulated
   cycles/steps are identical across every engine — only host wall-clock
   differs. *)
let interp_stack_top = 0x0100_0000

let interp_rig () =
  let open Td_misa in
  let phys = Td_mem.Phys_mem.create () in
  let space = Td_mem.Addr_space.create ~name:"bench" phys in
  let stack_pages = 4 in
  Td_mem.Addr_space.alloc_region space
    ~vaddr:(interp_stack_top - (stack_pages * Td_mem.Layout.page_size))
    ~pages:stack_pages;
  let registry = Td_cpu.Code_registry.create () in
  let b = Builder.create "hot" in
  Builder.(
    label b "entry";
    movl b (imm 100_000) (reg Reg.ECX);
    movl b (imm 0) (reg Reg.EAX);
    movl b (imm 1) (reg Reg.EDX);
    movl b (imm (interp_stack_top - 64)) (reg Reg.EBP);
    (* register move / ALU / flag-test / descriptor-touch mix, the same
       instruction profile as the rewritten SVM fast path the engine
       exists to speed up; the two same-base memory accesses give the
       compiled tier's stlb-redundancy elimination something to elide *)
    label b "loop";
    for _ = 1 to 2 do
      addl b (reg Reg.EDX) (reg Reg.EAX);
      movl b (reg Reg.EAX) (reg Reg.EBX);
      xorl b (reg Reg.EDX) (reg Reg.EBX);
      testl b (reg Reg.EBX) (reg Reg.EBX);
      movl b (reg Reg.EBX) (reg Reg.EDI);
      incl b (reg Reg.EDI);
      addl b (reg Reg.EDI) (reg Reg.EDX);
      testl b (reg Reg.EDX) (reg Reg.EDX);
      movl b (reg Reg.EAX) (reg Reg.ESI);
      incl b (reg Reg.ESI);
      cmpl b (imm 3) (reg Reg.ESI)
    done;
    movl b (reg Reg.ESI) (mem ~base:Reg.EBP 0);
    addl b (mem ~base:Reg.EBP 0) (reg Reg.ESI);
    decl b (reg Reg.ECX);
    jne b "loop";
    ret b);
  let hot = Program.assemble ~base:0x0080_0000 (Builder.finish b) in
  Td_cpu.Code_registry.register registry hot;
  (space, registry, Program.addr_of_label hot "entry")

(* [~threshold:max_int] never promotes an entry: every block runs on the
   basic-block engine, the tier cold entries and bailouts fall back to *)
let interp_variant ?threshold () =
  let space, registry, entry = interp_rig () in
  let st = Td_cpu.State.create space in
  Td_cpu.State.set st Td_misa.Reg.ESP interp_stack_top;
  let natives = Td_cpu.Native.create () in
  let i = Td_cpu.Interp.create st registry natives in
  Option.iter (Td_cpu.Interp.set_compile_threshold i) threshold;
  (st, i, entry)

(* host seconds on the monotonic clock (wall time, not process CPU) *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Minsn/s over a fixed wall-clock window, minor words allocated per
   instruction over the window's first call, and the per-call simulated
   (cycles, steps) signature so the variants can be checked for identity. *)
let interp_measure (st, i, entry) =
  ignore (Td_cpu.Interp.call ~max_steps:max_int i ~entry ~args:[]);
  let c0 = st.Td_cpu.State.cycles and s0 = st.Td_cpu.State.steps in
  ignore (Td_cpu.Interp.call ~max_steps:max_int i ~entry ~args:[]);
  let sim_sig = (st.Td_cpu.State.cycles - c0, st.Td_cpu.State.steps - s0) in
  let s1 = st.Td_cpu.State.steps in
  let t0 = mono_s () in
  let w0 = Gc.minor_words () in
  ignore (Td_cpu.Interp.call ~max_steps:max_int i ~entry ~args:[]);
  let words =
    (Gc.minor_words () -. w0) /. float_of_int (st.Td_cpu.State.steps - s1)
  in
  while mono_s () -. t0 < 0.4 do
    ignore (Td_cpu.Interp.call ~max_steps:max_int i ~entry ~args:[])
  done;
  let dt = mono_s () -. t0 in
  (float_of_int (st.Td_cpu.State.steps - s1) /. dt /. 1e6, words, sim_sig, i)

let interp () =
  header
    "Interp engine: host wall-clock throughput (simulated results unchanged)";
  let compiled, compiled_words, sig_compiled, eng =
    interp_measure (interp_variant ())
  in
  let block, block_words, sig_block, _ =
    interp_measure (interp_variant ~threshold:max_int ())
  in
  let identical = sig_compiled = sig_block in
  let speedup = compiled /. block in
  Printf.printf "%-42s %10s %12s\n" "engine" "Minsn/s" "words/insn";
  Printf.printf "%-42s %10.1f %12.3f\n" "compiled superblocks (default)"
    compiled compiled_words;
  Printf.printf "%-42s %10.1f %12.3f\n" "basic-block engine (never promoted)"
    block block_words;
  Printf.printf
    "\ncompiled vs basic-block engine: %.1fx\n\
     simulated (cycles, steps) per call identical across engines: %b\n"
    speedup identical;
  Td_cpu.Interp.publish_metrics eng;
  (* fig8-style simulated receive on a twin world: the default path
     (probe sites counted inline, compiled tier) against the same run
     kept on the block engine. Simulated cycles per packet must not
     move. *)
  let rx ?threshold () =
    let w = World.create ~nics:1 Config.Xen_twin in
    Option.iter
      (Td_cpu.Interp.set_compile_threshold (World.interp w))
      threshold;
    let payload = String.make 1500 'r' in
    let t0 = mono_s () in
    for i = 1 to 2000 do
      World.inject_rx w ~nic:0 ~payload;
      if i mod 8 = 0 then World.pump w
    done;
    World.pump w;
    let host = mono_s () -. t0 in
    let cycles =
      List.fold_left
        (fun acc c -> acc + Td_xen.Ledger.total (World.ledger w) c)
        0 Td_xen.Ledger.categories
    in
    let frames = World.delivered_rx_frames w in
    (float_of_int cycles /. float_of_int frames, frames, host)
  in
  let cpp_fast, frames_fast, host_fast = rx () in
  let cpp_block, frames_block, host_block = rx ~threshold:max_int () in
  let rx_identical = cpp_fast = cpp_block && frames_fast = frames_block in
  Printf.printf
    "\nfig8-style twin rx, 2000 frames: %.0f cycles/pkt default, %.0f \
     block engine\n\
     (identical: %b); host %.2fs block engine -> %.2fs default\n"
    cpp_fast cpp_block rx_identical host_block host_fast;
  (* Fig 7's twin transmit: the translation memos outlive superblock
     runs, so after the warm-up nearly every access is served by its
     site's memo and page-table walks are rare *)
  let tx_frames = 2000 in
  let tx = World.create ~nics:1 Config.Xen_twin in
  ignore (Measure.run_transmit ~packets:tx_frames tx : Measure.result);
  let tx_interp = World.interp tx in
  let walks =
    float_of_int (Td_cpu.Interp.page_walks tx_interp)
    /. float_of_int tx_frames
  and elided =
    float_of_int (Td_cpu.Interp.stlb_elided tx_interp)
    /. float_of_int tx_frames
  in
  Printf.printf
    "\ntwin tx, %d frames (64-frame warm-up included): %.3f page-table \
     walks and %.1f memo hits per frame\n"
    tx_frames walks elided;
  gate
    [
      Gates.interp_compiled_not_slower ~compiled ~block;
      Gates.interp_compiled_words compiled_words;
      Gates.interp_modes_identical identical;
      Gates.interp_rx_identical rx_identical;
      Gates.interp_twin_tx_walks walks;
    ];
  bench_json "interp"
    [
      ( "host",
        Json.Obj
          [
            ("compiled_minsn_s", Json.Float compiled);
            ("block_minsn_s", Json.Float block);
            ("speedup_compiled_over_block", Json.Float speedup);
            ("compiled_words_per_insn", Json.Float compiled_words);
            ("block_words_per_insn", Json.Float block_words);
          ] );
      ("simulated_identical_across_modes", Json.Bool identical);
      ( "block_cache",
        Json.Obj
          [
            ("hits", Json.Int (Td_cpu.Interp.block_hits eng));
            ("misses", Json.Int (Td_cpu.Interp.block_misses eng));
          ] );
      ( "compiled_cache",
        Json.Obj
          [
            ("compiled_blocks", Json.Int (Td_cpu.Interp.compiled_blocks eng));
            ("compiled_hits", Json.Int (Td_cpu.Interp.compiled_hits eng));
            ( "compiled_bailouts",
              Json.Int (Td_cpu.Interp.compiled_bailouts eng) );
            ("stlb_elided", Json.Int (Td_cpu.Interp.stlb_elided eng));
            ("page_walks", Json.Int (Td_cpu.Interp.page_walks eng));
          ] );
      ( "twin_tx",
        Json.Obj
          [
            ("frames", Json.Int tx_frames);
            ("page_walks_per_frame", Json.Float walks);
            ("memo_hits_per_frame", Json.Float elided);
          ] );
      ( "simulated_rx",
        Json.Obj
          [
            ("frames", Json.Int frames_fast);
            ("cycles_per_packet_default", Json.Float cpp_fast);
            ("cycles_per_packet_block", Json.Float cpp_block);
            ("bit_identical_cycles", Json.Bool rx_identical);
            ("host_s_default", Json.Float host_fast);
            ("host_s_block", Json.Float host_block);
          ] );
    ]

let doorbell () =
  header
    "Doorbell + adaptive polling: hypercalls and cycles per packet vs \
     offered load";
  let points = Experiments.doorbell () in
  Printf.printf "%12s %6s %8s %12s %10s %10s %7s %8s %9s %9s %9s\n" "mode"
    "load" "packets" "cyc/pkt" "hcall/pkt" "virq/pkt" "polls" "suppr" "final"
    "tx-p99" "rx-p99";
  List.iter
    (fun (p : Experiments.doorbell_point) ->
      Printf.printf "%12s %6d %8d %12.0f %10.4f %10.4f %7d %8d %9s %9.0f %9.0f\n"
        p.Experiments.db_mode p.Experiments.offered_per_window
        p.Experiments.db_packets p.Experiments.db_cycles_per_packet
        p.Experiments.hypercalls_per_packet p.Experiments.virqs_per_packet
        p.Experiments.db_doorbell_polls
        p.Experiments.db_suppressed_hypercalls p.Experiments.final_tx_mode
        p.Experiments.db_tx_p99 p.Experiments.db_rx_p99)
    points;
  print_endline
    "\nadaptive stays interrupt-driven (and cycle-identical) at idle, crosses\n\
    \     into polling as the kick rate rises, and suppresses nearly every\n\
    \     notifying hypercall at the top offered load.";
  let top =
    List.fold_left (fun m p -> max m p.Experiments.offered_per_window) 0 points
  in
  let pick mode load =
    List.find
      (fun p ->
        p.Experiments.db_mode = mode && p.Experiments.offered_per_window = load)
      points
  in
  let a_top = pick "adaptive" top and i_top = pick "interrupt" top in
  let a_idle = pick "adaptive" 0 and i_idle = pick "interrupt" 0 in
  gate
    [
      Gates.doorbell_top_load_kicks
        ~adaptive:a_top.Experiments.hypercalls_per_packet
        ~interrupt:i_top.Experiments.hypercalls_per_packet;
      Gates.doorbell_idle_cycles ~adaptive:a_idle.Experiments.db_cycles_total
        ~interrupt:i_idle.Experiments.db_cycles_total;
      Gates.doorbell_top_load_cycles
        ~adaptive:a_top.Experiments.db_cycles_per_packet
        ~interrupt:i_top.Experiments.db_cycles_per_packet;
    ];
  bench_json "doorbell"
    [
      ( "points",
        Json.List
          (List.map
             (fun (p : Experiments.doorbell_point) ->
               Json.Obj
                 [
                   ("mode", Json.String p.Experiments.db_mode);
                   ( "offered_per_window",
                     Json.Int p.Experiments.offered_per_window );
                   ("packets", Json.Int p.Experiments.db_packets);
                   ("cycles_total", Json.Int p.Experiments.db_cycles_total);
                   ( "cycles_per_packet",
                     Json.Float p.Experiments.db_cycles_per_packet );
                   ( "hypercalls_per_packet",
                     Json.Float p.Experiments.hypercalls_per_packet );
                   ( "virqs_per_packet",
                     Json.Float p.Experiments.virqs_per_packet );
                   ( "doorbell_polls",
                     Json.Int p.Experiments.db_doorbell_polls );
                   ( "suppressed_hypercalls",
                     Json.Int p.Experiments.db_suppressed_hypercalls );
                   ( "suppressed_virqs",
                     Json.Int p.Experiments.db_suppressed_virqs );
                   ("mode_switches", Json.Int p.Experiments.db_mode_switches);
                   ("final_tx_mode", Json.String p.Experiments.final_tx_mode);
                   ( "tx_lat_samples",
                     Json.Int p.Experiments.db_tx_lat_samples );
                   ( "rx_lat_samples",
                     Json.Int p.Experiments.db_rx_lat_samples );
                   ("tx_lat_p50", Json.Float p.Experiments.db_tx_p50);
                   ("tx_lat_p99", Json.Float p.Experiments.db_tx_p99);
                   ("rx_lat_p50", Json.Float p.Experiments.db_rx_p50);
                   ("rx_lat_p99", Json.Float p.Experiments.db_rx_p99);
                 ])
             points) );
    ]

let multiqueue () =
  header
    "Multi-queue NICs + sharded simulation: RSS scaling and \
     OCaml-domain parallel speedup";
  let host_cpus = Twindrivers.Shard.available_parallelism () in
  let r = Experiments.multiqueue ~clock:Unix.gettimeofday () in
  Printf.printf "host cpus: %d\n\n%8s %8s %14s %14s %12s\n" host_cpus "queues"
    "frames" "elapsed-cyc" "total-cyc" "sim Mb/s";
  List.iter
    (fun (p : Experiments.mq_queue_point) ->
      Printf.printf "%8d %8d %14d %14d %12.0f\n" p.Experiments.mq_queues
        p.Experiments.mq_wire_frames p.Experiments.mq_elapsed_cycles
        p.Experiments.mq_total_cycles p.Experiments.mq_sim_mbps)
    r.Experiments.mq_points_queues;
  Printf.printf "\n%8s %12s  %s\n" "shards" "wall s" "merged-ledger digest";
  List.iter
    (fun (p : Experiments.mq_shard_point) ->
      Printf.printf "%8d %12.3f  %s\n" p.Experiments.mq_shards
        p.Experiments.mq_wall_s
        (String.sub p.Experiments.mq_digest 0
           (min 56 (String.length p.Experiments.mq_digest))))
    r.Experiments.mq_points_shards;
  Printf.printf
    "\nledger bit-identical across shard counts: %b\n\
     single-queue aggregate identical to plain world: %b\n\
     wall-clock speedup at 4 shards: %.2fx (meaningful only with >= 4 host \
     cores)\n"
    r.Experiments.mq_ledger_bit_identical r.Experiments.mq_single_queue_identical
    r.Experiments.mq_speedup_at_4;
  let sim_mbps queues =
    (List.find
       (fun p -> p.Experiments.mq_queues = queues)
       r.Experiments.mq_points_queues)
      .Experiments.mq_sim_mbps
  in
  gate
    [
      Gates.multiqueue_ledger_identical r.Experiments.mq_ledger_bit_identical;
      Gates.multiqueue_single_queue_identical
        r.Experiments.mq_single_queue_identical;
      Gates.multiqueue_queue_scaling ~one:(sim_mbps 1) ~eight:(sim_mbps 8);
      Gates.multiqueue_speedup_at_4 ~cores:host_cpus
        ~speedup:r.Experiments.mq_speedup_at_4;
    ];
  bench_json "multiqueue"
    [
      ("host_cpus", Json.Int host_cpus);
      ( "points_queues",
        Json.List
          (List.map
             (fun (p : Experiments.mq_queue_point) ->
               Json.Obj
                 [
                   ("queues", Json.Int p.Experiments.mq_queues);
                   ("wire_frames", Json.Int p.Experiments.mq_wire_frames);
                   ("wire_bytes", Json.Int p.Experiments.mq_wire_bytes);
                   ("elapsed_cycles", Json.Int p.Experiments.mq_elapsed_cycles);
                   ("total_cycles", Json.Int p.Experiments.mq_total_cycles);
                   ("sim_mbps", Json.Float p.Experiments.mq_sim_mbps);
                 ])
             r.Experiments.mq_points_queues) );
      ( "points_shards",
        Json.List
          (List.map
             (fun (p : Experiments.mq_shard_point) ->
               Json.Obj
                 [
                   ("shards", Json.Int p.Experiments.mq_shards);
                   ("wall_s", Json.Float p.Experiments.mq_wall_s);
                   ("digest", Json.String p.Experiments.mq_digest);
                 ])
             r.Experiments.mq_points_shards) );
      ("speedup_at_4", Json.Float r.Experiments.mq_speedup_at_4);
      ( "ledger_bit_identical",
        Json.Bool r.Experiments.mq_ledger_bit_identical );
      ( "single_queue_identical",
        Json.Bool r.Experiments.mq_single_queue_identical );
    ]

let adversary () =
  header
    "Adversarial guest: fuzzed hypercall/grant/ring/doorbell ops + \
     hostile-neighbour quotas";
  let ops = 100_000 in
  let seed = 42 in
  (* tight enough that the fuzzer's own transmit pressure trips the rate
     buckets, so quota denials are part of the exercised surface *)
  let quota =
    { Td_xen.Quota.default_limits with Td_xen.Quota.notifications_per_s = 5_000. }
  in
  let r = Td_adv.Fuzz.run ~seed ~quota ~ops () in
  let r2 = Td_adv.Fuzz.run ~seed ~quota ~ops () in
  let deterministic =
    r.Td_adv.Fuzz.checksum = r2.Td_adv.Fuzz.checksum
    && r.Td_adv.Fuzz.ok = r2.Td_adv.Fuzz.ok
  in
  Printf.printf
    "fuzz: %d ops (seed %d)  ok %d  guest-faults %d  svm-faults %d  \
     quota-denials %d  churned %d\n\
     checksum 0x%x  replay bit-identical: %b  violations: %d\n"
    r.Td_adv.Fuzz.ops seed r.Td_adv.Fuzz.ok r.Td_adv.Fuzz.guest_faults
    r.Td_adv.Fuzz.svm_faults r.Td_adv.Fuzz.quota_denials r.Td_adv.Fuzz.churned
    r.Td_adv.Fuzz.checksum deterministic
    (List.length r.Td_adv.Fuzz.violations);
  List.iter (Printf.printf "  VIOLATION: %s\n") r.Td_adv.Fuzz.violations;
  (* hostile neighbour: the victim's throughput on the shared simulated
     CPU with and without rate quotas on the flooding attacker *)
  let tight =
    {
      Td_xen.Quota.unlimited with
      Td_xen.Quota.notifications_per_s = 25_000.;
      burst = 16.;
    }
  in
  let solo = Td_adv.Harness.contend ~attack_per_frame:0 () in
  let protected_ = Td_adv.Harness.contend ~quota:tight () in
  let unprotected = Td_adv.Harness.contend () in
  (* victim goodput in Mb/s of simulated time: 1400-byte frames over the
     run's grand-total cycles at the 3 GHz simulated clock *)
  let mbps (c : Td_adv.Harness.contention) =
    float_of_int (c.Td_adv.Harness.victim_wire * 1400 * 8)
    /. (float_of_int c.Td_adv.Harness.grand_cycles /. 3e9)
    /. 1e6
  in
  Printf.printf "\n%-12s %8s %8s %8s %10s %10s %14s %10s\n" "neighbour"
    "vic-sent" "vic-wire" "vic-thr" "att-tries" "throttled" "grand-cycles"
    "vic Mb/s";
  let row name (c : Td_adv.Harness.contention) =
    Printf.printf "%-12s %8d %8d %8d %10d %10d %14d %10.1f\n" name
      c.Td_adv.Harness.victim_sent c.Td_adv.Harness.victim_wire
      c.Td_adv.Harness.victim_throttled c.Td_adv.Harness.attacker_attempts
      c.Td_adv.Harness.attacker_throttled c.Td_adv.Harness.grand_cycles
      (mbps c)
  in
  row "solo" solo;
  row "quota-on" protected_;
  row "quota-off" unprotected;
  let ratio_on = mbps protected_ /. mbps solo in
  let ratio_off = mbps unprotected /. mbps solo in
  Printf.printf
    "\nvictim throughput with quotas: %.1f%% of solo (%.1f%% without) — \
     denied\nattacker frames die at the frontend credit check before any \
     skb or dom0\nbackend work exists.\n"
    (100. *. ratio_on) (100. *. ratio_off);
  gate
    [
      Gates.adversary_fuzz_ops r.Td_adv.Fuzz.ops;
      Gates.adversary_fuzz_violations r.Td_adv.Fuzz.violations;
      Gates.adversary_fuzz_replay deterministic;
      Gates.adversary_victim_quota_on ratio_on;
      Gates.adversary_victim_quota_off ratio_off;
      Gates.adversary_victim_unthrottled
        protected_.Td_adv.Harness.victim_throttled;
    ];
  let json_contend (c : Td_adv.Harness.contention) =
    Json.Obj
      [
        ("victim_sent", Json.Int c.Td_adv.Harness.victim_sent);
        ("victim_wire", Json.Int c.Td_adv.Harness.victim_wire);
        ("victim_throttled", Json.Int c.Td_adv.Harness.victim_throttled);
        ("attacker_attempts", Json.Int c.Td_adv.Harness.attacker_attempts);
        ("attacker_throttled", Json.Int c.Td_adv.Harness.attacker_throttled);
        ("attacker_row", Json.Int c.Td_adv.Harness.attacker_row);
        ("other_cycles", Json.Int c.Td_adv.Harness.other_cycles);
        ("grand_cycles", Json.Int c.Td_adv.Harness.grand_cycles);
        ("victim_mbps", Json.Float (mbps c));
      ]
  in
  bench_json "adversary"
    [
      ( "fuzz",
        Json.Obj
          [
            ("seed", Json.Int seed);
            ("ops", Json.Int r.Td_adv.Fuzz.ops);
            ("ok", Json.Int r.Td_adv.Fuzz.ok);
            ("guest_faults", Json.Int r.Td_adv.Fuzz.guest_faults);
            ("svm_faults", Json.Int r.Td_adv.Fuzz.svm_faults);
            ("quota_denials", Json.Int r.Td_adv.Fuzz.quota_denials);
            ("churned", Json.Int r.Td_adv.Fuzz.churned);
            ("checksum", Json.String (Printf.sprintf "0x%x" r.Td_adv.Fuzz.checksum));
            ("replay_bit_identical", Json.Bool deterministic);
            ( "violations",
              Json.List
                (List.map (fun v -> Json.String v) r.Td_adv.Fuzz.violations)
            );
          ] );
      ( "neighbour",
        Json.Obj
          [
            ("solo", json_contend solo);
            ("quota_on", json_contend protected_);
            ("quota_off", json_contend unprotected);
            ("victim_throughput_ratio_quota_on", Json.Float ratio_on);
            ("victim_throughput_ratio_quota_off", Json.Float ratio_off);
          ] );
    ]

(* ---- trajectory: the committed per-PR end-to-end medians ---- *)

let trajectory_file = "bench/trajectory.json"

type trajectory_row = {
  pr : int;
  claim : string;
  medians : (string * (string * float) list) list;  (** workload -> metric *)
}

(* A row must carry every suite workload and every end-to-end metric,
   and rows must come in increasing PR order. *)
let trajectory_rows json =
  let fail fmt = Printf.ksprintf failwith fmt in
  let workloads = List.map (fun w -> w.Td_suite.Workload.name) Td_suite.Workload.all in
  let metrics = List.map (fun m -> m.Td_suite.Catalog.name) Td_suite.Catalog.end_to_end in
  let row j =
    let pr =
      match Json.member "pr" j with Some (Json.Int n) -> n | _ -> fail "a row has no \"pr\""
    in
    let claim =
      match Json.member "claim" j with
      | Some (Json.String c) -> c
      | _ -> fail "PR %d: no \"claim\"" pr
    in
    let medians =
      List.map
        (fun w ->
          let ms =
            match Option.bind (Json.member "medians" j) (Json.member w) with
            | Some ms -> ms
            | None -> fail "PR %d: no medians for %s" pr w
          in
          ( w,
            List.map
              (fun m ->
                match Option.bind (Json.member m ms) Td_suite.Json_read.to_float with
                | Some v -> (m, v)
                | None -> fail "PR %d: no %s median for %s" pr m w)
              metrics ))
        workloads
    in
    { pr; claim; medians }
  in
  let rows =
    match Json.member "rows" json with
    | Some (Json.List rs) -> List.map row rs
    | _ -> fail "no \"rows\" list"
  in
  ignore
    (List.fold_left
       (fun prev r ->
         if r.pr <= prev then fail "PR %d comes after PR %d: rows out of PR order" r.pr prev;
         r.pr)
       min_int rows);
  rows

let load_trajectory () =
  match trajectory_rows (Td_suite.Json_read.of_file trajectory_file) with
  | rows -> rows
  | exception (Failure msg | Td_suite.Json_read.Error msg) ->
      Printf.eprintf "%s: %s\n" trajectory_file msg;
      exit 1
  | exception Sys_error msg ->
      Printf.eprintf "%s (run from the repository root)\n" msg;
      exit 1

let trajectory () =
  header (Printf.sprintf "Perf trajectory (%s): the last two PRs" trajectory_file);
  let rows = load_trajectory () in
  let prev, last =
    match List.rev rows with
    | last :: prev :: _ -> (prev, last)
    | [ only ] -> (only, only)
    | [] ->
        Printf.eprintf "%s: no rows\n" trajectory_file;
        exit 1
  in
  List.iter (fun r -> Printf.printf "PR %d claim: %s\n" r.pr r.claim) [ prev; last ];
  Printf.printf "%-14s %-22s %12s %12s %8s\n" "workload" "metric"
    (Printf.sprintf "PR %d" prev.pr) (Printf.sprintf "PR %d" last.pr) "change";
  List.iter
    (fun (w, ms) ->
      List.iter
        (fun (m, v) ->
          let p = List.assoc m (List.assoc w prev.medians) in
          Printf.printf "%-14s %-22s %12.6g %12.6g %+7.1f%%\n" w m p v
            (100. *. (v -. p) /. p))
        ms)
    last.medians;
  bench_json "trajectory"
    [ ("rows", Json.Int (List.length rows)); ("last_pr", Json.Int last.pr) ]

(* The allocation gate: allocated words per frame are exact for a given
   seed, so a suite report (any run length; the metric comes from pass 1)
   may exceed the last trajectory row by at most the table's tolerance on
   any workload. *)
let trajectory_check report =
  header
    (Printf.sprintf "Allocation gate: %s against the last row of %s" report
       trajectory_file);
  let last =
    match List.rev (load_trajectory ()) with
    | last :: _ -> last
    | [] ->
        Printf.eprintf "%s: no rows\n" trajectory_file;
        exit 1
  in
  let workloads =
    match Json.member "workloads" (Td_suite.Json_read.of_file report) with
    | Some ws -> ws
    | None | (exception (Sys_error _ | Td_suite.Json_read.Error _)) ->
        Printf.eprintf "%s: not a suite report\n" report;
        exit 1
  in
  Printf.printf "%-14s %12s %12s %8s\n" "workload"
    (Printf.sprintf "PR %d" last.pr) "report" "change";
  gate
    (List.map
       (fun (w, ms) ->
         let base = List.assoc "alloc_words_per_frame" ms in
         let value =
           let ( let* ) = Option.bind in
           let* body = Json.member w workloads in
           let* metrics = Json.member "metrics" body in
           let* m = Json.member "alloc_words_per_frame" metrics in
           let* v = Json.member "value" m in
           Td_suite.Json_read.to_float v
         in
         match value with
         | None ->
             Printf.eprintf "%s: no alloc_words_per_frame for %s\n" report w;
             exit 1
         | Some v ->
             Printf.printf "%-14s %12.2f %12.2f %+7.2f%%\n" w base v
               (100. *. (v -. base) /. base);
             Gates.trajectory_alloc ~workload:w ~pr:last.pr ~base v)
       last.medians);
  bench_json "trajectory"
    [ ("checked", Json.String report); ("last_pr", Json.Int last.pr) ]

let experiments =
  [
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table1", table1);
    ("rewrite-stats", rewrite_stats);
    ("slowdown", slowdown);
    ("effort", effort);
    ("profile", profile);
    ("sensitivity", sensitivity);
    ("ablations", ablations);
    ("window_batch", window_batch);
    ("doorbell", doorbell);
    ("multiqueue", multiqueue);
    ("recovery", recovery);
    ("fleet", fleet);
    ("interp", interp);
    ("adversary", adversary);
    ("bechamel", bechamel);
    ("trajectory", trajectory);
  ]

let run_and_export (name, f) =
  let payload = f () in
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc (Td_obs.Json.to_string_pretty payload);
  close_out oc;
  (* stderr, so stdout stays diffable against earlier runs *)
  Printf.eprintf "[wrote %s]\n%!" file

let () =
  (* the harness always runs with observability on: metric snapshots ride
     along in every Measure.result and land in the JSON exports (simulated
     cycle counts are unaffected — instrumentation never touches the
     ledger) *)
  Td_obs.Control.enable ();
  (match Sys.argv with
  | [| _ |] ->
      List.iter
        (fun (name, f) ->
          if name <> "bechamel" && name <> "trajectory" then
            run_and_export (name, f))
        experiments
  | [| _; "trajectory"; "--check"; report |] ->
      run_and_export ("trajectory", fun () -> trajectory_check report)
  | [| _; name |] -> (
      match List.assoc_opt name experiments with
      | Some f -> run_and_export (name, f)
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
  | _ ->
      Printf.eprintf "usage: %s [experiment | trajectory --check REPORT]\n"
        Sys.argv.(0);
      exit 1);
  if !gates_failed then exit 1
