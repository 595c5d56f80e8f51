let run_configs ~packets ~nics f =
  List.map
    (fun cfg ->
      let w = World.create ~nics cfg in
      (cfg, f w ~packets))
    Config.all

let fig5_transmit ?(packets = 1000) () =
  run_configs ~packets ~nics:5 (fun w ~packets ->
      Measure.run_transmit ~packets w)

let fig6_receive ?(packets = 1000) () =
  run_configs ~packets ~nics:5 (fun w ~packets ->
      Measure.run_receive ~packets w)

let fig7_tx_breakdown ?(packets = 600) () =
  run_configs ~packets ~nics:1 (fun w ~packets ->
      Measure.run_transmit ~packets w)

let fig8_rx_breakdown ?(packets = 600) () =
  run_configs ~packets ~nics:1 (fun w ~packets ->
      Measure.run_receive ~packets w)

let profile_tx ?(packets = 300) () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let prof = Td_cpu.Profiler.attach (World.interp w) in
  let payload = String.make 1500 'x' in
  for i = 0 to packets - 1 do
    ignore (World.transmit w ~nic:0 ~payload);
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  prof

(* ---- Figure 9 ---- *)

type web_point = { rate : float; mbps : float; completed : int; timed_out : int }

let default_rates =
  [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 8000.; 10000.; 12000.; 14000.;
    16000.; 18000.; 20000. ]

let fig9_webserver ?(rates = default_rates) ?requests () =
  List.map
    (fun cfg ->
      (* calibrate per-packet costs on this configuration *)
      let wt = World.create ~nics:5 cfg in
      let tx = Measure.run_transmit ~packets:400 wt in
      let wr = World.create ~nics:5 cfg in
      let rx = Measure.run_receive ~packets:400 wr in
      let costs =
        {
          Td_net.Webserver.tx_cycles_per_packet = tx.Measure.cycles_per_packet;
          rx_cycles_per_packet = rx.Measure.cycles_per_packet;
          app_cycles_per_request = Td_net.Webserver.default_app_cycles;
          frequency_hz = float_of_int Td_cpu.Cost_model.frequency_hz;
          mss = 1448;
          wire_limit_mbps =
            Td_nic.Wire.wire_limit_mbps ~packet_bytes:1514 ~nics:1;
        }
      in
      let points =
        List.map
          (fun rate ->
            (* run long enough (several timeouts) for the open-loop queue
               to reach steady state *)
            let n =
              match requests with
              | Some n -> n
              | None -> Int.max 2000 (int_of_float (rate *. 2.5))
            in
            let o =
              Td_net.Webserver.run costs
                {
                  Td_net.Webserver.request_rate = rate;
                  requests = n;
                  timeout_s = 1.0;
                  seed = 7;
                }
            in
            {
              rate;
              mbps = o.Td_net.Webserver.response_mbps;
              completed = o.Td_net.Webserver.completed;
              timed_out = o.Td_net.Webserver.timed_out;
            })
          rates
      in
      (cfg, points))
    Config.all

(* ---- Figure 10 ---- *)

type upcall_point = {
  demoted : string list;
  upcalls_per_invocation : float;
  mbps : float;
}

(* demotion order: routines off the transmit path first, then the
   transmit-path routines in increasing call frequency; netif_rx stays
   native throughout, as in the paper *)
let demotion_order =
  [
    "dma_map_page"; "dma_unmap_page"; "dma_unmap_single"; "eth_type_trans";
    "netdev_alloc_skb"; "dev_kfree_skb_any"; "spin_unlock_irqrestore";
    "spin_trylock"; "dma_map_single";
  ]

let fig10_upcall_cost ?(packets = 400) () =
  List.init (List.length demotion_order + 1) (fun k ->
      let demoted = List.filteri (fun i _ -> i < k) demotion_order in
      let w = World.create ~nics:5 ~upcall_set:demoted Config.Xen_twin in
      let r = Measure.run_transmit ~packets w in
      let invocations = Int.max 1 (World.wire_tx_frames w) in
      let upcalls = Td_kernel.Support.total_upcalls (World.support w) in
      {
        demoted;
        upcalls_per_invocation = float_of_int upcalls /. float_of_int invocations;
        mbps = r.Measure.cpu_limited_mbps;
      })

(* ---- Table 1 ---- *)

type table1 = {
  fast_path_called : string list;
  all_called : string list;
  registry_size : int;
}

let table1_fast_path () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let sup = World.support w in
  (* error-free fast path: transmit + receive only *)
  Td_kernel.Support.reset_counts sup;
  let payload = String.make 1500 'x' in
  for i = 0 to 63 do
    ignore (World.transmit w ~nic:0 ~payload);
    World.inject_rx w ~nic:0 ~payload;
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  let fast_path_called =
    List.filter
      (fun n -> Td_kernel.Support.hyp_calls sup n > 0)
      (Td_kernel.Support.routine_names sup)
  in
  (* all operations: housekeeping and configuration too *)
  World.run_watchdog w ~nic:0;
  World.run_set_mtu w ~nic:0 ~mtu:1400;
  let all_called = Td_kernel.Support.called_routines sup in
  {
    fast_path_called;
    all_called;
    registry_size = Td_kernel.Support.routine_count sup;
  }

(* ---- rewrite facts ---- *)

type rewrite_report = {
  stats : Td_rewriter.Rewrite.stats;
  memory_fraction : float;
  native_driver_cpp : float;
  rewritten_driver_cpp : float;
  slowdown : float;
}

let driver_cpp result =
  List.assoc Td_xen.Ledger.Driver result.Measure.breakdown

let rewrite_report ?(packets = 600) () =
  let source = Td_driver.E1000_driver.source () in
  let twin = Td_rewriter.Twin.derive source in
  let linux = World.create ~nics:1 Config.Native_linux in
  let native = Measure.run_transmit ~packets linux in
  let tw = World.create ~nics:1 Config.Xen_twin in
  let rewritten = Measure.run_transmit ~packets tw in
  let native_cpp = driver_cpp native and rewritten_cpp = driver_cpp rewritten in
  {
    stats = twin.Td_rewriter.Twin.stats;
    memory_fraction = Td_rewriter.Rewrite.memory_reference_fraction source;
    native_driver_cpp = native_cpp;
    rewritten_driver_cpp = rewritten_cpp;
    slowdown = rewritten_cpp /. native_cpp;
  }

(* ---- sensitivity ---- *)

type sensitivity_point = {
  switch_scale : float;
  kernel_scale : float;
  tx_speedup : float;
}

let scale_costs (c : Td_xen.Sys_costs.t) ~switch ~kernel =
  let s v = int_of_float (float_of_int v *. switch) in
  let k v = int_of_float (float_of_int v *. kernel) in
  {
    c with
    Td_xen.Sys_costs.domain_switch = s c.Td_xen.Sys_costs.domain_switch;
    event_channel = s c.Td_xen.Sys_costs.event_channel;
    hypercall = s c.Td_xen.Sys_costs.hypercall;
    kernel_tx_path = k c.Td_xen.Sys_costs.kernel_tx_path;
    kernel_rx_path = k c.Td_xen.Sys_costs.kernel_rx_path;
    dom0_tx_kernel = k c.Td_xen.Sys_costs.dom0_tx_kernel;
  }

let sensitivity ?(packets = 300) () =
  List.concat_map
    (fun switch_scale ->
      List.map
        (fun kernel_scale ->
          let costs =
            scale_costs Td_xen.Sys_costs.default ~switch:switch_scale
              ~kernel:kernel_scale
          in
          let twin =
            Measure.run_transmit ~packets
              (World.create ~nics:5 ~costs Config.Xen_twin)
          in
          let domu =
            Measure.run_transmit ~packets
              (World.create ~nics:5 ~costs Config.Xen_domU)
          in
          { switch_scale; kernel_scale; tx_speedup = Measure.speedup twin domu })
        [ 0.75; 1.0; 1.5 ])
    [ 0.5; 1.0; 2.0; 4.0 ]

(* ---- window x batch sweep ---- *)

type window_batch_point = {
  window_pages : int;
  batch : int;
  tx_cycles_per_packet : float;
  tx_hypercalls_per_packet : float;
  tx_hypercall_cycles_per_packet : float;
  rx_virqs_per_packet : float;
  window_reclaims : int;
  window_pages_in_use : int;
}

let metric r name =
  match List.assoc_opt name r.Measure.metrics with Some v -> v | None -> 0.0

let window_batch ?(packets = 250) ?(windows = [ 512; 1024; 4096 ])
    ?(batches = [ 1; 2; 4; 8; 16 ]) () =
  let costs = Td_xen.Sys_costs.default in
  List.concat_map
    (fun window_pages ->
      List.map
        (fun batch ->
          let tuning =
            {
              Config.default_tuning with
              Config.map_window_pages = window_pages;
              notify_batch = batch;
            }
          in
          (* small pool: its packet buffers are pinned in the window and
             can never be reclaimed, so the sweep's smallest window must
             still hold them all (96 entries pin ~430 pages) while keeping
             unpinned slots free to reclaim; fewer entries starve the
             receive ring *)
          let wt =
            World.create ~nics:1 ~pool_entries:96 ~tuning Config.Xen_twin
          in
          let tx = Measure.run_transmit ~packets wt in
          let hypercalls = metric tx "xen.hypercall" in
          let wr =
            World.create ~nics:1 ~pool_entries:96 ~tuning Config.Xen_twin
          in
          let rx = Measure.run_receive ~packets wr in
          let virqs = metric rx "xen.virq" in
          (* soak the map window: touch [window_pages] distinct dom0 pages
             (each maps a pair, so the working set is twice the window) —
             the reclaim policy must absorb it without failing *)
          let rt = Option.get (World.svm wt) in
          let space = World.dom0_space wt in
          let base =
            Td_mem.Addr_space.heap_alloc space
              (window_pages * Td_mem.Layout.page_size)
          in
          for i = 0 to window_pages - 1 do
            ignore
              (Td_svm.Runtime.translate rt
                 (base + (i * Td_mem.Layout.page_size)))
          done;
          let n = float_of_int packets in
          {
            window_pages;
            batch;
            tx_cycles_per_packet = tx.Measure.cycles_per_packet;
            tx_hypercalls_per_packet = hypercalls /. n;
            tx_hypercall_cycles_per_packet =
              hypercalls
              *. float_of_int costs.Td_xen.Sys_costs.hypercall
              /. n;
            rx_virqs_per_packet = virqs /. n;
            window_reclaims = Td_svm.Runtime.window_reclaims rt;
            window_pages_in_use = Td_svm.Runtime.window_pages_in_use rt;
          })
        batches)
    windows

(* ---- doorbell / adaptive polling sweep ---- *)

type doorbell_point = {
  db_mode : string;
  offered_per_window : int;
  db_packets : int;
  db_cycles_total : int;
  db_cycles_per_packet : float;
  hypercalls_per_packet : float;
  virqs_per_packet : float;
  db_doorbell_polls : int;
  db_suppressed_hypercalls : int;
  db_suppressed_virqs : int;
  db_mode_switches : int;
  final_tx_mode : string;
  db_tx_lat_samples : int;
  db_rx_lat_samples : int;
  db_tx_p50 : float;
  db_tx_p99 : float;
  db_rx_p50 : float;
  db_rx_p99 : float;
}

let mode_name = function
  | Td_kernel.Xen_netio.Interrupt -> "interrupt"
  | Td_kernel.Xen_netio.Polling -> "polling"

let doorbell ?(windows = 60) ?(warmup_windows = 4)
    ?(loads = [ 0; 1; 4; 16; 64 ]) () =
  let payload = String.init 1500 (fun i -> Char.chr (i land 0xff)) in
  (* three notification disciplines over the same domU path: the seed's
     interrupt-driven channel, the adaptive doorbell (NAPI-style), and
     the always-poll upper bound *)
  let modes =
    [
      ("interrupt", Config.default_tuning);
      ("adaptive", { Config.default_tuning with Config.doorbell = true });
      ( "always-poll",
        {
          Config.default_tuning with
          Config.doorbell = true;
          poll_entry_kicks = 0;
        } );
    ]
  in
  List.concat_map
    (fun (db_mode, tuning) ->
      List.map
        (fun load ->
          let w = World.create ~nics:1 ~tuning Config.Xen_domU in
          (* one tick window: [load] frames with interrupt mitigation
             every 8, then the timer tick (which is also the adaptive
             state machine's window boundary) *)
          (* a receive leg at a quarter of the offered load, so the rx
             direction exercises its latency ledger and the adaptive
             machinery sees bidirectional traffic *)
          let rx_per_window = load / 4 in
          let run_window () =
            for i = 0 to load - 1 do
              ignore (World.transmit w ~nic:0 ~payload);
              if i mod 8 = 7 then World.pump w
            done;
            for _ = 1 to rx_per_window do
              World.inject_rx w ~nic:0 ~payload
            done;
            World.pump w;
            World.tick w
          in
          for _ = 1 to warmup_windows do
            run_window ()
          done;
          World.reset_measurement w;
          for _ = 1 to windows do
            run_window ()
          done;
          (* teardown invariant: quiescing the guest may leave a partial
             batch staged — shutdown must deliver it, and nothing may
             have been lost between frontend and backend *)
          World.shutdown w;
          if World.staged_frames w <> 0 then
            failwith "Experiments.doorbell: frames staged after shutdown";
          if not (World.netio_conserved w) then
            failwith "Experiments.doorbell: frame conservation violated";
          let packets = World.wire_tx_frames w in
          let led = World.ledger w in
          let cycles = Td_xen.Ledger.grand_total led in
          let pctl dir p =
            Option.value ~default:0.0 (Td_xen.Ledger.latency_percentile led dir p)
          in
          let hypercalls = Td_obs.Metrics.counter_value "xen.hypercall" in
          let virqs = Td_obs.Metrics.counter_value "xen.virq" in
          let per_pkt v =
            if packets = 0 then 0.0
            else float_of_int v /. float_of_int packets
          in
          {
            db_mode;
            offered_per_window = load;
            db_packets = packets;
            db_cycles_total = cycles;
            db_cycles_per_packet = per_pkt cycles;
            hypercalls_per_packet = per_pkt hypercalls;
            virqs_per_packet = per_pkt virqs;
            db_doorbell_polls =
              Td_obs.Metrics.counter_value "netio.doorbell_polls";
            db_suppressed_hypercalls = World.netio_suppressed_hypercalls w;
            db_suppressed_virqs = World.netio_suppressed_virqs w;
            db_mode_switches = World.netio_mode_switches w;
            final_tx_mode = mode_name (World.netio_tx_mode w ~nic:0);
            db_tx_lat_samples = Td_xen.Ledger.latency_count led `Tx;
            db_rx_lat_samples = Td_xen.Ledger.latency_count led `Rx;
            db_tx_p50 = pctl `Tx 50.;
            db_tx_p99 = pctl `Tx 99.;
            db_rx_p50 = pctl `Rx 50.;
            db_rx_p99 = pctl `Rx 99.;
          })
        loads)
    modes

(* ---- multi-queue NICs / sharded simulation ---- *)

type mq_queue_point = {
  mq_queues : int;
  mq_wire_frames : int;
  mq_wire_bytes : int;
  mq_elapsed_cycles : int;
  mq_total_cycles : int;
  mq_sim_mbps : float;
}

type mq_shard_point = { mq_shards : int; mq_wall_s : float; mq_digest : string }

type mq_report = {
  mq_points_queues : mq_queue_point list;
  mq_points_shards : mq_shard_point list;
  mq_speedup_at_4 : float;
  mq_ledger_bit_identical : bool;
  mq_single_queue_identical : bool;
}

let mq_flows = 1024

let mq_payloads ~frames =
  (* [mq_flows] distinct IPv4/UDP 4-tuples (source ports 1024..2047),
     frames round-robined over them so the RSS buckets come out
     near-equal and the elapsed-cycles max tracks the mean *)
  Array.init frames (fun i ->
      let f = i mod mq_flows in
      Td_nic.Rss.ipv4_udp_payload ~len:1500
        {
          Td_nic.Rss.src_ip = 0x0a000002;
          dst_ip = 0x0a000001;
          src_port = 1024 + f;
          dst_port = 80;
        })

(* One context's workload: a short warmup, measurement reset, then the
   doorbell bench's cadence (pump every 8 frames, tick every 64) and a
   full drain. Pure function of the payload array — the determinism the
   sharded digests rely on. *)
let mq_drive w payloads =
  let warm = Int.min 16 (Array.length payloads) in
  for i = 0 to warm - 1 do
    ignore (World.transmit w ~nic:0 ~payload:payloads.(i))
  done;
  World.pump w;
  World.reset_measurement w;
  Array.iteri
    (fun i p ->
      ignore (World.transmit w ~nic:0 ~payload:p);
      if i mod 8 = 7 then World.pump w;
      if i mod 64 = 63 then World.tick w)
    payloads;
  World.pump w;
  World.shutdown w

let mq_leg ?(clock = fun () -> 0.0) ~queues ~shards ~frames () =
  let tuning = { Config.default_tuning with Config.queues; shards } in
  let mq = Mq.create ~nics:1 ~tuning Config.Xen_domU in
  let payloads = mq_payloads ~frames in
  let buckets = Array.make queues [] in
  Array.iter
    (fun p ->
      let q = Mq.queue_of_payload mq p in
      buckets.(q) <- p :: buckets.(q))
    payloads;
  let buckets = Array.map (fun l -> Array.of_list (List.rev l)) buckets in
  let t0 = clock () in
  ignore (Mq.run mq ~job:(fun ~queue w -> mq_drive w buckets.(queue)));
  let wall = clock () -. t0 in
  (mq, wall)

let multiqueue ?(clock = fun () -> 0.0) () =
  let frames = 2048 in
  (* leg A: simulated-throughput scaling with the queue count, always
     sequential — the simulated numbers may not depend on the host *)
  let mq_points_queues =
    List.map
      (fun queues ->
        let mq, _ = mq_leg ~queues ~shards:1 ~frames () in
        let bytes = Mq.wire_tx_bytes mq in
        let elapsed = Mq.elapsed_cycles mq in
        let sim_s = float_of_int elapsed /. 3e9 in
        {
          mq_queues = queues;
          mq_wire_frames = Mq.wire_tx_frames mq;
          mq_wire_bytes = bytes;
          mq_elapsed_cycles = elapsed;
          mq_total_cycles = Mq.total_cycles mq;
          mq_sim_mbps =
            (if sim_s = 0. then 0.
             else float_of_int (bytes * 8) /. sim_s /. 1e6);
        })
      [ 1; 2; 4; 8 ]
  in
  (* leg B: host wall-clock and ledger digests across shard counts at
     the full queue fan-out *)
  let mq_points_shards =
    List.map
      (fun shards ->
        let mq, wall = mq_leg ~clock ~queues:8 ~shards ~frames () in
        {
          mq_shards = shards;
          mq_wall_s = wall;
          mq_digest = Td_xen.Ledger.digest (Mq.merged_ledger mq);
        })
      [ 1; 2; 4 ]
  in
  let mq_ledger_bit_identical =
    match mq_points_shards with
    | [] -> true
    | p :: rest -> List.for_all (fun q -> String.equal p.mq_digest q.mq_digest) rest
  in
  let wall_of s =
    List.find_opt (fun p -> p.mq_shards = s) mq_points_shards
  in
  let mq_speedup_at_4 =
    match (wall_of 1, wall_of 4) with
    | Some a, Some b when b.mq_wall_s > 0. -> a.mq_wall_s /. b.mq_wall_s
    | _ -> 0.0
  in
  (* leg C: with the feature off (one queue, one shard) the aggregate
     must be indistinguishable from a plain unsharded world driving the
     identical payload sequence *)
  let mq_single_queue_identical =
    let mq, _ = mq_leg ~queues:1 ~shards:1 ~frames () in
    let payloads = mq_payloads ~frames in
    let w = World.create ~nics:1 ~guests:1 Config.Xen_domU in
    (* same Shard.run wrapper, so the observability discipline matches *)
    ignore (Shard.run ~shards:1 [| (fun () -> mq_drive w payloads) |]);
    String.equal
      (Td_xen.Ledger.digest (Mq.merged_ledger mq))
      (Td_xen.Ledger.digest (World.ledger w))
    && Mq.wire_tx_frames mq = World.wire_tx_frames w
  in
  {
    mq_points_queues;
    mq_points_shards;
    mq_speedup_at_4;
    mq_ledger_bit_identical;
    mq_single_queue_identical;
  }

(* ---- ablations ---- *)

type ablation = { label : string; tx_cpu_scaled_mbps : float; note : string }

let ablations ?(packets = 400) () =
  let tx ?spill_everything ?rewrite_style ?cache_probes label note =
    let w =
      World.create ~nics:5 ?spill_everything ?rewrite_style ?cache_probes
        Config.Xen_twin
    in
    let r = Measure.run_transmit ~packets w in
    { label; tx_cpu_scaled_mbps = r.Measure.cpu_limited_mbps; note }
  in
  let baseline = tx "inline fast path (paper)" "liveness-allocated scratch" in
  let cached =
    tx ~cache_probes:true "probe caching (extension)"
      "reuses ~10% of probes but pinning the register costs spills: a wash \
       on this call-heavy driver"
  in
  let spill =
    tx ~spill_everything:true "always-spill" "no liveness analysis (fn. 3)"
  in
  let helper =
    tx ~rewrite_style:Td_rewriter.Rewrite.Shared_helper "shared helper"
      "call __svm_translate per access instead of inline probe"
  in
  let single_page =
    (* single-page mapping: survives only if no access straddles *)
    match
      let w = World.create ~nics:5 ~map_pairs:false Config.Xen_twin in
      Measure.run_transmit ~packets w
    with
    | r ->
        {
          label = "single-page mapping";
          tx_cpu_scaled_mbps = r.Measure.cpu_limited_mbps;
          note = "no straddling access hit a page boundary this run";
        }
    | exception World.Driver_aborted reason ->
        {
          label = "single-page mapping";
          tx_cpu_scaled_mbps = 0.0;
          note = "driver aborted: " ^ reason;
        }
    | exception Td_mem.Addr_space.Page_fault _ ->
        {
          label = "single-page mapping";
          tx_cpu_scaled_mbps = 0.0;
          note = "unhandled page fault on straddling access";
        }
  in
  [ baseline; cached; spill; helper; single_page ]

(* ---- fault-injection recovery sweep ---- *)

type recovery_point = {
  policy : Config.recovery;
  fault_rate : float;
  offered : int;
  delivered : int;
  aborted : int;
  refused : int;
  availability : float;
  injected : int;
  recoveries : int;
  replayed : int;
  lost : int;
  tx_lost : int;
  contained : int;
  guest_faults : int;
  frames_to_recover : float option;
  failed : (int * string) list;
}

(* Per-site rates derived from one knob. The knob is the probability per
   *coarse* opportunity (a frame-ish unit of work); sites whose
   opportunities occur much more often are scaled down so each class
   still fires but no class dominates:
   - interp_bitflip fires per executed instruction (hundreds per frame);
   - svm_wild_access fires per SVM slow-path miss (rare after the stlb
     warms up), so it is scaled *up* to keep the class represented. *)
let soak_plan ~seed rate =
  {
    Td_fault.seed;
    svm_wild_access = min 0.5 (rate *. 50.0);
    interp_bitflip = rate /. 500.0;
    nic_stuck_dma = rate /. 4.0;
    nic_lost_irq = rate;
    nic_corrupt_rx = rate;
    upcall_fail = rate;
  }

(* a soak counts the aborts and refusals its calls raise *)
let counting ~aborted ~refused f =
  try f () with
  | World.Driver_aborted _ -> incr aborted
  | World.Nic_quarantined _ -> incr refused

let recovery_soak ?(frames = 2_000) ?(seed = 42) ~policy ~rate () =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = policy;
      fault_plan = (if rate > 0.0 then Some (soak_plan ~seed rate) else None);
    }
  in
  (* a demoted fast-path routine keeps the upcall site hot on every
     transmit; the world boots with its fault engine suspended, so boot
     is never perturbed *)
  let w =
    World.create ~nics:5 ~upcall_set:[ "spin_trylock" ] ~tuning
      Config.Xen_twin
  in
  let payload = String.init 1500 (fun i -> Char.chr (i land 0xff)) in
  let nics = World.nic_count w in
  let aborted = ref 0 and refused = ref 0 and contained = ref 0 in
  let housekeeping = counting ~aborted:contained ~refused:contained in
  for i = 0 to frames - 1 do
    counting ~aborted ~refused (fun () ->
        ignore (World.transmit w ~nic:(i mod nics) ~payload));
    (* keep the receive path hot too: its losses are counted in
       fault.lost_frames, not in TX availability *)
    if i mod 16 = 15 then begin
      housekeeping (fun () ->
          World.inject_rx w ~nic:(i mod nics) ~payload:"rx probe");
      housekeeping (fun () -> World.pump w)
    end;
    (* frequent ticks bound the watchdog's hang-detection latency and
       with it the frames lost to a stuck TX DMA engine *)
    if i mod 2 = 1 then housekeeping (fun () -> World.tick w)
  done;
  housekeeping (fun () -> World.pump w);
  (* teardown invariant: nothing the soak staged may still be parked
     on an I/O channel, and every staged frame must be accounted for
     (completed or counted as dropped) after a full drain *)
  housekeeping (fun () -> World.shutdown w);
  if World.staged_frames w <> 0 then
    failwith "Experiments.recovery_soak: frames staged after shutdown";
  if not (World.netio_conserved w) then
    failwith "Experiments.recovery_soak: frame conservation violated";
  let delivered = World.wire_tx_frames w in
  let recoveries = World.recoveries w in
  {
    policy;
    fault_rate = rate;
    offered = frames;
    delivered;
    aborted = !aborted;
    refused = !refused;
    availability = float_of_int delivered /. float_of_int (Int.max 1 frames);
    injected = World.fault_injected w;
    recoveries;
    replayed = World.replayed_frames w;
    lost = Td_fault.Engine.lost_frames (World.fault_engine w);
    tx_lost = World.tx_lost_frames w;
    contained = !contained;
    guest_faults = World.guest_faults w;
    frames_to_recover =
      (if recoveries = 0 then None
       else Some (float_of_int (frames - delivered) /. float_of_int recoveries));
    failed =
      List.init nics (fun nic -> (nic, World.port_state w ~nic))
      |> List.filter_map (function
           | nic, World.Failed reason -> Some (nic, reason)
           | _, (World.Serving | World.Recovering) -> None);
  }

let recovery_sweep ?(frames = 2_000) ?(rates = [ 0.0; 0.002; 0.01 ])
    ?(policies = Config.all_recoveries) ?(seed = 42) () =
  List.concat_map
    (fun policy ->
      List.map (fun rate -> recovery_soak ~frames ~seed ~policy ~rate ()) rates)
    policies

(* ---- N-domain fleet scenarios (docs/FLEET.md) ---- *)

type fleet_shape = Bulk_stream | Rpc_burst | Incast

type fleet_report = {
  fl_domains : int;
  fl_frames : int;
  fl_offered_tx : int;
  fl_delivered_tx : int;
  fl_rx_injected : int;
  fl_rx_delivered : int;
  fl_availability : float;
  fl_throttled : int;
  fl_injected : int;
  fl_recoveries : int;
  fl_contained : int;
  fl_churned : int;
  fl_live_at_end : int;
  fl_tx_p50 : float;
  fl_tx_p99 : float;
  fl_tx_p999 : float;
  fl_rx_p50 : float;
  fl_rx_p99 : float;
  fl_rx_p999 : float;
  fl_conserved : bool;
  fl_staged_after_shutdown : int;
  fl_dangling_doorbells : int;
  fl_digest : string;
  fl_deterministic : bool;
  fl_frames_allocated : int;
  fl_frames_resident : int;
}

(* every per-run number a reader could gate on goes into the digest, so
   "bit-identical digests" means the whole observable run matched *)
let fleet_digest w ~offered_tx ~rx_injected =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  Buffer.add_string b (Td_xen.Ledger.digest (World.ledger w));
  add "wire=%d/%d;" (World.wire_tx_frames w) (World.wire_tx_bytes w);
  add "rx=%d/%d;" (World.delivered_rx_frames w) (World.delivered_rx_bytes w);
  add "offered=%d;injected_rx=%d;" offered_tx rx_injected;
  add "throttled=%d;faults=%d;recoveries=%d;" (World.quota_throttled w)
    (World.fault_injected w) (World.recoveries w);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One fleet soak on a fresh world. All pacing comes from a private
   xorshift32 stream seeded by [seed], the quota clock is ledger cycles
   and the fault engine is per-world, so a rerun with the same arguments
   reproduces the run bit for bit. *)
let fleet_run ~domains ~frames ~nics ~seed ~churn ~quota ~fault_rate () =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = Config.Restart_replay;
      doorbell = true;
      quota =
        (if quota then
           (* the boot guest carries one channel per NIC (~66 grant
              entries each), so the fleet raises the concurrency cap the
              single-channel default assumes; the rate caps that police
              the soak are unchanged *)
           Some { Td_xen.Quota.default_limits with grant_entries = 512 }
         else None);
      fault_plan =
        (if fault_rate > 0.0 then Some (soak_plan ~seed fault_rate) else None);
    }
  in
  let w = World.create ~nics ~guests:1 ~tuning Config.Xen_domU in
  for _ = 2 to domains do
    ignore (World.create_guest w)
  done;
  let rng = ref (seed lor 1) in
  let rand bound =
    let x = !rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = (x lxor (x lsl 5)) land 0x3FFFFFFF in
    rng := x;
    x mod bound
  in
  let bulk = String.init 1500 (fun i -> Char.chr (i land 0xff)) in
  let rpc = String.make 64 'r' in
  let fanin = String.make 128 'i' in
  let shape_of g = match g mod 3 with
    | 0 -> Bulk_stream
    | 1 -> Rpc_burst
    | _ -> Incast
  in
  let offered_tx = ref 0 and rx_injected = ref 0 and churned = ref 0 in
  let moved () = !offered_tx + !rx_injected in
  let caught = ref 0 in
  let contained = counting ~aborted:caught ~refused:caught in
  let tx g payload =
    incr offered_tx;
    contained (fun () -> ignore (World.transmit_from w ~guest:g ~payload))
  in
  let churn_every =
    if churn > 0 then max 1 (frames / (churn + 1)) else max_int
  in
  let next_churn = ref churn_every in
  let round = ref 0 in
  while moved () < frames do
    incr round;
    for g = 0 to World.guest_slots w - 1 do
      if World.guest_alive w ~guest:g then
        match shape_of g with
        | Bulk_stream -> tx g bulk
        | Rpc_burst ->
            (* bursty RPC: a run of small frames roughly every 4th round *)
            if rand 4 = 0 then
              for _ = 1 to 8 do
                tx g rpc
              done
        | Incast ->
            (* fan-in: two wire arrivals per round converge on this guest *)
            for _ = 1 to 2 do
              incr rx_injected;
              contained (fun () ->
                  World.inject_rx ~guest:g w ~nic:(g mod nics) ~payload:fanin)
            done
    done;
    contained (fun () -> World.pump w);
    (* a tick per round keeps the watchdog's hang-detection latency — and
       with it the frames a wedged TX DMA engine can strand — bounded to
       a few rounds of traffic *)
    contained (fun () -> World.tick w);
    (* domain churn: destroy a random live non-boot guest and (slots
       permitting — they are never reused) start a replacement *)
    if moved () >= !next_churn && churn > 0 then begin
      next_churn := !next_churn + churn_every;
      let live =
        List.filter
          (fun g -> g > 0 && World.guest_alive w ~guest:g)
          (List.init (World.guest_slots w) Fun.id)
      in
      match live with
      | [] -> ()
      | _ ->
          let victim = List.nth live (rand (List.length live)) in
          World.destroy_guest w ~guest:victim;
          if World.guest_slots w < 256 then ignore (World.create_guest w);
          incr churned
    end
  done;
  contained (fun () -> World.pump w);
  contained (fun () -> World.tick w);
  contained (fun () -> World.shutdown w);
  let led = World.ledger w in
  let pct dir p =
    Option.value ~default:0.0 (Td_xen.Ledger.latency_percentile led dir p)
  in
  let live = World.guest_count w in
  let phys = Td_mem.Addr_space.phys (World.dom0_space w) in
  let live_doorbells =
    (* one doorbell page per open channel (tuning.doorbell is on) *)
    World.doorbell_pages_mapped w
  in
  let open_channels = ref 0 in
  for g = 0 to World.guest_slots w - 1 do
    if World.guest_alive w ~guest:g then
      open_channels := !open_channels + (if g = 0 then nics else 1)
  done;
  {
    fl_domains = domains;
    fl_frames = moved ();
    fl_offered_tx = !offered_tx;
    fl_delivered_tx = World.wire_tx_frames w;
    fl_rx_injected = !rx_injected;
    fl_rx_delivered = World.delivered_rx_frames w;
    fl_availability =
      float_of_int (World.wire_tx_frames w) /. float_of_int (Int.max 1 !offered_tx);
    fl_throttled = World.quota_throttled w;
    fl_injected = World.fault_injected w;
    fl_recoveries = World.recoveries w;
    fl_contained = !caught;
    fl_churned = !churned;
    fl_live_at_end = live;
    fl_tx_p50 = pct `Tx 50.;
    fl_tx_p99 = pct `Tx 99.;
    fl_tx_p999 = pct `Tx 99.9;
    fl_rx_p50 = pct `Rx 50.;
    fl_rx_p99 = pct `Rx 99.;
    fl_rx_p999 = pct `Rx 99.9;
    fl_conserved = World.netio_conserved w;
    fl_staged_after_shutdown = World.staged_frames w;
    fl_dangling_doorbells = Int.max 0 (live_doorbells - !open_channels);
    fl_digest = fleet_digest w ~offered_tx:!offered_tx ~rx_injected:!rx_injected;
    fl_deterministic = true;
    fl_frames_allocated = Td_mem.Phys_mem.frames_allocated phys;
    fl_frames_resident = Td_mem.Phys_mem.frames_resident phys;
  }

let fleet ?(domains = 200) ?(frames = 1_000_000) ?(nics = 4) ?(seed = 7)
    ?(churn = 32) ?(quota = true) ?(fault_rate = 2e-5) ?(runs = 2) () =
  if domains < 1 || domains > 256 then
    invalid_arg "Experiments.fleet: domains must be 1..256 (slots cap)";
  let first =
    fleet_run ~domains ~frames ~nics ~seed ~churn ~quota ~fault_rate ()
  in
  let deterministic = ref true in
  for _ = 2 to Int.max 1 runs do
    let again =
      fleet_run ~domains ~frames ~nics ~seed ~churn ~quota ~fault_rate ()
    in
    if not (String.equal again.fl_digest first.fl_digest) then
      deterministic := false
  done;
  { first with fl_deterministic = !deterministic }
