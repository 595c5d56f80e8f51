(* End-to-end tests over the four full system configurations: packet
   delivery fidelity, driver statistics, safety containment, upcalls,
   virtual-interrupt deferral, housekeeping paths. *)

open Twindrivers

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let payload = "GET /index.html HTTP/1.0\r\n" ^ String.make 800 'q'

(* --- transmit fidelity: the exact bytes appear on the wire --- *)

let test_tx_fidelity cfg () =
  let w = World.create ~nics:2 cfg in
  check bool_c "transmit accepted" true (World.transmit w ~nic:1 ~payload);
  World.pump w;
  check int_c "one frame on the wire" 1 (World.wire_tx_frames w);
  check int_c "frame bytes = eth header + payload"
    (14 + String.length payload)
    (World.wire_tx_bytes w);
  let a = World.adapter w ~nic:1 in
  check int_c "driver counted it" 1 (Td_driver.Adapter.tx_packets a);
  check bool_c "lock released" false (Td_driver.Adapter.lock_held a)

(* --- receive fidelity: payload delivered byte-exact to the consumer --- *)

let test_rx_fidelity cfg () =
  let w = World.create ~nics:2 cfg in
  World.inject_rx w ~nic:0 ~payload;
  World.pump w;
  check int_c "delivered" 1 (World.delivered_rx_frames w);
  check bool_c "payload intact" true (World.rx_last_payload w = Some payload);
  let a = World.adapter w ~nic:0 in
  check int_c "driver rx count" 1 (Td_driver.Adapter.rx_packets a)

(* --- sustained bidirectional traffic, multiple NICs --- *)

let test_sustained cfg () =
  let w = World.create ~nics:3 cfg in
  let n = 150 in
  for i = 0 to n - 1 do
    ignore (World.transmit w ~nic:(i mod 3) ~payload);
    World.inject_rx w ~nic:(i mod 3) ~payload;
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  check int_c "all transmitted" n (World.wire_tx_frames w);
  check int_c "all received" n (World.delivered_rx_frames w)

(* --- twin specifics --- *)

let test_twin_no_switch_on_data_path () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let h = Option.get (World.hypervisor w) in
  World.reset_measurement w;
  let sw = Td_xen.Hypervisor.switches h in
  for _ = 1 to 20 do
    ignore (World.transmit w ~nic:0 ~payload)
  done;
  World.pump w;
  (* the whole point of TwinDrivers: no domain switch per packet *)
  check int_c "no world switches on tx fast path" sw
    (Td_xen.Hypervisor.switches h)

(* Set-up writes almost nothing: the sk_buff pool and its fragment frames
   stay on the shared zero page until traffic touches them. A memset in a
   pool constructor, or any other eager writer, trips this. *)
let test_twin_setup_leaves_frames_shared () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let phys = Td_mem.Addr_space.phys (World.dom0_space w) in
  let allocated = Td_mem.Phys_mem.frames_allocated phys in
  let resident = Td_mem.Phys_mem.frames_resident phys in
  check bool_c (Printf.sprintf "%d frames allocated >= 1600" allocated) true
    (allocated >= 1600);
  check bool_c (Printf.sprintf "%d frames resident <= 64" resident) true
    (resident <= 64)

(* Host allocation per MTU transmit, after warm-up, with observability
   off: the frame goes from the caller's payload to the wire only through
   simulated memory, so no step copies it into an OCaml value. A 1514 B
   copy costs 191 words, so one reintroduced copy breaks either budget. *)
let tx_words_per_frame cfg =
  let w = World.create ~nics:1 cfg in
  let payload = String.make 1500 'm' in
  let run n =
    for i = 1 to n do
      ignore (World.transmit w ~nic:0 ~payload);
      if i mod 8 = 0 then World.pump w
    done
  in
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  run 64;
  let before = Gc.minor_words () in
  run 256;
  let words = (Gc.minor_words () -. before) /. 256. in
  if was_on then Td_obs.Control.enable ();
  check int_c "every frame on the wire" 320 (World.wire_tx_frames w);
  words

let test_tx_allocation_budget () =
  let twin = tx_words_per_frame Config.Xen_twin in
  check bool_c (Printf.sprintf "twin: %.1f words/frame < 120" twin) true
    (twin < 120.);
  let domu = tx_words_per_frame Config.Xen_domU in
  check bool_c (Printf.sprintf "domU: %.1f words/frame < 88" domu) true
    (domu < 88.)

(* Host allocation per 64 B domU receive, after warm-up, at the
   domu-rx-small cadence (a pump every four frames, then the consumer
   pops): netback, the bridge, the grant copy and netfront move the frame
   through simulated memory and fixed rings, so the payload string the
   consumer pops is the only per-frame copy. One more 64 B frame copy
   (11 words) or a queue of tuples on the staged ring (8 words) breaks
   the budget, as a queue of tuples on the transmit ring breaks the domU
   transmit one. *)
let test_rx_allocation_budget () =
  let w = World.create ~nics:1 Config.Xen_domU in
  let payload = String.make 64 'r' in
  let popped = ref 0 in
  let run n =
    for i = 1 to n do
      World.inject_rx w ~nic:0 ~payload;
      if i mod 4 = 0 then begin
        World.pump w;
        let rec drain () =
          match World.rx_pop w with
          | Some _ ->
              incr popped;
              drain ()
          | None -> ()
        in
        drain ()
      end
    done
  in
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  run 64;
  let before = Gc.minor_words () in
  run 256;
  let words = (Gc.minor_words () -. before) /. 256. in
  if was_on then Td_obs.Control.enable ();
  check int_c "every frame popped" 320 !popped;
  check bool_c (Printf.sprintf "domU rx: %.1f words/frame < 78" words) true
    (words < 78.)

(* --- the receive queue: an array ring that grows to rx_queue_capacity --- *)

(* a 64 B payload that names its frame *)
let rx_frame i = Printf.sprintf "frame-%05d-" i ^ String.make 52 'q'

let pop_all w =
  let rec go acc =
    match World.rx_pop w with Some p -> go (p :: acc) | None -> List.rev acc
  in
  go []

(* Deliveries with nobody popping fill the queue to its capacity, 4,096;
   the one after is counted as a drop, and the queue still holds the
   first 4,096 in order. *)
let test_rx_queue_capacity () =
  let w = World.create ~nics:1 Config.Xen_domU in
  for i = 0 to 4096 do
    World.inject_rx w ~nic:0 ~payload:(rx_frame i);
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  check int_c "every frame delivered" 4097 (World.delivered_rx_frames w);
  check int_c "exactly one dropped" 1 (World.rx_drops w);
  check bool_c "the first 4,096 queued, in order" true
    (pop_all w = List.init 4096 rx_frame)

(* A consumer that lags more and more: the ring wraps (its head moves
   off slot 0) before each growth, and the payloads still come out in
   delivery order. *)
let test_rx_queue_order_across_growth () =
  let w = World.create ~nics:1 Config.Xen_domU in
  let sent = ref 0 and popped = ref [] in
  for round = 1 to 40 do
    for _ = 1 to round do
      World.inject_rx w ~nic:0 ~payload:(rx_frame !sent);
      incr sent
    done;
    World.pump w;
    for _ = 1 to round / 2 do
      match World.rx_pop w with
      | Some p -> popped := p :: !popped
      | None -> Alcotest.fail "queue empty too early"
    done
  done;
  let popped = List.rev_append !popped (pop_all w) in
  check int_c "no drops" 0 (World.rx_drops w);
  check bool_c "delivery order" true (popped = List.init !sent rx_frame)

let test_rx_queue_reset () =
  let w = World.create ~nics:1 Config.Xen_domU in
  for i = 0 to 9 do
    World.inject_rx w ~nic:0 ~payload:(rx_frame i)
  done;
  World.pump w;
  World.reset_measurement w;
  check (Alcotest.option Alcotest.string) "emptied" None (World.rx_pop w);
  World.inject_rx w ~nic:0 ~payload:(rx_frame 10);
  World.pump w;
  check (Alcotest.list Alcotest.string) "only what came after" [ rx_frame 10 ]
    (pop_all w)

(* The twin path's per-guest pending queues share the ring: three guests,
   interleaved arrivals and pumps, and the consumer sees the order the
   scheduler delivered them in before the queues were rings. *)
let test_twin_pending_order () =
  let w = World.create ~nics:1 ~guests:3 Config.Xen_twin in
  for i = 0 to 23 do
    let g = ((i * i) + (i / 5)) mod 3 in
    World.inject_rx ~guest:g w ~nic:0 ~payload:(Printf.sprintf "g%d-%02d" g i);
    if i mod 7 = 6 then World.pump w
  done;
  World.pump w;
  check Alcotest.string "delivery order"
    "g0-00;g0-03;g1-01;g1-02;g1-04;g1-06;g2-05;g0-10;g0-11;g0-13;g1-09;g2-07;\
     g2-08;g2-12;g0-14;g0-15;g0-18;g1-16;g1-17;g1-19;g2-20;g1-21;g2-22;g2-23"
    (String.concat ";" (pop_all w))

let test_twin_upcalls_when_demoted () =
  let w =
    World.create ~nics:1 ~upcall_set:[ "spin_trylock"; "spin_unlock_irqrestore" ]
      Config.Xen_twin
  in
  let h = Option.get (World.hypervisor w) in
  World.reset_measurement w;
  let sw = Td_xen.Hypervisor.switches h in
  ignore (World.transmit w ~nic:0 ~payload);
  let sup = World.support w in
  check bool_c "spin_trylock upcalled" true
    (Td_kernel.Support.upcalls sup "spin_trylock" >= 1);
  check bool_c "dma stays native" true
    (Td_kernel.Support.upcalls sup "dma_map_single" = 0);
  check bool_c "upcalls forced world switches" true
    (Td_xen.Hypervisor.switches h > sw);
  (* functionality is preserved *)
  World.pump w;
  check int_c "frame still sent" 1 (World.wire_tx_frames w)

let test_twin_vif_defers_interrupt () =
  let w = World.create ~nics:1 Config.Xen_twin in
  World.mask_dom0_interrupts w;
  World.inject_rx w ~nic:0 ~payload;
  World.pump w;
  check int_c "delivery deferred while dom0 masks interrupts" 0
    (World.delivered_rx_frames w);
  World.unmask_dom0_interrupts w;
  check int_c "delivered after unmask" 1 (World.delivered_rx_frames w)

let test_twin_pool_exhaustion_drops () =
  (* a pool too small to keep refilling the receive ring: the hypervisor's
     netdev_alloc_skb returns NULL and the driver must drop gracefully
     (reusing the in-place buffer), not crash *)
  let w = World.create ~nics:1 ~pool_entries:4 Config.Xen_twin in
  for _ = 1 to 20 do
    World.inject_rx w ~nic:0 ~payload
  done;
  World.pump w;
  let a = World.adapter w ~nic:0 in
  check bool_c "some packets dropped for want of buffers" true
    (Td_driver.Adapter.rx_alloc_fail a > 0);
  check bool_c "others delivered" true (World.delivered_rx_frames w > 0);
  check bool_c "pool exhaustion recorded" true
    (Td_kernel.Skb_pool.exhaustions (Option.get (World.pool w)) > 0);
  (* the machine survives: further traffic (the transmit may be refused —
     the remaining pool buffers are parked in the receive ring — but
     nothing crashes) *)
  ignore (World.transmit w ~nic:0 ~payload);
  World.inject_rx w ~nic:0 ~payload;
  World.pump w;
  check bool_c "machine still alive" true true

let test_twin_stats_and_svm_activity () =
  let w = World.create ~nics:1 Config.Xen_twin in
  World.reset_measurement w;
  for i = 0 to 19 do
    ignore (World.transmit w ~nic:0 ~payload);
    World.inject_rx w ~nic:0 ~payload;
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  let rt = Option.get (World.svm w) in
  check bool_c "no SVM faults in error-free operation" true
    (Td_svm.Runtime.faults rt = 0);
  check bool_c "translations installed" true (Td_svm.Runtime.pages_mapped rt > 0);
  let stats = Option.get (World.twin_stats w) in
  check bool_c "rewrite touched many sites" true
    (stats.Td_rewriter.Rewrite.heap_sites > 50)

let test_twin_fast_path_support_calls_in_hyp () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let sup = World.support w in
  Td_kernel.Support.reset_counts sup;
  for i = 0 to 7 do
    ignore (World.transmit w ~nic:0 ~payload);
    World.inject_rx w ~nic:0 ~payload;
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  (* data-path support work happened in the hypervisor, with no upcalls *)
  check bool_c "hyp netif_rx" true (Td_kernel.Support.hyp_calls sup "netif_rx" > 0);
  check bool_c "hyp dma_map_single" true
    (Td_kernel.Support.hyp_calls sup "dma_map_single" > 0);
  check bool_c "hyp eth_type_trans" true
    (Td_kernel.Support.hyp_calls sup "eth_type_trans" > 0);
  check int_c "zero upcalls" 0 (Td_kernel.Support.total_upcalls sup)

(* --- housekeeping runs in dom0 (the VM instance, for twin) --- *)

let test_watchdog_and_config cfg () =
  let w = World.create ~nics:1 cfg in
  World.run_watchdog w ~nic:0;
  World.run_watchdog w ~nic:0;
  let a = World.adapter w ~nic:0 in
  check int_c "watchdog ran twice" 2 (Td_driver.Adapter.watchdog_runs a);
  World.run_set_mtu w ~nic:0 ~mtu:1200;
  check int_c "mtu reconfigured" 1200
    (Td_kernel.Netdev.mtu (World.netdev w ~nic:0));
  (* config path exercised tail support routines (in dom0, never hyp) *)
  let sup = World.support w in
  check bool_c "netif_stop_queue used by config path" true
    (Td_kernel.Support.dom0_calls sup "netif_stop_queue" > 0);
  check int_c "no hyp call for config routines" 0
    (Td_kernel.Support.hyp_calls sup "netif_stop_queue")

(* --- domU baseline specifics --- *)

let test_rx_mode_config cfg () =
  (* the multicast/promiscuous configuration path: MTA cleared by a
     rewritten rep stosl (on the twin's VM instance), RCTL bit flipped *)
  let w = World.create ~nics:1 cfg in
  let mmio = Td_kernel.Netdev.mmio_base (World.netdev w ~nic:0) in
  let reg off =
    Td_mem.Addr_space.read (World.dom0_space w) (mmio + off) Td_misa.Width.W32
  in
  World.run_set_rx_mode w ~nic:0 ~promisc:true;
  check bool_c "promiscuous set" true (reg Td_nic.Regs.rctl land 8 <> 0);
  check int_c "mta entry hashed in" 1 (reg (Td_nic.Regs.mta + 4));
  World.run_set_rx_mode w ~nic:0 ~promisc:false;
  check bool_c "promiscuous cleared" true (reg Td_nic.Regs.rctl land 8 = 0);
  (* config work never entered the hypervisor *)
  check int_c "rtnl_lock stayed in dom0" 0
    (Td_kernel.Support.hyp_calls (World.support w) "rtnl_lock")

let test_stats_string_copy cfg () =
  (* e1000_get_stats copies the statistics block with rep movsl — a
     rewritten string operation on the twin's VM instance *)
  let w = World.create ~nics:1 cfg in
  for i = 0 to 4 do
    ignore (World.transmit w ~nic:0 ~payload);
    World.inject_rx w ~nic:0 ~payload;
    if i mod 2 = 1 then World.pump w
  done;
  World.pump w;
  let stats = World.read_stats w ~nic:0 in
  check int_c "tx_packets via string copy" 5 stats.(0);
  check int_c "rx_packets via string copy" 5 stats.(2);
  check bool_c "tx_bytes plausible" true (stats.(1) >= 5 * String.length payload)

let test_timer_driven_watchdog cfg () =
  (* the dom0 timer wheel drives the watchdog; 35 ticks = 3 firings *)
  let w = World.create ~nics:2 cfg in
  for _ = 1 to 35 do
    World.tick w
  done;
  let a = World.adapter w ~nic:0 in
  check int_c "watchdog fired on schedule" 3 (Td_driver.Adapter.watchdog_runs a);
  let b = World.adapter w ~nic:1 in
  check int_c "per-NIC timers" 3 (Td_driver.Adapter.watchdog_runs b)

let test_watchdog_indirect_call cfg () =
  (* the watchdog reaches the link-check routine through a function
     pointer in shared driver data *)
  let w = World.create ~nics:1 cfg in
  World.run_watchdog w ~nic:0;
  let a = World.adapter w ~nic:0 in
  check int_c "link seen up via indirect call" 1
    (Td_driver.Adapter.field a Td_driver.Adapter.o_link_up)

let test_twin_multi_guest_demux () =
  (* §5.3: the hypervisor demultiplexes received packets by destination
     MAC and queues each to the appropriate guest *)
  let w = World.create ~nics:1 ~guests:3 Config.Xen_twin in
  check int_c "three guests" 3 (World.guest_count w);
  for g = 0 to 2 do
    for _ = 1 to g + 1 do
      World.inject_rx ~guest:g w ~nic:0 ~payload
    done
  done;
  World.pump w;
  check int_c "guest0 got 1" 1 (World.delivered_rx_frames_to w ~guest:0);
  check int_c "guest1 got 2" 2 (World.delivered_rx_frames_to w ~guest:1);
  check int_c "guest2 got 3" 3 (World.delivered_rx_frames_to w ~guest:2);
  check int_c "total" 6 (World.delivered_rx_frames w);
  (* delivery to a non-running guest required world switches; guest0 is
     current so at least the others forced switches *)
  let h = Option.get (World.hypervisor w) in
  check bool_c "switched to deliver" true (Td_xen.Hypervisor.switches h > 0)

let test_domu_grant_machinery () =
  let w = World.create ~nics:1 Config.Xen_domU in
  World.reset_measurement w;
  for _ = 1 to 5 do
    ignore (World.transmit w ~nic:0 ~payload)
  done;
  World.pump w;
  check int_c "five frames" 5 (World.wire_tx_frames w);
  let h = Option.get (World.hypervisor w) in
  (* each packet needs at least two world switches (guest->dom0->guest) *)
  check bool_c "switches per packet" true (Td_xen.Hypervisor.switches h >= 10)

(* --- ledger sanity across configurations --- *)

(* the virtualisation overhead constants are Xen_dom0's alone: doubling
   one adds exactly its value per frame to Xen_dom0's Xen category and
   moves no other ledger *)
let test_virt_overhead_scope () =
  let frames = 8 in
  let ledger costs cfg =
    let w = World.create ~nics:1 ~costs cfg in
    World.reset_measurement w;
    for _ = 1 to frames do
      ignore (World.transmit w ~nic:0 ~payload);
      World.inject_rx w ~nic:0 ~payload;
      World.pump w
    done;
    check int_c "every frame delivered" frames (World.delivered_rx_frames w);
    List.map (Td_xen.Ledger.total (World.ledger w)) Td_xen.Ledger.categories
  in
  let base = Td_xen.Sys_costs.default in
  let doubled =
    [
      ( "tx",
        base.Td_xen.Sys_costs.virt_overhead_tx,
        {
          base with
          Td_xen.Sys_costs.virt_overhead_tx =
            2 * base.Td_xen.Sys_costs.virt_overhead_tx;
        } );
      ( "rx",
        base.Td_xen.Sys_costs.virt_overhead_rx,
        {
          base with
          Td_xen.Sys_costs.virt_overhead_rx =
            2 * base.Td_xen.Sys_costs.virt_overhead_rx;
        } );
    ]
  in
  List.iter
    (fun cfg ->
      let before = ledger base cfg in
      List.iter
        (fun (dir, delta, costs) ->
          let expected =
            List.map2
              (fun cat n ->
                if cfg = Config.Xen_dom0 && cat = Td_xen.Ledger.Xen then
                  n + (frames * delta)
                else n)
              Td_xen.Ledger.categories before
          in
          check (Alcotest.list int_c)
            (Printf.sprintf "%s ledger, virt_overhead_%s doubled"
               (Config.name cfg) dir)
            expected (ledger costs cfg))
        doubled)
    Config.all

let test_ledger_categories cfg () =
  let w = World.create ~nics:1 cfg in
  World.reset_measurement w;
  for i = 0 to 9 do
    ignore (World.transmit w ~nic:0 ~payload);
    World.inject_rx w ~nic:0 ~payload;
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  let l = World.ledger w in
  let get c = Td_xen.Ledger.total l c in
  check bool_c "driver cycles measured" true (get Td_xen.Ledger.Driver > 0);
  (match cfg with
  | Config.Native_linux ->
      check int_c "no Xen work on bare metal" 0 (get Td_xen.Ledger.Xen);
      check int_c "no guest" 0 (get Td_xen.Ledger.DomU)
  | Config.Xen_dom0 ->
      check bool_c "virtualisation overhead" true (get Td_xen.Ledger.Xen > 0);
      check int_c "no guest" 0 (get Td_xen.Ledger.DomU)
  | Config.Xen_domU ->
      check bool_c "guest work" true (get Td_xen.Ledger.DomU > 0);
      check bool_c "dom0 work" true (get Td_xen.Ledger.Dom0 > 0);
      check bool_c "xen work" true (get Td_xen.Ledger.Xen > 0)
  | Config.Xen_twin ->
      check bool_c "guest work" true (get Td_xen.Ledger.DomU > 0);
      check int_c "dom0 idle on data path" 0 (get Td_xen.Ledger.Dom0);
      check bool_c "xen work" true (get Td_xen.Ledger.Xen > 0))

(* --- measurement layer --- *)

let test_profiler_attribution () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let prof = Td_cpu.Profiler.attach (World.interp w) in
  for i = 0 to 19 do
    ignore (World.transmit w ~nic:0 ~payload);
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  let by_label = Td_cpu.Profiler.cycles_by_label prof in
  check bool_c "profiled something" true (Td_cpu.Profiler.total_cycles prof > 0);
  check bool_c "hypervisor instance hot" true
    (List.exists
       (fun (n, c) ->
         c > 0 && String.length n > 9 && String.sub n 0 9 = "e1000.hyp")
       by_label);
  (* entry points appear as regions *)
  check bool_c "xmit region present" true
    (List.mem_assoc "e1000.hyp:e1000_xmit_frame" by_label);
  Td_cpu.Profiler.reset prof;
  check int_c "reset" 0 (Td_cpu.Profiler.total_cycles prof)

(* The profile accounts for every cycle the interpreter spends, the last
   instruction's included, and attributing at block entries gives the
   same profile as watching one instruction at a time. *)
let test_profiler_exact_totals () =
  let run ~each =
    let w = World.create ~nics:1 Config.Xen_twin in
    let interp = World.interp w in
    let cycles () = (Td_cpu.Interp.state interp).Td_cpu.State.cycles in
    let prof = Td_cpu.Profiler.attach interp in
    if each then Td_cpu.Interp.observe_blocks interp (fun _ _ idx -> idx);
    let c0 = cycles () in
    let frames n =
      for i = 1 to n do
        ignore (World.transmit w ~nic:0 ~payload);
        if i mod 8 = 0 then World.pump w
      done;
      World.pump w
    in
    frames 20;
    check int_c "total is the cycle delta since attach" (cycles () - c0)
      (Td_cpu.Profiler.total_cycles prof);
    let by_label = Td_cpu.Profiler.cycles_by_label prof in
    Td_cpu.Profiler.reset prof;
    let c1 = cycles () in
    frames 5;
    check int_c "total is the cycle delta since reset" (cycles () - c1)
      (Td_cpu.Profiler.total_cycles prof);
    (* each world's rewrite numbers its generated labels afresh *)
    let unnumbered name =
      match String.rindex_opt name '_' with
      | Some i
        when int_of_string_opt
               (String.sub name (i + 1) (String.length name - i - 1))
             <> None ->
          String.sub name 0 i
      | _ -> name
    in
    List.sort compare (List.map (fun (n, c) -> (unnumbered n, c)) by_label)
  in
  let blocks = run ~each:false in
  check
    Alcotest.(list (pair string int))
    "block attribution equals per-instruction attribution" (run ~each:true)
    blocks

let test_measure_consistency () =
  let w = World.create ~nics:5 Config.Xen_twin in
  let r = Measure.run_transmit ~packets:120 w in
  check bool_c "throughput positive" true (r.Measure.throughput_mbps > 0.);
  check bool_c "cpu-scaled >= measured" true
    (r.Measure.cpu_limited_mbps >= r.Measure.throughput_mbps -. 1e-6);
  check bool_c "utilisation sane" true
    (r.Measure.cpu_utilisation > 0. && r.Measure.cpu_utilisation <= 1.0);
  check int_c "no drops" 0 r.Measure.drops;
  let total =
    List.fold_left (fun acc (_, v) -> acc +. v) 0. r.Measure.breakdown
  in
  check bool_c "breakdown sums to total" true
    (abs_float (total -. r.Measure.cycles_per_packet) < 1.0)

(* the NIC has one ring pair, so a multi-queue tuning is refused and the
   caller pointed at Mq, which runs one single-queue world per queue *)
let test_rejects_multi_queue_tuning () =
  List.iter
    (fun (queues, cfg) ->
      let tuning = { Config.default_tuning with Config.queues } in
      match World.create ~nics:1 ~tuning cfg with
      | exception Invalid_argument msg ->
          check bool_c "message points at Mq.create" true
            (List.mem "Mq.create" (String.split_on_char ' ' msg))
      | _ ->
          Alcotest.failf "%s: World.create accepted tuning.queues = %d"
            (Config.name cfg) queues)
    ((8, Config.Xen_domU) :: List.map (fun cfg -> (2, cfg)) Config.all)

(* the guards that keep each configuration's state to its own path:
   typed errors, never a crash on state the configuration does not have *)
let config_error f =
  match f () with exception World.Config_error _ -> true | _ -> false

let test_create_guest_needs_guest_path () =
  List.iter
    (fun cfg ->
      let w = World.create ~nics:1 cfg in
      check bool_c
        (Config.name cfg ^ ": create_guest refused")
        true
        (config_error (fun () -> World.create_guest w));
      check int_c "registry untouched" 0 (World.guest_slots w))
    [ Config.Native_linux; Config.Xen_dom0 ]

let test_transmit_from_needs_domu () =
  let w = World.create ~nics:1 Config.Xen_twin in
  check bool_c "twin transmit_from refused" true
    (config_error (fun () -> World.transmit_from w ~guest:0 ~payload));
  check int_c "nothing on the wire" 0 (World.wire_tx_frames w)

let test_create_guest_rejects_bad_nic () =
  List.iter
    (fun cfg ->
      let w = World.create ~nics:2 cfg in
      List.iter
        (fun nic ->
          check bool_c
            (Printf.sprintf "%s: NIC %d refused" (Config.name cfg) nic)
            true
            (config_error (fun () -> World.create_guest ~nic w)))
        [ 2; -1 ];
      check int_c "no slot allocated" 1 (World.guest_slots w))
    [ Config.Xen_domU; Config.Xen_twin ]

(* neither the twin's delivery pass over the credit scheduler nor the
   pump's walk over the guests' channels allocates per guest, so an idle
   pump costs the same words with 32 guests as with one *)
let test_twin_idle_pump_words () =
  let words guests =
    let w = World.create ~nics:1 ~guests Config.Xen_twin in
    World.pump w;
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      World.pump w
    done;
    Gc.minor_words () -. before
  in
  let one = words 1 and many = words 32 in
  check bool_c
    (Printf.sprintf "100 idle pumps: %.0f words with 1 guest, %.0f with 32" one
       many)
    true
    (many <= one +. 50.)

let for_all_configs name f =
  List.map
    (fun cfg ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Config.name cfg))
        `Quick (f cfg))
    Config.all

let suite =
  for_all_configs "tx fidelity" test_tx_fidelity
  @ for_all_configs "rx fidelity" test_rx_fidelity
  @ for_all_configs "sustained traffic" test_sustained
  @ for_all_configs "ledger categories" test_ledger_categories
  @ for_all_configs "watchdog/config" test_watchdog_and_config
  @ for_all_configs "rx mode config" test_rx_mode_config
  @ for_all_configs "stats string copy" test_stats_string_copy
  @ for_all_configs "watchdog indirect call" test_watchdog_indirect_call
  @ for_all_configs "timer-driven watchdog" test_timer_driven_watchdog
  @ [
      Alcotest.test_case "twin: no switch on data path" `Quick
        test_twin_no_switch_on_data_path;
      Alcotest.test_case "twin: set-up leaves frames shared" `Quick
        test_twin_setup_leaves_frames_shared;
      Alcotest.test_case "tx allocation budget (twin, domU)" `Quick
        test_tx_allocation_budget;
      Alcotest.test_case "twin: demoted routines upcall" `Quick
        test_twin_upcalls_when_demoted;
      Alcotest.test_case "twin: vif defers interrupt" `Quick
        test_twin_vif_defers_interrupt;
      Alcotest.test_case "twin: pool exhaustion drops" `Quick
        test_twin_pool_exhaustion_drops;
      Alcotest.test_case "twin: stats and svm activity" `Quick
        test_twin_stats_and_svm_activity;
      Alcotest.test_case "twin: fast path in hyp, no upcalls" `Quick
        test_twin_fast_path_support_calls_in_hyp;
      Alcotest.test_case "twin: multi-guest demux" `Quick
        test_twin_multi_guest_demux;
      Alcotest.test_case "domU: grant machinery" `Quick
        test_domu_grant_machinery;
      Alcotest.test_case "virt overhead charged to dom0 only" `Quick
        test_virt_overhead_scope;
      Alcotest.test_case "profiler attribution" `Quick
        test_profiler_attribution;
      Alcotest.test_case "measure consistency" `Quick test_measure_consistency;
      Alcotest.test_case "rejects tuning.queues <> 1" `Quick
        test_rejects_multi_queue_tuning;
      Alcotest.test_case "create_guest needs a guest path" `Quick
        test_create_guest_needs_guest_path;
      Alcotest.test_case "transmit_from needs domU" `Quick
        test_transmit_from_needs_domu;
      Alcotest.test_case "create_guest rejects a bad NIC" `Quick
        test_create_guest_rejects_bad_nic;
      Alcotest.test_case "rx allocation budget (domU)" `Quick
        test_rx_allocation_budget;
      Alcotest.test_case "rx queue: one drop past capacity" `Quick
        test_rx_queue_capacity;
      Alcotest.test_case "rx queue: order across wrap and growth" `Quick
        test_rx_queue_order_across_growth;
      Alcotest.test_case "rx queue: reset empties it" `Quick
        test_rx_queue_reset;
      Alcotest.test_case "twin: pending queues keep delivery order" `Quick
        test_twin_pending_order;
      Alcotest.test_case "profiler totals are exact" `Quick
        test_profiler_exact_totals;
      Alcotest.test_case "twin: idle pump words independent of guests" `Quick
        test_twin_idle_pump_words;
    ]
