open Td_misa
open Td_mem
open Td_cpu
open Td_xen
open Td_kernel
open Td_rewriter
open World_state

(* Boot of the common machine, the guest registry, and every entry point
   dispatched on the world's path (World_state.path). *)

type t = World_state.t

type port_state = World_state.port_state =
  | Serving
  | Recovering
  | Failed of string

exception Driver_aborted = World_state.Driver_aborted
exception Nic_quarantined = World_state.Nic_quarantined
exception Config_error = World_state.Config_error

let config t =
  match t.path with
  | Native -> Config.Native_linux
  | Dom0 _ -> Config.Xen_dom0
  | Domu _ -> Config.Xen_domU
  | Twin _ -> Config.Xen_twin

let nic_count t = Array.length t.nics
let ledger t = t.led
let support t = t.sup
let kmem t = t.km
let dom0_space t = t.dom0_space
let netdev t ~nic = t.nics.(nic).nd
let adapter t ~nic = Td_driver.Adapter.of_netdev t.nics.(nic).nd

let twin t =
  match t.path with Twin (_, tw) -> Some tw | Native | Dom0 _ | Domu _ -> None

let svm t = Option.map (fun tw -> tw.svm_hyp) (twin t)
let twin_stats t = Option.map (fun tw -> tw.derived.Twin.stats) (twin t)
let pool t = Option.map (fun tw -> tw.pool) (twin t)

let hypervisor t =
  match t.path with
  | Native -> None
  | Dom0 x | Domu (x, _) | Twin (x, _) -> Some x.hyp

let cpu_state t = t.cpu
let port_state w ~nic = w.nics.(nic).state

let all_serviceable w =
  Seq.init (nic_count w) Fun.id
  |> Seq.for_all (fun nic -> Supervisor.serving w ~nic)

let interp w = w.interp

(* ---- domain registry helpers ---- *)

let iter_slots w f =
  Array.iteri (fun g s -> match s with Some s -> f g s | None -> ()) w.slots

(* channels in (slot, attach) order: deterministic, and NIC order for a
   single boot guest. Plain loops, so a static [f] builds no closure:
   every pump and tick walks every slot. *)
let iter_netios w f =
  for g = 0 to Array.length w.slots - 1 do
    match w.slots.(g) with
    | Some s ->
        for j = 0 to Array.length s.gs_netios - 1 do
          f (snd s.gs_netios.(j))
        done
    | None -> ()
  done

let sum_netios w f =
  let n = ref 0 in
  for g = 0 to Array.length w.slots - 1 do
    match w.slots.(g) with
    | Some s ->
        for j = 0 to Array.length s.gs_netios - 1 do
          n := !n + f (snd s.gs_netios.(j))
        done
    | None -> ()
  done;
  !n

let staged_frames w = sum_netios w Xen_netio.staged

(* ---- construction ---- *)

let host_mac i = Printf.sprintf "\x02\x00\x00\x00\x00%c" (Char.chr i)
let vif_mac g i = Printf.sprintf "\x02\x01%c\x00\x00%c" (Char.chr g) (Char.chr i)
let client_mac i = Printf.sprintf "\x02\x02\x00\x00\x00%c" (Char.chr i)

(* Transmit headers are built once per port or guest slot; the transmit
   paths write header and payload straight into simulated memory. *)
let eth_header ~dst ~src = dst ^ src ^ "\x08\x00"

(* A guest's address space and its Xen domain; slot [g] holds domain id
   [g + 1]. *)
let guest_space phys g =
  let space = Addr_space.create ~name:(guest_name g) phys in
  Addr_space.heap_init space ~base:Layout.guest_heap_base
    ~limit:Layout.guest_heap_limit;
  space

let guest_domain h ~space g =
  let dom =
    Domain.create ~id:(g + 1) ~name:(guest_name g) ~kind:Domain.Guest ~space
  in
  Hypervisor.add_domain h dom;
  dom

let fresh_slot ~dom ~space ~nics g =
  {
    gs_dom = dom;
    gs_space = space;
    gs_netios = [||];
    gs_macs = Array.init nics (vif_mac g);
    gs_tx_hdrs =
      Array.init nics (fun i -> eth_header ~dst:(client_mac i) ~src:(vif_mac g i));
    gs_rx_pending = Td_sim.Fifo.create "";
    gs_rx_count = 0;
  }

(* A frame arriving from the wire, assembled in the port's own buffer
   (grown on demand, then reused): the header and payload are blitted in
   and the NIC copies them out at once, so a received frame allocates
   nothing on the host. Returns the frame's length. *)
let build_frame (p : nic_port) ~dst ~payload =
  let n = String.length payload in
  let len = eth_header_bytes + n in
  if Bytes.length p.rx_buf < len then p.rx_buf <- Bytes.create len;
  let b = p.rx_buf in
  Bytes.blit_string dst 0 b 0 6;
  Bytes.blit_string p.cmac 0 b 6 6;
  Bytes.set b 12 '\x08';
  Bytes.set b 13 '\x00';
  Bytes.blit_string payload 0 b eth_header_bytes n;
  len

(* Builds the machine with boot guest 0; the public [create] adds the
   other boot guests through [create_guest]. *)
let create ?(nics = 5) ?(upcall_set = []) ?(pool_entries = 1024)
    ?(costs = Sys_costs.default) ?spill_everything ?rewrite_style
    ?cache_probes ?(map_pairs = true) ~tuning ~fault cfg =
  if tuning.Config.notify_batch < 1 then
    invalid_arg "World.create: notify_batch must be >= 1";
  let phys = Phys_mem.create ~frames:200_000 () in
  let dom0_space = Addr_space.create ~name:"dom0" phys in
  Addr_space.heap_init dom0_space ~base:Layout.dom0_heap_base
    ~limit:Layout.dom0_heap_limit;
  let xen_space = Addr_space.create ~name:"xen" phys in
  Addr_space.alloc_region xen_space
    ~vaddr:(Layout.hyp_stack_top - (Layout.hyp_stack_pages * Layout.page_size))
    ~pages:Layout.hyp_stack_pages;
  Addr_space.alloc_region xen_space ~vaddr:Layout.hyp_scratch_base ~pages:1;
  let guest0_space =
    match cfg with
    | Config.Xen_domU | Config.Xen_twin -> Some (guest_space phys 0)
    | Config.Native_linux | Config.Xen_dom0 -> None
  in
  let registry = Code_registry.create () in
  let natives = Native.create () in
  let km = Kmem.create dom0_space in
  let sup = Support.create ~space:dom0_space ~kmem:km in
  let led = Ledger.create () in
  let cpu = State.create ~hyp_space:xen_space dom0_space in
  let dom0_stack_top =
    Addr_space.heap_alloc dom0_space (4 * Layout.page_size)
    + (4 * Layout.page_size)
  in
  (* domains & hypervisor *)
  let xen, slot0 =
    match cfg with
    | Config.Native_linux -> (None, None)
    | Config.Xen_dom0 | Config.Xen_domU | Config.Xen_twin ->
        let h = Hypervisor.create ~costs ~ledger:led ~xen_space ~cpu () in
        let d0 =
          Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
            ~space:dom0_space
        in
        Domain.init_vif d0 ~vaddr:(Kmem.alloc km 4);
        Hypervisor.add_domain h d0;
        ( Some { hyp = h; dom0 = d0 },
          Option.map
            (fun space ->
              fresh_slot ~dom:(guest_domain h ~space 0) ~space ~nics 0)
            guest0_space )
  in
  (* per-world engines: the quota engine built here and the fault engine
     passed in are handed below to every component that checks them, so
     two worlds (Mq contexts, shard workers) never share token buckets
     or fault streams. Quota exempts dom0 by its kind — throttling the
     driver domain's service work would deadlock the paths that drain on
     behalf of throttled guests. The token buckets' clock is the ledger's
     cycle count, which Quota reads at the simulated CPU frequency. *)
  let quota =
    Option.map
      (Quota.make ~now:(fun () -> Ledger.grand_total led))
      tuning.Config.quota
  in
  (* NICs + netdevs *)
  let ports =
    Array.init nics (fun i ->
        let wire = Td_nic.Wire.fresh_counters () in
        let mac = host_mac i in
        let dev =
          Td_nic.E1000_dev.create ~fault ~dma:dom0_space ~mac
            ~tx_frame:(Td_nic.Wire.sink wire) ()
        in
        let mmio = Td_nic.E1000_dev.mmio_vaddr i in
        Td_nic.E1000_dev.attach dev ~space:dom0_space ~vaddr:mmio;
        let nd = Netdev.alloc km dom0_space ~mmio_base:mmio ~mac in
        {
          dev;
          nd;
          mac;
          cmac = client_mac i;
          tx_hdr = eth_header ~dst:(client_mac i) ~src:mac;
          wire;
          pending_irq = 0;
          rx_buf = Bytes.empty;
          state = Serving;
          shadow = { s_mmio_base = mmio; s_mtu = 1500; s_promisc = false };
        })
  in
  Array.iter
    (fun p ->
      Td_nic.E1000_dev.set_irq_handler p.dev (fun () ->
          p.pending_irq <- p.pending_irq + 1))
    ports;
  (* support natives & driver images *)
  Support.register_dom0_natives sup natives;
  let dom0_support n = Support.dom0_symtab sup natives n in
  let dom0_image path =
    ( path,
      entries_of
        (Loader.load ~name:"e1000"
           ~source:(Td_driver.E1000_driver.source ())
           ~base:Layout.vm_driver_code_base ~symbols:dom0_support ~registry) )
  in
  let path, dom0_driver =
    match (cfg, xen) with
    | Config.Xen_twin, Some x ->
        Twin_path.boot ?spill_everything ?rewrite_style ?cache_probes
          ~map_pairs ~upcall_set ~pool_entries ~tuning ~fault ~quota ~registry
          ~natives ~sup ~km ~dom0_space ~xen_space ~dom0_support x
    | Config.Xen_domU, Some x ->
        dom0_image (Domu (x, Bridge.create km dom0_space))
    | Config.Xen_dom0, Some x -> dom0_image (Dom0 x)
    | Config.Native_linux, _ | _, None -> dom0_image Native
  in
  {
    path;
    tuning;
    phys;
    dom0_space;
    km;
    sup;
    led;
    cpu;
    slots = (match slot0 with Some s -> [| Some s |] | None -> [||]);
    quota;
    fault;
    dom0_stack_top;
    costs;
    nics = ports;
    dom0_driver;
    recoveries = 0;
    replayed = 0;
    guest_faults = 0;
    interp = Interp.create ~fault cpu registry natives;
    timers = Timer_wheel.create ();
    rx_frames = 0;
    rx_bytes = 0;
    rx_last = "";
    rx_queue = Td_sim.Fifo.create "";
    rx_drops = 0;
    tx_drops = 0;
  }

(* ---- late initialisation (driver init + hooks) ---- *)

(* dom0's local stack receives; [Skb.contents_at] returns a fresh buffer
   nothing else holds, so it turns into a string without a copy *)
let local_rx w ~virt skb =
  charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path;
  if virt then charge_xen_cat w w.costs.Sys_costs.virt_overhead_rx;
  count_rx ~guest:0 w
    (Bytes.unsafe_to_string (Skb.contents_at w.dom0_space skb));
  free_any_skb w skb

let init (w : t) =
  (match w.path with
  | Twin (x, tw) -> Twin_path.arm w x tw
  | Native | Dom0 _ | Domu _ -> ());
  (* run e1000_init for every NIC using the dom0-side instance (the VM
     driver "performs the initialization of the NIC and the driver data
     structures", §3.1) *)
  Array.iter (Supervisor.init_port w) w.nics;
  (* the driver's mod_timer keeps the watchdog running in dom0 — always on
     the VM instance, never in the hypervisor (§3.1); the supervisor rides
     the same timer for hang detection *)
  Array.iteri
    (fun i _ ->
      Timer_wheel.add w.timers ~period:10
        ~name:(Printf.sprintf "e1000-watchdog-%d" i)
        (fun () -> Supervisor.watchdog w ~nic:i))
    w.nics;
  (* configuration-specific receive plumbing *)
  (match w.path with
  | Native -> Support.set_netif_rx w.sup (fun skb -> local_rx w ~virt:false skb)
  | Dom0 _ -> Support.set_netif_rx w.sup (fun skb -> local_rx w ~virt:true skb)
  | Domu (x, vswitch) -> Domu_path.boot w x vswitch
  | Twin (x, tw) -> Twin_path.boot_rx w x tw);
  w

(* ---- traffic ---- *)

(* native and dom0 transmit: the local stack builds the sk_buff and calls
   the driver in dom0; Xen_dom0 adds the virtualisation overhead *)
let dom0_attempt w ~nic payload () =
  let p = w.nics.(nic) in
  let n = String.length payload in
  let space = w.dom0_space in
  let skb = Skb.alloc_at w.km space ~size:(eth_header_bytes + n + 64) in
  Skb.put_string_at space skb p.tx_hdr ~off:0 ~len:eth_header_bytes;
  Skb.put_string_at space skb payload ~off:0 ~len:n;
  let r =
    Supervisor.run_dom0_driver2 w ~entry:w.dom0_driver.e_xmit skb
      p.nd.Netdev.addr
  in
  if r <> 0 then w.tx_drops <- w.tx_drops + 1;
  r = 0

let dom0_transmit w ~nic ~payload ~virt =
  charge_dom0_cat w w.costs.Sys_costs.kernel_tx_path;
  if virt then charge_xen_cat w w.costs.Sys_costs.virt_overhead_tx;
  Supervisor.transmit w ~nic dom0_attempt payload ()

let transmit w ~nic ~payload =
  Supervisor.admit w ~nic;
  match w.path with
  | Native -> dom0_transmit w ~nic ~payload ~virt:false
  | Dom0 _ -> dom0_transmit w ~nic ~payload ~virt:true
  | Domu _ -> Domu_path.transmit w w.nics.(nic) ~nic ~payload
  | Twin (x, tw) -> Twin_path.transmit w x tw ~nic ~payload

let inject_rx ?(guest = 0) w ~nic ~payload =
  let p = w.nics.(nic) in
  let dst =
    match w.path with
    | Native | Dom0 _ -> p.mac
    | Domu _ | Twin _ -> (
        match slot_opt w guest with
        | Some s -> s.gs_macs.(nic)
        | None -> vif_mac guest nic)
  in
  let len = build_frame p ~dst ~payload in
  (* the device copies the frame out before anything writes the buffer *)
  Td_nic.E1000_dev.receive_sub p.dev (Bytes.unsafe_to_string p.rx_buf) ~len

let dom0_intr w ~nic () =
  Supervisor.run_dom0_driver w ~entry:w.dom0_driver.e_intr
    w.nics.(nic).nd.Netdev.addr

let dom0_interrupt w ~nic = Supervisor.invoke w ~nic dom0_intr ()

let service_interrupt w ~nic =
  if Supervisor.serving w ~nic then
    match w.path with
    | Native ->
        charge_dom0_cat w w.costs.Sys_costs.interrupt_dispatch;
        dom0_interrupt w ~nic
    | Dom0 _ | Domu _ ->
        charge_xen_cat w
          (w.costs.Sys_costs.interrupt_dispatch + w.costs.Sys_costs.event_channel);
        dom0_interrupt w ~nic
    | Twin (x, tw) -> Twin_path.service_interrupt w x tw ~nic

let deliver_pending w =
  match w.path with
  | Twin (x, tw) -> Twin_path.deliver_pending w x tw
  | Native | Dom0 _ | Domu _ -> ()

(* One port's share of a pump pass; true if it serviced an interrupt.
   The pass below is written as loops over the ports and channels, so a
   pump builds no closure. *)
let pump_port w i =
  let p = w.nics.(i) in
  (* lost-interrupt rescue: an injected lost IRQ leaves its cause latched
     in ICR with no handler call; the pump's poll sweep re-kicks it.
     Gated on the world's plan so unplanned runs keep their exact
     interrupt timing. *)
  if
    planned w
    && Td_fault.Engine.active w.fault
    && p.pending_irq = 0
    && Supervisor.serving w ~nic:i
    && Td_nic.E1000_dev.irq_pending p.dev
  then p.pending_irq <- 1;
  if p.pending_irq > 0 then begin
    p.pending_irq <- 0;
    service_interrupt w ~nic:i;
    true
  end
  else false

let service_staged io = if Xen_netio.staged io > 0 then Xen_netio.service io

let pump w =
  let progress = ref true in
  while !progress do
    progress := false;
    for i = 0 to Array.length w.nics - 1 do
      if pump_port w i then progress := true
    done;
    (* ring pressure / end-of-poll service: push out partial notification
       batches (or, in polling mode, visit the doorbell and drain up to
       the poll budget) so frames can never sit staged forever *)
    if staged_frames w > 0 then begin
      progress := true;
      iter_netios w service_staged
    end;
    deliver_pending w
  done

(* ---- observation ---- *)

let wire_tx_frames w =
  Array.fold_left (fun acc p -> acc + p.wire.Td_nic.Wire.frames) 0 w.nics

let wire_tx_bytes w =
  Array.fold_left (fun acc p -> acc + p.wire.Td_nic.Wire.bytes) 0 w.nics

let delivered_rx_frames w = w.rx_frames

let delivered_rx_frames_to w ~guest =
  match slot_opt w guest with Some s -> s.gs_rx_count | None -> 0

let guest_count w =
  Array.fold_left
    (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
    0 w.slots

let guest_slots w = Array.length w.slots
let guest_alive w ~guest = Option.is_some (slot_opt w guest)
let delivered_rx_bytes w = w.rx_bytes
let rx_last_payload w = if w.rx_frames = 0 then None else Some w.rx_last
let rx_pop w =
  if Td_sim.Fifo.is_empty w.rx_queue then None
  else Some (Td_sim.Fifo.pop w.rx_queue)
let rx_drops w = w.rx_drops
let tx_lost_frames w = Td_fault.Engine.tx_lost_frames w.fault + w.tx_drops
let recoveries w = w.recoveries
let guest_faults w = w.guest_faults
let replayed_frames w = w.replayed
let shadow_mtu w ~nic = w.nics.(nic).shadow.s_mtu
let shadow_promisc w ~nic = w.nics.(nic).shadow.s_promisc

let reset_measurement w =
  (* zero the whole registry and trace first, then the ledger (whose reset
     re-zeroes its registry mirrors — keeping both views aligned so the
     Measure cross-check can compare them at the end of the run) *)
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.reset_all ();
    Td_obs.Trace.clear ()
  end;
  Ledger.reset w.led;
  Support.reset_counts w.sup;
  Array.iter
    (fun p ->
      p.wire.Td_nic.Wire.frames <- 0;
      p.wire.Td_nic.Wire.bytes <- 0)
    w.nics;
  w.rx_frames <- 0;
  w.rx_bytes <- 0;
  iter_slots w (fun _ s -> s.gs_rx_count <- 0);
  w.rx_last <- "";
  Td_sim.Fifo.clear w.rx_queue;
  w.rx_drops <- 0;
  w.tx_drops <- 0;
  (match w.path with
  | Twin (_, tw) -> tw.tx_pushes <- 0
  | Native | Dom0 _ | Domu _ -> ());
  w.recoveries <- 0;
  w.replayed <- 0;
  Td_fault.Engine.reset_counters w.fault

(* ---- housekeeping ---- *)

let run_watchdog w ~nic =
  Supervisor.admit w ~nic;
  Supervisor.watchdog w ~nic

let read_stats w ~nic =
  Supervisor.control w ~nic (fun () ->
      let dest = Kmem.alloc w.km 32 in
      ignore
        (Supervisor.run_dom0_driver2 w ~entry:w.dom0_driver.e_get_stats
           w.nics.(nic).nd.Netdev.addr dest);
      let out =
        Array.init 8 (fun i ->
            Addr_space.read w.dom0_space (dest + (4 * i)) Width.W32)
      in
      Kmem.free w.km dest 32;
      out)

let run_set_rx_mode w ~nic ~promisc =
  let p = w.nics.(nic) in
  Supervisor.control w ~nic (fun () ->
      ignore
        (Supervisor.run_dom0_driver2 w ~entry:w.dom0_driver.e_set_rx_mode
           p.nd.Netdev.addr
           (if promisc then 1 else 0)));
  (* shadow capture on the live path: recovery re-applies this *)
  p.shadow.s_promisc <- promisc

let run_set_mtu w ~nic ~mtu =
  let p = w.nics.(nic) in
  Supervisor.control w ~nic (fun () ->
      ignore
        (Supervisor.run_dom0_driver2 w ~entry:w.dom0_driver.e_set_mtu
           p.nd.Netdev.addr mtu));
  p.shadow.s_mtu <- mtu

let tick w =
  (* the timer service bounds how long a partial batch can stay staged;
     it is also the adaptive doorbell's window boundary (poll entry /
     idle-hysteresis fallback) *)
  iter_netios w Xen_netio.on_tick;
  Timer_wheel.tick w.timers

let shutdown w =
  (* guest quiesce: drain every channel completely — partially staged
     batches must not be dropped on teardown *)
  iter_netios w Xen_netio.teardown;
  deliver_pending w

let netio_conserved w =
  sum_netios w (fun io -> if Xen_netio.conserved io then 0 else 1) = 0

let netio_suppressed_hypercalls w =
  sum_netios w Xen_netio.suppressed_hypercalls

let netio_suppressed_virqs w = sum_netios w Xen_netio.suppressed_virqs
let netio_mode_switches w = sum_netios w Xen_netio.mode_switches

let netio_tx_mode w ~nic =
  match Domu_path.netio_on w ~nic with
  | Some (_, io) -> Xen_netio.tx_mode io
  | None -> Xen_netio.Interrupt

let with_dom0 w f =
  match w.path with
  | Native -> ()
  | Dom0 x | Domu (x, _) | Twin (x, _) -> f x.dom0

let mask_dom0_interrupts w = with_dom0 w Domain.mask_interrupts

let unmask_dom0_interrupts w =
  with_dom0 w Domain.unmask_interrupts;
  deliver_pending w

(* ---- the domain registry: runtime create / destroy / traffic ---- *)

let create_guest ?nic w =
  let x =
    match w.path with
    | Domu (x, _) | Twin (x, _) -> x
    | Native | Dom0 _ ->
        config_error ~domain:(Config.name (config w))
          "create_guest requires a guest-carrying configuration (Xen_domU or \
           Xen_twin)"
  in
  let g = Array.length w.slots in
  if g > 255 then
    config_error ~domain:(guest_name g)
      "domain registry full (256 slots, never reused)";
  (match nic with
  | Some n when n < 0 || n >= Array.length w.nics ->
      config_error ~domain:(guest_name g) "create_guest: no such NIC %d" n
  | Some _ | None -> ());
  let space = guest_space w.phys g in
  let dom = guest_domain x.hyp ~space g in
  let s = fresh_slot ~dom ~space ~nics:(Array.length w.nics) g in
  w.slots <- Array.append w.slots [| Some s |];
  (match w.path with
  | Domu (x, vswitch) -> Domu_path.add_guest w x vswitch s ~guest:g ~nic
  | Twin (_, tw) -> Twin_path.add_guest tw s ~guest:g
  | Native | Dom0 _ -> ());
  g

let create ?nics ?(guests = 1) ?upcall_set ?pool_entries ?costs
    ?spill_everything ?rewrite_style ?cache_probes ?map_pairs
    ?(tuning = Config.default_tuning) cfg =
  if guests < 1 then invalid_arg "World.create: guests must be >= 1";
  if guests > 256 then invalid_arg "World.create: at most 256 guests";
  (* the device has one ring pair: multi-queue runs are Mq's, one
     single-queue world per queue *)
  if tuning.Config.queues <> 1 then
    invalid_arg
      (Printf.sprintf
         "World.create: tuning.queues must be 1 (got %d); use Mq.create for \
          multi-queue runs"
         tuning.Config.queues);
  let fault =
    Td_fault.Engine.make
      (Option.value tuning.Config.fault_plan ~default:Td_fault.zero_plan)
  in
  (* boot is deterministic: construction and init charge the world's
     quota engine (grant-table and map-window acquires during channel
     setup) but run with its fault engine suspended, so they draw
     nothing *)
  Td_fault.Engine.suspend fault (fun () ->
      let w =
        init
          (create ?nics ?upcall_set ?pool_entries ?costs ?spill_everything
             ?rewrite_style ?cache_probes ?map_pairs ~tuning ~fault cfg)
      in
      (* boot guests 1 .. guests-1 are runtime guests created at boot *)
      (match w.path with
      | Domu _ | Twin _ ->
          for _ = 2 to guests do
            ignore (create_guest w)
          done
      | Native | Dom0 _ -> ());
      w)

let destroy_guest w ~guest:g =
  let s = slot_exn w g ~op:"World.destroy_guest" in
  (match w.path with
  | Twin (x, tw) -> Twin_path.remove_guest w x tw s ~guest:g
  | Domu (x, vswitch) -> Domu_path.remove_guest x vswitch s ~guest:g
  | Native | Dom0 _ -> ());
  Option.iter (fun q -> Quota.forget q ~domain:s.gs_dom) w.quota;
  Ledger.retire_domain w.led ~domain:s.gs_dom;
  Addr_space.release s.gs_space;
  w.slots.(g) <- None

let transmit_from ?nic w ~guest:g ~payload =
  let s = slot_exn w g ~op:"World.transmit_from" in
  match w.path with
  | Domu _ -> Domu_path.transmit_from ?nic w s ~guest:g ~payload
  | Native | Dom0 _ | Twin _ ->
      config_error ~domain:(Domain.name s.gs_dom)
        "transmit_from requires the Xen_domU configuration"

(* ---- per-world engine observability ---- *)

let fault_engine w = w.fault
let fault_injected w = Td_fault.Engine.injected w.fault

let quota_throttled w =
  match w.quota with Some q -> Quota.throttled q | None -> 0

let doorbell_pages_mapped w =
  let base, limit = Xen_netio.doorbell_window in
  let n = ref 0 in
  for vpage = Layout.page_of base to Layout.page_of limit - 1 do
    if Addr_space.is_mapped w.dom0_space ~vpage then incr n
  done;
  !n
