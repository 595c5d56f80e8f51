(* The state of one World and the helpers its data paths share. What one
   configuration alone uses lives in its [path] case. World, Supervisor,
   Domu_path and Twin_path read these records directly: the types are
   the interface, so there is no .mli. *)

open Td_misa
open Td_mem
open Td_cpu
open Td_xen
open Td_kernel

exception Driver_aborted of string
exception Nic_quarantined of { nic : int }
exception Config_error of { domain : string; reason : string }

let () =
  Printexc.register_printer (function
    | Driver_aborted r -> Some (Printf.sprintf "Driver_aborted(%s)" r)
    | Nic_quarantined { nic } -> Some (Printf.sprintf "Nic_quarantined(%d)" nic)
    | Config_error { domain; reason } ->
        Some (Printf.sprintf "Config_error(%s: %s)" domain reason)
    | _ -> None)

let config_error ~domain fmt =
  Printf.ksprintf (fun reason -> raise (Config_error { domain; reason })) fmt

type driver_image = {
  prog : Program.t;
  e_init : int;
  e_xmit : int;
  e_intr : int;
  e_watchdog : int;
  e_get_stats : int;
  e_set_mtu : int;
  e_set_rx_mode : int;
}

(* shadow state (§4.5): the little configuration the supervisor needs to
   rebuild a twin instance after an abort. Ring geometry is not stored —
   re-running e1000_init re-derives it; what cannot be re-derived is the
   configuration the guest applied through the driver since boot. *)
type shadow_state = {
  s_mmio_base : int;
  mutable s_mtu : int;
  mutable s_promisc : bool;
}

(* A port's liveness, written only by {!Supervisor}; [Failed] is terminal
   and names the abort that ended the port. *)
type port_state = Serving | Recovering | Failed of string

type nic_port = {
  dev : Td_nic.E1000_dev.t;
  nd : Netdev.t;
  mac : string;
  cmac : string;  (** the wire-side client's MAC *)
  tx_hdr : string;
      (** client MAC, NIC MAC, IPv4 ethertype: the Ethernet header of
          every frame {!World.transmit} sends on this port *)
  wire : Td_nic.Wire.counters;
  mutable rx_buf : Bytes.t;
      (** where {!World.inject_rx} assembles an arriving frame *)
  mutable pending_irq : int;
  mutable state : port_state;
  shadow : shadow_state;
}

(* One registered domain: its Xen domain, address space, netfront
   channel(s) and receive-side state. Slot [g] always holds domain id
   [g + 1]; slots are never reused, so domain ids are unique for the
   world's lifetime and a destroyed guest leaves a [None] tombstone. *)
type guest_slot = {
  gs_dom : Domain.t;
  gs_space : Addr_space.t;
  mutable gs_netios : (int * Xen_netio.t) array;
      (** (NIC index, channel), in attach order; Xen_domU only *)
  gs_macs : string array;  (** the guest's vif MAC on each NIC *)
  gs_tx_hdrs : string array;
      (** per NIC: client MAC, vif MAC, IPv4 ethertype — the Ethernet
          header of the guest's {!World.transmit_from} frames *)
  gs_rx_pending : string Td_sim.Fifo.t;
      (** demuxed, awaiting guest schedule; Xen_twin only *)
  mutable gs_rx_count : int;
}

(* what every Xen configuration has *)
type xen = { hyp : Hypervisor.t; dom0 : Domain.t }

(* the twin path's state: both driver instances, their SVM runtimes, the
   hypervisor's sk_buff pool, and the receive demux *)
type twin = {
  derived : Td_rewriter.Twin.t;
  svm_hyp : Td_svm.Runtime.t;  (** the hypervisor instance's runtime *)
  svm_vm : Td_svm.Runtime.t;  (** the VM instance's identity runtime *)
  vm_stlb : int;  (** the VM instance's stlb vaddr *)
  pool : Skb_pool.t;
  hyp_driver : driver_image;
  gmac_index : int Td_sim.Int_tbl.t;
      (** guest MAC ({!Bridge.mac_key}) -> guest slot *)
  sched : Scheduler.t;  (** orders guest packet delivery (§5.3) *)
  mutable tx_pushes : int;
      (** TX ring pushes since the last doorbell hypercall *)
}

type path =
  | Native
  | Dom0 of xen
  | Domu of xen * Bridge.t
      (** the dom0 software bridge: its fdb maps guest vif MACs to
          backend ports, one port per netfront channel *)
  | Twin of xen * twin

type t = {
  path : path;
  tuning : Config.tuning;
  phys : Phys_mem.t;
  dom0_space : Addr_space.t;
  km : Kmem.t;
  sup : Support.t;
  led : Ledger.t;
  cpu : State.t;
  mutable slots : guest_slot option array;  (** the domain registry *)
  quota : Quota.state option;
      (** this world's quota engine ({!Config.tuning.quota}), handed at
          construction to its grant tables, I/O channels, upcall stubs
          and map-window guard *)
  fault : Td_fault.Engine.state;
      (** this world's fault engine ({!Config.tuning.fault_plan}; a
          zero-plan one without, which never draws), handed at
          construction to its SVM runtimes, interpreter, NICs and upcall
          stubs; it also counts the world's lost frames *)
  dom0_stack_top : int;
  costs : Sys_costs.t;
  nics : nic_port array;
  dom0_driver : driver_image;
  mutable recoveries : int;
  mutable replayed : int;
  mutable guest_faults : int;
      (** {!Td_xen.Guest_fault.Fault}s contained as driver aborts *)
  interp : Interp.t;
  timers : Timer_wheel.t;  (** dom0 kernel timers (watchdog housekeeping) *)
  mutable rx_frames : int;
  mutable rx_bytes : int;
  mutable rx_last : string;  (** meaningful once [rx_frames > 0] *)
  rx_queue : string Td_sim.Fifo.t;
      (** every delivered payload, in order, until a consumer pops it *)
  mutable rx_drops : int;  (** frames lost because [rx_queue] was full *)
  mutable tx_drops : int;
}

(* Guest payloads queue here until the consumer (netchannel, tests) pops
   them; beyond this the stack would push back in a real system, so we
   drop — but count the drop instead of losing the frame silently. The
   ring grows to this by doubling, only as far as the consumer lags. *)
let rx_queue_capacity = 4096

let guest_name g = Printf.sprintf "guest%d" g

let slot_opt w g =
  if g >= 0 && g < Array.length w.slots then w.slots.(g) else None

(* a dead or unknown guest index is guest-reachable input (a stale handle
   in a control-plane call), so it faults typed and attributed *)
let slot_exn w g ~op =
  match slot_opt w g with
  | Some s -> s
  | None -> Guest_fault.fail ~domain:(guest_name g) ~op "guest %d is not live" g

(* the fault paths that only a configured plan enables (model-fault
   containment, the lost-interrupt rescue) key on the world's own plan *)
let planned w = Option.is_some w.tuning.Config.fault_plan

let eth_header_bytes = 14
let charge_dom0_cat w n = Ledger.charge w.led Ledger.Dom0 n
let charge_domU_cat w n = Ledger.charge w.led Ledger.DomU n
let charge_xen_cat w n = Ledger.charge w.led Ledger.Xen n

let count_rx ~guest w payload =
  w.rx_frames <- w.rx_frames + 1;
  w.rx_bytes <- w.rx_bytes + String.length payload;
  (match slot_opt w guest with
  | Some s -> s.gs_rx_count <- s.gs_rx_count + 1
  | None -> ());
  w.rx_last <- payload;
  if Td_sim.Fifo.length w.rx_queue >= rx_queue_capacity then begin
    w.rx_drops <- w.rx_drops + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "world.rx_drops"
  end
  else Td_sim.Fifo.push w.rx_queue payload

(* the sk_buff at dom0 address [skb], back to whichever allocator owns it *)
let free_any_skb w skb =
  match w.path with
  | Twin (_, tw) when Skb_pool.owns tw.pool skb -> Skb_pool.release tw.pool skb
  | Native | Dom0 _ | Domu _ | Twin _ -> Skb.free_at w.km w.dom0_space skb

(* packet buffers (struct, linear area, fragment frame) are persistently
   mapped into the hypervisor, at boot and again after every recovery. The
   pinned pairs must leave the clock a pair to reclaim, or the first
   unpinned miss would find the window exhausted; the check fires before
   the pool can overflow the window. *)
let pin_pool rt pool =
  let pin addr =
    ignore (Td_svm.Runtime.persistent_map rt addr);
    let window = Td_svm.Runtime.window_pages rt in
    if Td_svm.Runtime.window_pages_in_use rt >= window then
      invalid_arg
        (Printf.sprintf
           "World.create: map_window_pages = %d leaves no unpinned pair \
            once the sk_buff pool is pinned; raise it or lower pool_entries"
           window)
  in
  Skb_pool.iter pool (fun { Skb.space; addr } ->
      pin addr;
      pin (Skb.head_at space addr);
      pin (Skb_pool.frag_buffer pool addr))

let entries_of (prog : Program.t) =
  let at = Program.addr_of_label prog in
  let open Td_driver.E1000_driver in
  {
    prog;
    e_init = at entry_init;
    e_xmit = at entry_xmit;
    e_intr = at entry_intr;
    e_watchdog = at entry_watchdog;
    e_get_stats = at entry_get_stats;
    e_set_mtu = at entry_set_mtu;
    e_set_rx_mode = at entry_set_rx_mode;
  }
