(** The twin data path (Xen_twin): the derived driver's two instances,
    transmit through the hypervisor instance, and receive demultiplexed
    in the hypervisor and delivered as each guest is scheduled (§5.3). *)

open World_state

val boot :
  ?spill_everything:bool ->
  ?rewrite_style:Td_rewriter.Rewrite.style ->
  ?cache_probes:bool ->
  map_pairs:bool ->
  upcall_set:string list ->
  pool_entries:int ->
  tuning:Config.tuning ->
  fault:Td_fault.Engine.state ->
  quota:Td_xen.Quota.state option ->
  registry:Td_cpu.Code_registry.t ->
  natives:Td_cpu.Native.t ->
  sup:Td_kernel.Support.t ->
  km:Td_kernel.Kmem.t ->
  dom0_space:Td_mem.Addr_space.t ->
  xen_space:Td_mem.Addr_space.t ->
  dom0_support:Td_rewriter.Loader.symtab ->
  xen ->
  path * driver_image
(** Derive the twin, load the VM instance (returned, as the world's dom0
    driver) and the hypervisor instance, and pin the sk_buff pool into
    the hypervisor. The path is [Twin]. Both images are loaded once:
    recovery keeps them. *)

val arm : t -> xen -> twin -> unit
(** The hooks that precede driver initialisation: the window-reclaim
    charge, the quota guard on map-window pages and the stlb hit
    probes. *)

val boot_rx : t -> xen -> twin -> unit
(** Schedule boot guest 0 and demultiplex its MACs, install the
    hypervisor's demultiplexing [netif_rx] and switch to the guest. *)

val transmit : t -> xen -> twin -> nic:int -> payload:string -> bool
(** The guest's frame through the hypervisor instance, from the guest's
    context: doorbell hypercall (or a coalesced push), pool sk_buff,
    header copy and fragment chain. *)

val service_interrupt : t -> xen -> twin -> nic:int -> unit
(** Run the hypervisor instance's interrupt handler now, or defer it
    while dom0 has its virtual interrupts masked (§4.4). *)

val deliver_pending : t -> xen -> twin -> unit
(** Let the credit scheduler hand every guest its queued frames. *)

val add_guest : twin -> guest_slot -> guest:int -> unit
(** Schedule the guest and demultiplex its MACs to it. *)

val remove_guest : t -> xen -> twin -> guest_slot -> guest:int -> unit
(** Deliver the guest's queued frames, then forget its MACs, its
    scheduler entry and its hypervisor domain. *)
