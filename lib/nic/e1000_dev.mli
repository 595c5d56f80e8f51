(** Behavioural model of an e1000-style gigabit NIC.

    The device DMAs descriptors and packet data directly through the
    driver domain's address space using the bus addresses the driver
    programmed (bus address = dom0 kernel virtual address in this
    simulation — the identity mapping a real lowmem kernel uses). DMA
    deliberately bypasses SVM: the paper notes that DMA safety is out of
    scope without an IOMMU (§4.5).

    Transmit: writing the tail register (TDT) makes the device walk
    descriptors from its internal head to the new tail, emit each buffer
    as a frame on the wire, set the DD status bit, and raise TXDW.
    Receive: {!receive_frame} consumes the descriptor at RDH (software
    pre-fills free descriptors and advances RDT), writes the frame into
    its buffer, sets DD|EOP and raises RXT0. A full ring drops the frame
    and counts it in MPC. *)

type t

val mmio_vaddr : int -> int
(** Conventional dom0 virtual address of NIC [i]'s register page. *)

val effective_rate_bps : packet_bytes:int -> float
(** Achievable data rate accounting for Ethernet framing overhead
    (preamble, inter-frame gap, CRC). *)

val create :
  ?ring_entries:int ->
  ?fault_domain:(unit -> string option) ->
  ?fault:Td_fault.Engine.state ->
  dma:Td_mem.Addr_space.t ->
  mac:string ->
  tx_frame:(bytes -> int -> unit) ->
  unit ->
  t
(** [dma] is the address space the device's bus master sees (dom0);
    [mac] is a 6-byte string; [tx_frame] is the wire on the transmit
    side. The device assembles each frame by DMA into a buffer it
    reuses, and calls [tx_frame buf len] with the frame in the first
    [len] bytes of [buf]. The buffer is valid only during the call: a
    consumer copies what it keeps ([Bytes.sub_string buf 0 len]). [fault_domain] names the domain to which guest-reachable
    validation faults (bad register offsets, out-of-range ring cursors,
    descriptors pointing outside mapped memory) are attributed; they
    raise the typed {!Td_xen.Guest_fault.Fault} instead of
    [Invalid_argument]. [fault] is the engine the device's injection
    sites draw from (stuck TX DMA, lost interrupts, corrupt rx, whose
    dropped frames it counts as lost); omitted, nothing is injected.

    The device has one tx/rx ring pair and signals on the legacy INTx
    line, like the paper's single-queue e1000; multi-queue traffic is
    modelled above the device, one world per queue ({!Twindrivers.Mq}). *)

val attach : t -> space:Td_mem.Addr_space.t -> vaddr:int -> unit
(** Map the register page into an address space. *)

val set_irq_handler : t -> (unit -> unit) -> unit
(** Called (edge-triggered) whenever an unmasked interrupt cause is
    raised — at most once per ITR-many events when the driver programs
    the {!Regs.itr} throttle. Causes latched in ICR are never lost; a
    throttled handler drains them all on its next run. *)

val receive_frame : t -> string -> unit
(** A frame arrives from the wire and lands in the descriptor at RDH. *)

val receive_sub : t -> string -> len:int -> unit
(** [receive_sub t buf ~len] is {!receive_frame} of the first [len] bytes
    of [buf], copied out before it returns: the caller may reuse [buf]
    for the next frame. *)

val mac : t -> string

(* fault handling (driver supervisor interface) *)

val dma_stuck : t -> bool
(** The injected stuck-DMA fault is latched: doorbell writes are ignored
    until {!reset}. The supervisor's watchdog polls this to declare a
    hang. *)

val irq_pending : t -> bool
(** An unmasked cause is latched in ICR but no handler ran — the
    signature of an injected lost interrupt. Pollers (the world's pump)
    use this to re-kick servicing without a fresh edge. *)

val reset : t -> int
(** Power-on reset for recovery: zero every register (keeping link
    status and the programmed MAC), clear the stuck-DMA latch, drop any
    partially assembled TX frame. Returns the number of complete frames
    still queued between TDH and TDT — the in-flight frames the reset
    discarded, which the supervisor must account as replayed or lost. *)

(* observable statistics *)

val tx_count : t -> int
val rx_count : t -> int
val dropped : t -> int
