(** The e1000-style network driver, written in MISA assembly.

    This is the "guest OS driver" of the paper: it runs unmodified in dom0
    (the VM instance) and, after rewriting by {!Td_rewriter.Twin.derive},
    in the hypervisor. Entry points (cdecl, args pushed right-to-left):

    - [e1000_init (netdev)] — allocate the adapter, rings and receive
      buffers, program the NIC; returns the adapter address.
    - [e1000_xmit_frame (skb, netdev)] — the transmit fast path: reclaim
      completed descriptors, map the buffer for DMA, fill a descriptor,
      ring the doorbell. Returns 0 on success, 1 on drop.
    - [e1000_intr (netdev)] — the interrupt handler / receive fast path:
      read ICR, process ready receive descriptors (allocate-replace-pass
      up), refill the ring. Returns the number of packets received.
    - [e1000_clean_tx (netdev)] — reclaim transmit descriptors.
    - [e1000_watchdog (netdev)] — housekeeping: harvest NIC statistics,
      check the link (run by the VM instance on a dom0 timer).
    - [e1000_get_stats (netdev, dest)] — copy the statistics block to
      [dest] with a string move; returns its address.
    - [e1000_set_mtu (netdev, mtu)] — configuration path (ethtool-like),
      exercising many non-fast-path support routines.

    Ring sizes and the receive buffer size are compile-time constants. *)

val tx_ring_entries : int
val rx_ring_entries : int

val source : unit -> Td_misa.Program.source
(** A fresh copy of the driver source (label names are stable). *)

val entry_init : string
val entry_xmit : string
val entry_intr : string
val entry_check_link : string
(** Called through a function pointer stored in shared driver data (the
    kernel installs it after [register_netdev]); exercises the
    indirect-call translation. *)

val entry_watchdog : string
val entry_get_stats : string
val entry_set_mtu : string

val entry_set_rx_mode : string
(** [(netdev, promisc)] — clears and refills the multicast table array
    with a string store and flips RCTL's promiscuous bit; configuration
    work that always runs on the VM instance. *)
