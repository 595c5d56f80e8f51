(** System-level cycle-cost calibration constants.

    The MISA interpreter measures driver cycles directly; everything the
    simulator does not execute instruction-by-instruction (kernel protocol
    stacks, Xen's context-switch machinery, grant tables, the I/O channel)
    is charged through these constants. They are calibrated so the four
    configurations land near the per-packet profiles of the paper's
    Figures 7 and 8 on a 3.0 GHz machine; see DESIGN.md. What the
    reproduction claims is the *shape* — ratios between configurations —
    not the absolute values. *)

type t = {
  (* kernel protocol stack (TCP/IP + socket + sk_buff management) *)
  kernel_tx_path : int;  (** per packet, transmit side *)
  kernel_rx_path : int;  (** per packet, receive side *)
  (* bare-metal vs paravirtualised kernel *)
  virt_overhead_tx : int;
      (** extra per-packet cost of running the network stack on Xen
          (paravirtual MMU ops, interrupt virtualisation), charged to
          Xen's category on each Xen_dom0 transmit. Only the Xen_dom0
          configuration pays it: the guest configurations' Xen costs are
          their I/O-path constants below. *)
  virt_overhead_rx : int;
      (** the same, on each packet Xen_dom0's [netif_rx] receives *)
  (* Xen primitives *)
  hypercall : int;
  domain_switch : int;  (** synchronous world switch incl. TLB fallout *)
  event_channel : int;  (** virtual interrupt delivery *)
  interrupt_dispatch : int;  (** hardware interrupt entering Xen *)
  softirq_schedule : int;
  (* driver-domain I/O path (the unoptimised domU configuration) *)
  grant_map : int;
  grant_unmap : int;
  grant_copy_per_byte : float;
  io_channel : int;  (** ring operation per packet, each direction *)
  bridge : int;  (** dom0 software bridge per packet *)
  netback : int;
  netfront : int;
  dom0_tx_kernel : int;
      (** dom0 kernel work forwarding a guest transmit beyond
          netback/bridge (device layer, queueing) *)
  dom0_rx_kernel : int;  (** dom0-side receive forwarding work *)
  (* TwinDrivers paravirtual path *)
  twin_skb_acquire : int;  (** grab a preallocated dom0 sk_buff *)
  twin_frag_chain : int;  (** chain guest pages into the sk_buff *)
  copy_per_byte : float;  (** hypervisor copy to/from guest buffers *)
  twin_demux : int;  (** MAC demultiplexing on receive *)
  twin_rx_queue : int;
      (** queueing the packet and scheduling the guest for delivery
          (§5.3: packets are queued and copied when the guest runs) *)
  (* upcalls *)
  upcall_stack_switch : int;
  upcall_return : int;
  (* support routines executed natively in a kernel *)
  support_routine : int;  (** average cost of a support routine body *)
  (* mapped-page window lifecycle *)
  window_reclaim : int;
      (** evicting one page-pair from the SVM map window: stlb
          invalidation, two unmaps, hash-chain maintenance and the invlpg
          fallout — the software-shootdown cost the reclaim policy
          amortises over cold pages *)
  (* batched notifications *)
  notify_coalesce : int;
      (** per frame staged without a kick when notifications are batched:
          the producer checks the consumer's pending bit instead of
          trapping. With batch size N the notification cost per frame is
          [notify_coalesce + (hypercall or event_channel) / N] — the
          amortisation the window×batch bench sweep measures *)
  (* shared-memory doorbell data path *)
  doorbell_write : int;
      (** producer-side doorbell ring: a store of the next sequence
          number into the shared doorbell page (plus the memory barrier),
          replacing a [hypercall] / [event_channel] notification while
          the consumer is polling *)
  doorbell_poll : int;
      (** consumer-side doorbell check: read the shared sequence word,
          compare against the last observed value and branch — paid once
          per poll-loop visit, whether or not work was found *)
}

val default : t
