(** The unoptimised Xen network I/O path (Figure 1): paravirtual frontend
    in the guest, I/O channel, backend + bridge in dom0.

    This is the baseline the paper improves on — every packet incurs
    grant-table operations, I/O-channel ring work, event-channel
    notifications and two synchronous domain switches, all charged against
    the ledger, while the real bytes move through the simulated pages so
    delivery can be asserted end-to-end.

    Each direction — tx (guest produces, dom0 consumes) and rx (dom0
    produces, guest consumes) — is one notifier: a staging ring, a mode,
    and a way to tell its consumer. A channel takes one {!notify}
    policy, which sets both directions:

    - {b Interrupts} [{batch}]: stage up to [batch] frames, then send
      one notification — a hypercall after which the backend drains
      every staged request (tx), or a virtual interrupt that delivers
      every staged completion (rx). Each deferred frame is charged
      {!Td_xen.Sys_costs.t.notify_coalesce} instead. [batch = 1], the
      default, kicks on every frame: the paper's channel (Figure 1).
    - {b Adaptive} [{batch; entry_kicks; poll_budget}]: the channel also
      shares one granted guest page between frontend and backend,
      holding a 32-bit sequence word per direction (tx at offset 0,
      written by the guest; rx at offset 4, written by dom0). A direction
      starts in [Interrupt] mode and behaves as above; when a tick
      window sees [entry_kicks] notification boundaries it switches to
      [Polling], where the producer bumps the shared word
      ({!Td_xen.Sys_costs.t.doorbell_write}) instead of notifying, and
      the consumer's {!service} visits compare it against the last seen
      value ({!Td_xen.Sys_costs.t.doorbell_poll}) and drain up to
      [poll_budget] frames per visit, bounding how long one busy channel
      can hog the pump. After three consecutive windows with no traffic
      the direction falls back to [Interrupt], so an idle channel pays
      nothing — NAPI-style.
    - {b Always_poll} [{batch; poll_budget}]: the doorbell page with
      both directions pinned in [Polling] (the bench's upper bound).

    Under [Interrupts] no doorbell page is allocated and no direction
    leaves [Interrupt]. *)

type mode = Interrupt | Polling

type notify =
  | Interrupts of { batch : int }
  | Adaptive of { batch : int; entry_kicks : int; poll_budget : int }
  | Always_poll of { batch : int; poll_budget : int }
(** [batch] and [poll_budget] must be >= 1, [entry_kicks] >= 1. The
    staging ring is [batch] pages under [Interrupts] and
    [max batch (2 * poll_budget)] with a doorbell, so a budget-limited
    drain never leaves a staged page to be overwritten. *)

type t

val create :
  ?notify:notify ->
  ?quota:Td_xen.Quota.state ->
  hyp:Td_xen.Hypervisor.t ->
  dom0:Td_xen.Domain.t ->
  guest:Td_xen.Domain.t ->
  kmem:Kmem.t ->
  driver_tx:(int -> unit) ->
  unit ->
  t
(** [driver_tx] invokes the dom0 NIC driver's transmit routine on a
    dom0-built sk_buff, given by its address in dom0. The driver owns the
    sk_buff once [driver_tx] returns; if it raises, netback frees the
    sk_buff before passing the exception on, so a [driver_tx] that
    raises must not have freed or kept it. [notify] defaults to
    [Interrupts {batch = 1}]; raises [Invalid_argument] on a count below
    1.

    [quota] gates the guest's notifications, doorbell kicks and rx
    deliveries, and the channel's grant table; omitted, nothing is
    checked. *)

val set_guest_rx : t -> (int -> int -> unit) -> unit
(** Guest-side consumer of received frames: called as [fn addr len] with
    the guest virtual address and length of the whole frame in its
    granted receive buffer, in the guest's context. The bytes stay valid
    only during the call — the buffer is re-posted right after — so a
    consumer reads what it keeps out of simulated memory. *)

val guest_transmit : t -> hdr:string -> string -> unit
(** [guest_transmit t ~hdr payload] is the frontend transmit path for
    the frame [hdr ^ payload]. The two parts are written one after the
    other straight into a granted page, with no copy of the whole frame
    on the host; a caller that already holds a whole frame passes
    [~hdr:""]. A frame larger than a page is a typed, attributed
    {!Td_xen.Guest_fault.Fault}. The path stages the frame, pushes it
    on the I/O channel, and — once [batch] requests are pending — kicks
    the backend, which maps, forwards and unmaps each staged frame in
    ring order. In polling mode the kick is replaced by a doorbell write;
    a full staging ring stalls the frontend on an inline backend poll. *)

val post_rx_buffers : t -> int -> unit
(** Guest posts [n] granted receive buffers to the backend. *)

val rx_buffers_posted : t -> int

val deliver_to_guest : t -> int -> unit
(** Backend receive path for the dom0 sk_buff at this address, which it
    takes over: grant-copy the packet's linear data from the sk_buff
    straight into a posted guest buffer
    ({!Td_xen.Grant_table.copy_mem_to}), free the sk_buff and stage the
    completion; once [batch] completions are pending a single virtual
    interrupt delivers them all in order. Drops (and counts) when no buffer is posted. In polling
    mode the virq is replaced by a doorbell write and the guest drains
    completions from {!service}. A delivery the rx or grant-copy quota
    refuses re-posts its buffer untouched and drops the frame (see
    {!rx_throttled}).

    Staged requests, completions and posted buffers sit on FIFO rings of
    int records that grow by doubling, so a frame crosses the channel
    without host allocation. *)

val flush : t -> unit
(** Force out any staged transmit requests and receive completions even
    if the batch is not full — the timer/ring-pressure flush. No-op when
    nothing is staged. Always notifies (hypercall/virq) regardless of
    mode; prefer {!service} for the pump. *)

val service : t -> unit
(** Mode-appropriate pump step: {!flush} for interrupt-mode directions,
    a doorbell poll (draining up to [poll_budget]) for polling-mode ones.
    Identical to {!flush} under [Interrupts]. *)

val on_tick : t -> unit
(** Timer-tick entry point: runs {!service}, then advances each
    direction's window state machine (poll entry / idle-hysteresis
    fallback) under [Adaptive]. Identical to {!flush} under
    [Interrupts]. *)

val teardown : t -> unit
(** Drain both directions completely — a partial batch staged when the
    guest quiesces must still reach the wire / the guest stack. After
    teardown [staged t = 0] and {!conserved}[ t] holds. Idempotent. *)

val close : t -> unit
(** Destroy the channel: {!teardown}, then unmap the doorbell page from
    dom0 and revoke every grant the channel holds (staging ring, doorbell,
    posted rx buffers). Afterwards {!grants_active}[ t = 0], the doorbell
    window page is free for a future channel, and frontend entry points
    ({!guest_transmit}, {!post_rx_buffers}) raise a typed, attributed
    {!Td_xen.Guest_fault.Fault}; counters remain readable. Idempotent. *)

val closed : t -> bool

val grants_active : t -> int
(** Outstanding grants in the channel's grant table (0 after {!close} —
    the "no dangling grant" invariant the registry property checks). *)

val staged : t -> int
(** Frames currently staged (both directions) awaiting a notification. *)

val tx_count : t -> int

val tx_dropped : t -> int
(** Transmit frames the backend popped but lost to an exception (a grant
    map refused, or an allocator or driver exception out of [driver_tx]):
    each unmapped its page, freed the sk_buff netback built for it, and
    was counted here before the exception went on to the caller. *)

val rx_count : t -> int
val rx_dropped : t -> int

val rx_throttled : t -> int
(** Deliveries denied by the per-domain rx or grant-copy quota and
    dropped at the netback boundary (before the grant copy — a flooded
    guest costs dom0 almost nothing). Not counted in {!rx_dropped}. *)

val flushes : t -> int
(** Notifications actually sent (tx kicks + rx interrupts). *)

val tx_staged_total : t -> int
(** Frames ever staged on the transmit ring. *)

val conserved : t -> bool
(** Frame conservation: [tx_staged_total = tx_count + tx_dropped +
    staged_tx] and [rx_staged_total = rx_count + staged_rx] — nothing lost
    between frontend and backend. *)

val tx_mode : t -> mode
val rx_mode : t -> mode
(** Current per-direction mode; always [Interrupt] under [Interrupts]. *)

val doorbell_window : int * int
(** [(base, limit)] of the dom0 virtual window holding persistent
    doorbell-page mappings, one page per open channel. A registry can
    count mapped pages here to assert no channel leaked its mapping. *)

val doorbell_vaddr : t -> int option
(** Guest virtual address of the shared doorbell page ([None] under
    [Interrupts]). The page is guest-writable by construction — exposed so
    adversarial harnesses can scribble on the sequence words. *)

val doorbell_polls : t -> int
(** Doorbell visits by the consumers (both directions). *)

val suppressed_hypercalls : t -> int
(** Batch boundaries on tx where polling made the kick unnecessary. *)

val suppressed_virqs : t -> int
(** Batch boundaries on rx where polling made the virq unnecessary. *)

val mode_switches : t -> int
(** Interrupt<->Polling transitions (both directions). *)
