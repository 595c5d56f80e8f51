(** A complete simulated machine in one of the four evaluated
    configurations: physical memory, address spaces, the Xen hypervisor
    (where applicable), dom0 with its kernel substrate, an optional guest,
    five (by default) e1000 NICs, and the driver — original or twinned —
    loaded and initialised.

    The packet-level API ([transmit], [inject_rx], [pump]) moves real
    bytes through the simulated system while the cycle ledger accumulates
    per-category costs; benchmarks derive throughput and the Figure 7/8
    breakdowns from it. *)

type t

val create :
  ?nics:int ->
  ?guests:int ->
  ?upcall_set:string list ->
  ?pool_entries:int ->
  ?costs:Td_xen.Sys_costs.t ->
  ?spill_everything:bool ->
  ?rewrite_style:Td_rewriter.Rewrite.style ->
  ?cache_probes:bool ->
  ?map_pairs:bool ->
  ?tuning:Config.tuning ->
  Config.t ->
  t
(** [guests] (default 1) creates that many guest domains (Xen_twin: the
    hypervisor demultiplexes received packets among them by destination
    MAC, §5.3); guests after the first are added by {!create_guest}. [upcall_set] (Xen_twin only) lists fast-path support
    routines that are demoted to upcalls — the Figure 10 experiment.
    [pool_entries] sizes the hypervisor's preallocated sk_buff pool; its
    buffers are pinned in the SVM map window, and a window they fill
    raises [Invalid_argument].
    [spill_everything], [rewrite_style] and [map_pairs] select the
    DESIGN.md ablations (Xen_twin only). [tuning] (default
    {!Config.default_tuning}) sets the SVM map-window size and the
    notification batch factor; batching changes only when notifications
    are sent, never the frame payloads or their order. The world builds
    its own quota and fault engines from [tuning.quota] and
    [tuning.fault_plan] and hands them to the components that check
    them; boot runs with the fault engine suspended, so it draws
    nothing, but charges the quota engine.

    A world's NICs have one ring pair each, so [tuning.queues] must be 1
    ([Invalid_argument] otherwise). Multi-queue runs go through {!Mq},
    which builds one single-queue world per queue; every world owns its
    own simulated memory, so those worlds share no state. *)

val config : t -> Config.t
val nic_count : t -> int
val ledger : t -> Td_xen.Ledger.t
val support : t -> Td_kernel.Support.t
val kmem : t -> Td_kernel.Kmem.t
val dom0_space : t -> Td_mem.Addr_space.t
val adapter : t -> nic:int -> Td_driver.Adapter.t
val netdev : t -> nic:int -> Td_kernel.Netdev.t

val svm : t -> Td_svm.Runtime.t option
(** The hypervisor instance's SVM runtime (Xen_twin only). *)

val twin_stats : t -> Td_rewriter.Rewrite.stats option
val pool : t -> Td_kernel.Skb_pool.t option
val hypervisor : t -> Td_xen.Hypervisor.t option

(* traffic *)

val transmit : t -> nic:int -> payload:string -> bool
(** Push one packet down the configuration's full transmit path; [false]
    when the driver dropped it. The frame on the wire carries an ethernet
    header around [payload]. *)

val transmit_from : ?nic:int -> t -> guest:int -> payload:string -> bool
(** Xen_domU only: transmit [payload] from guest slot [guest]'s own
    netfront channel (its first channel, or the one on [nic] when given).
    [false] when the frame was dropped or the guest's quota denied it; a
    dead guest index or a guest with no channel raises a typed, attributed
    {!Td_xen.Guest_fault.Fault}. *)

val inject_rx : ?guest:int -> t -> nic:int -> payload:string -> unit
(** A frame arrives from the wire addressed to this configuration's
    consumer (guest [guest]'s vif MAC for Xen_twin). Processing happens
    at the next {!pump}. *)

val pump : t -> unit
(** Service pending NIC interrupts (and anything they cascade into). *)

(* the domain registry *)

val create_guest : ?nic:int -> t -> int
(** Register a new guest domain at runtime and return its slot index:
    fresh address space and heap, hypervisor entry, credit-scheduler
    entry, ledger row on first charge, vif MACs on every NIC. For
    Xen_domU a netfront channel is attached (striped over the NICs as
    [slot mod nics], or pinned to [nic]) and its backend port enters the
    bridge fdb. Slots are never reused — at most 256 over a world's
    lifetime ({!Config_error} beyond that, or for configurations without
    guests). *)

val destroy_guest : t -> guest:int -> unit
(** Tear the guest down completely: deliver its queued twin-path frames,
    drain and {!Td_kernel.Xen_netio.close} its channels (revoking every
    grant and unmapping its doorbell page from dom0), remove its bridge
    port and fdb/demux entries, drop it from the scheduler and the
    hypervisor, forget its quota buckets, fold its ledger row into the
    [Ledger.retired_row] aggregate, and free its frames. The slot becomes
    a tombstone: a stale index faults typed
    ({!Td_xen.Guest_fault.Fault}), and conservation still holds across
    the destruction. *)

val guest_alive : t -> guest:int -> bool

val guest_slots : t -> int
(** Slots ever allocated (live + tombstones); slot indices are
    [0 .. guest_slots - 1]. *)

(* observation *)

val wire_tx_frames : t -> int
val wire_tx_bytes : t -> int
val delivered_rx_frames : t -> int
val delivered_rx_frames_to : t -> guest:int -> int
(** Frames delivered to the named slot since the last
    {!reset_measurement} (0 for tombstones — the count dies with the
    guest). *)

val guest_count : t -> int
(** Live guest domains (tombstones excluded). *)

val delivered_rx_bytes : t -> int

val rx_last_payload : t -> string option
(** Most recent payload delivered to the consumer. Kept for diagnostics:
    use {!rx_pop} to drain frames without losing any. *)

val rx_pop : t -> string option
(** Pop the oldest undelivered received payload. Every frame handed to
    the consumer is queued here in delivery order; popping is how
    netchannel (and tests) consume traffic without dropping frames that
    arrived in the same pump. *)

val rx_drops : t -> int
(** Frames discarded because the receive queue was full (each also bumps
    the ["world.rx_drops"] counter when observability is on). *)

val tx_lost_frames : t -> int
(** Transmits that neither reached the wire nor raised: dropped by the
    path (the driver's ring full or lock taken, the sk_buff pool empty, a
    guest's quota spent), dropped by the supervisor after an abort, or
    stranded in a TX ring that recovery reset. *)

val reset_measurement : t -> unit
(** Zero the ledger and traffic counters (driver/NIC state persists).
    When observability is enabled this also resets the {!Td_obs.Metrics}
    registry and clears the {!Td_obs.Trace} ring, so metrics snapshotted
    at the end of a run cover exactly the measured window. *)

(* housekeeping paths (run in dom0 by the VM instance) *)

val tick : t -> unit
(** Advance the dom0 kernel's timer wheel one tick; every ten ticks the
    driver watchdog runs for each NIC — in dom0, on the VM instance, as
    §3.1 prescribes. For Xen_domU the tick also services each I/O channel
    and is the adaptive doorbell's window boundary (poll entry /
    idle-hysteresis fallback, see {!Td_kernel.Xen_netio}). *)

val shutdown : t -> unit
(** Guest quiesce: drain every I/O channel completely (both directions,
    whatever mode each is in) so partially staged notification batches
    are delivered, not dropped. After shutdown [staged_frames t = 0].
    Idempotent; the world remains usable. *)

val staged_frames : t -> int
(** Frames staged on all I/O channels awaiting notification or poll. *)

val netio_conserved : t -> bool
(** Frame conservation over all I/O channels
    ({!Td_kernel.Xen_netio.conserved}). *)

val netio_suppressed_hypercalls : t -> int
val netio_suppressed_virqs : t -> int
val netio_mode_switches : t -> int

val netio_tx_mode : t -> nic:int -> Td_kernel.Xen_netio.mode

(* per-world engines *)

val fault_engine : t -> Td_fault.Engine.state
(** This world's fault engine (a zero-plan one when [tuning.fault_plan]
    is [None]): its injection and lost-frame counters, and
    {!Td_fault.Engine.suspend} to mask injection around a stretch of
    traffic. *)

val fault_injected : t -> int
(** Injections drawn by this world's fault engine. *)

val quota_throttled : t -> int
(** Quota denials on this world's engine (0 without [tuning.quota]). *)

val doorbell_pages_mapped : t -> int
(** Doorbell pages currently mapped in dom0's doorbell window — one per
    open doorbell channel; the "no dangling mapping" invariant is that
    this returns to its prior value after a {!destroy_guest}. *)

val run_watchdog : t -> nic:int -> unit
val read_stats : t -> nic:int -> int array
(** The driver's statistics block (tx_packets, tx_bytes, rx_packets,
    rx_bytes, tx_dropped, rx_alloc_fail, watchdog_runs, stats_mpc),
    copied out by [e1000_get_stats]'s string move. *)

val run_set_mtu : t -> nic:int -> mtu:int -> unit
val run_set_rx_mode : t -> nic:int -> promisc:bool -> unit
val mask_dom0_interrupts : t -> unit
val unmask_dom0_interrupts : t -> unit

val cpu_state : t -> Td_cpu.State.t
(** The simulated CPU (for diagnostics). *)

val interp : t -> Td_cpu.Interp.t
(** The interpreter driving all driver executions in this world — attach
    a {!Td_cpu.Profiler} to it for per-routine cycle profiles. *)

exception Driver_aborted of string
(** Raised when the hypervisor driver instance faults (SVM violation or
    watchdog timeout); the hypervisor survives — only the driver dies.
    Under the {!Config.Fail_stop} recovery policy the abort propagates to
    the caller and the port moves to [Failed]; under [Restart] /
    [Restart_replay] the supervisor restarts the twin and callers see
    [None]-style degradation (a dropped frame, a retried config call)
    instead of the exception. *)

(* driver supervisor (§4.5) *)

exception Nic_quarantined of { nic : int }
(** Raised by the traffic and housekeeping entry points when the named
    NIC's port is not [Serving] ({!port_state}). *)

exception Config_error of { domain : string; reason : string }
(** A structurally impossible configuration (e.g. a domU world with no
    NIC, hence no I/O channel to attach the frontend to), attributed to
    the domain it concerns. Raised from {!create} and from {!transmit} —
    typed, so callers can report it instead of dying on a bare
    [Failure]. *)

val recoveries : t -> int
(** Completed supervisor recoveries since the last
    {!reset_measurement}. *)

val guest_faults : t -> int
(** {!Td_xen.Guest_fault.Fault}s raised inside this world's driver
    invocations and contained as driver aborts, since creation. A fault
    that escapes the supervisor is not counted. *)

val replayed_frames : t -> int
(** TX frames replayed on a fresh instance ([Restart_replay] only). *)

type port_state = World_state.port_state =
  | Serving
  | Recovering
      (** every live port, while the supervisor restarts the twin *)
  | Failed of string
      (** terminal: a {!Config.Fail_stop} abort, a control call that
          aborted again on the fresh instance, or a rebuild that aborted;
          carries that abort's reason *)

val port_state : t -> nic:int -> port_state
(** Only the supervisor changes it. *)

val all_serviceable : t -> bool
(** Every port is [Serving] — the 50k-frame soak's exit criterion. *)

val shadow_mtu : t -> nic:int -> int
val shadow_promisc : t -> nic:int -> bool
(** The supervisor's shadow copy of guest-applied configuration, captured
    on the live {!run_set_mtu} / {!run_set_rx_mode} paths and re-applied
    after a restart. *)
