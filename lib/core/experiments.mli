(** One entry point per table/figure of the paper's evaluation (§6).

    Each function builds fresh worlds, drives the workload, and returns
    structured results; the bench harness prints them next to the paper's
    numbers (EXPERIMENTS.md records both). *)

(** Figures 5/6: netperf-like TCP stream over five NICs. *)

val fig5_transmit : ?packets:int -> unit -> (Config.t * Measure.result) list
val fig6_receive : ?packets:int -> unit -> (Config.t * Measure.result) list

(** Figures 7/8: single-NIC per-packet cycle breakdown. *)

val fig7_tx_breakdown : ?packets:int -> unit -> (Config.t * Measure.result) list
val fig8_rx_breakdown : ?packets:int -> unit -> (Config.t * Measure.result) list

val profile_tx : ?packets:int -> unit -> Td_cpu.Profiler.t
(** §6.2's per-routine profile: a profiler attached to a fresh one-NIC
    twin world while it transmits [packets] (default 300) 1500-byte
    frames, pumping after every eighth and once at the end. *)

(** Figure 9: web-server workload, open-loop request sweep. *)

type web_point = { rate : float; mbps : float; completed : int; timed_out : int }

val fig9_webserver :
  ?rates:float list ->
  ?requests:int ->
  unit ->
  (Config.t * web_point list) list
(** [requests] defaults to 2.5 seconds' worth at each offered rate. *)

(** Figure 10: transmit throughput as fast-path routines are demoted to
    upcalls. Returns (routines demoted, measured upcalls per driver
    invocation, CPU-scaled Mb/s). *)

type upcall_point = {
  demoted : string list;
  upcalls_per_invocation : float;
  mbps : float;
}

val fig10_upcall_cost : ?packets:int -> unit -> upcall_point list

(** Table 1: trace the support routines invoked on the error-free
    transmit/receive fast path of the hypervisor instance, and the full
    set exercised across all driver operations. *)

type table1 = {
  fast_path_called : string list;  (** called in hypervisor context *)
  all_called : string list;  (** across init/config/housekeeping too *)
  registry_size : int;  (** total support routines (paper: 97) *)
}

val table1_fast_path : unit -> table1

(** §6.5 engineering effort; §4.1/§6.2 static and dynamic rewrite facts. *)

type rewrite_report = {
  stats : Td_rewriter.Rewrite.stats;
  memory_fraction : float;  (** paper: ~25% *)
  native_driver_cpp : float;  (** cycles/packet in the driver, tx path *)
  rewritten_driver_cpp : float;
  slowdown : float;  (** paper: 2-3x *)
}

val rewrite_report : ?packets:int -> unit -> rewrite_report

(** Sensitivity of the headline result to the calibration constants:
    the transmit speedup (twin over unoptimised guest) re-measured while
    scaling the world-switch cost and the kernel-path cost. The paper's
    conclusion should not hinge on any single constant. *)

type sensitivity_point = {
  switch_scale : float;
  kernel_scale : float;
  tx_speedup : float;  (** domU-twin over domU, CPU-scaled *)
}

val sensitivity : ?packets:int -> unit -> sensitivity_point list

(** Map-window × notification-batch sweep: for each (window size, batch
    factor) cell, measure the twin transmit path (hypercall kicks
    amortise with the batch), the receive path (virtual interrupts
    amortise the same way), then soak the SVM map window with a working
    set twice its size to exercise the clock reclaim. Requires
    observability to be enabled for the hypercall/virq rates. *)

type window_batch_point = {
  window_pages : int;  (** SVM map window size, in pages *)
  batch : int;  (** notifications coalesced per kick *)
  tx_cycles_per_packet : float;
  tx_hypercalls_per_packet : float;
  tx_hypercall_cycles_per_packet : float;
      (** hypercall-category cycles per frame — must fall monotonically
          with [batch] *)
  rx_virqs_per_packet : float;
  window_reclaims : int;  (** pairs evicted during the soak *)
  window_pages_in_use : int;  (** mapped pages left after the soak *)
}

val window_batch :
  ?packets:int ->
  ?windows:int list ->
  ?batches:int list ->
  unit ->
  window_batch_point list

(** Doorbell / adaptive-polling sweep (docs/DOORBELL.md): the domU
    transmit path at several offered loads (frames per tick window) under
    three notification disciplines — the interrupt-driven seed channel,
    the adaptive doorbell, and always-poll. Each point asserts the
    teardown invariants (nothing staged after {!World.shutdown}, frame
    conservation). Requires observability for the hypercall/virq rates. *)

type doorbell_point = {
  db_mode : string;  (** "interrupt" | "adaptive" | "always-poll" *)
  offered_per_window : int;  (** frames transmitted per tick window *)
  db_packets : int;  (** frames that reached the wire *)
  db_cycles_total : int;
      (** whole-run ledger total — the idle-cost comparator when
          [offered_per_window = 0] *)
  db_cycles_per_packet : float;  (** 0 at zero load *)
  hypercalls_per_packet : float;
  virqs_per_packet : float;
  db_doorbell_polls : int;
  db_suppressed_hypercalls : int;  (** kicks the doorbell made unnecessary *)
  db_suppressed_virqs : int;
  db_mode_switches : int;
  final_tx_mode : string;  (** tx direction's mode when the run ended *)
  db_tx_lat_samples : int;  (** per-direction latency samples recorded *)
  db_rx_lat_samples : int;
  db_tx_p50 : float;
      (** nearest-rank percentiles over the per-direction channel
          latencies (simulated cycles, staging to delivery), at the
          ledger histogram's resolution (at most 1/64 high); 0 when no
          samples were recorded *)
  db_tx_p99 : float;
  db_rx_p50 : float;
  db_rx_p99 : float;
}

val doorbell :
  ?windows:int ->
  ?warmup_windows:int ->
  ?loads:int list ->
  unit ->
  doorbell_point list

(** Multi-queue / sharded-simulation bench (docs/MULTIQUEUE.md), 2048
    frames per leg: leg A sweeps the queue count (1, 2, 4, 8) with
    sequential execution and reports
    simulated transmit throughput (near-linear scaling expected — the
    contexts advance concurrently in simulated time, so elapsed cycles
    are the max per-context total); leg B fixes eight queues and sweeps
    the shard count (1, 2, 4), measuring host wall-clock with [clock] (pass
    [Unix.gettimeofday]; simulated results must digest identically for
    every shard count); leg C checks the feature-off aggregate is
    indistinguishable from a plain unsharded world. *)

type mq_queue_point = {
  mq_queues : int;
  mq_wire_frames : int;
  mq_wire_bytes : int;
  mq_elapsed_cycles : int;  (** max over the per-context ledgers *)
  mq_total_cycles : int;  (** sum over the per-context ledgers *)
  mq_sim_mbps : float;  (** wire bits over elapsed simulated seconds *)
}

type mq_shard_point = {
  mq_shards : int;
  mq_wall_s : float;  (** host wall-clock of the sharded run only *)
  mq_digest : string;  (** canonical merged-ledger digest *)
}

type mq_report = {
  mq_points_queues : mq_queue_point list;
  mq_points_shards : mq_shard_point list;
  mq_speedup_at_4 : float;
      (** wall(1 shard) / wall(4 shards); 0 when either point is
          missing. Only meaningful on a host with >= 4 cores. *)
  mq_ledger_bit_identical : bool;
      (** every shard count produced the same merged-ledger digest *)
  mq_single_queue_identical : bool;  (** leg C *)
}

val multiqueue : ?clock:(unit -> float) -> unit -> mq_report

(** Ablations (DESIGN.md §5). *)

type ablation = { label : string; tx_cpu_scaled_mbps : float; note : string }

val ablations : ?packets:int -> unit -> ablation list

(** Fault-injection recovery sweep (docs/FAULTS.md): a transmit soak with
    periodic receive traffic and timer ticks, run for each (recovery
    policy, fault rate) cell. [rate] 0.0 runs with no plan configured at
    all — the bit-identity baseline. Availability is wire-delivered TX
    frames over offered frames; receive-side losses show up in [lost]
    instead. *)

type recovery_point = {
  policy : Config.recovery;
  fault_rate : float;  (** the sweep knob feeding the per-site plan *)
  offered : int;
  delivered : int;  (** frames that reached the wire *)
  aborted : int;  (** transmits that raised [World.Driver_aborted] *)
  refused : int;
      (** transmits that raised [World.Nic_quarantined]: their port was
          not [Serving] *)
  availability : float;  (** delivered / offered *)
  injected : int;  (** faults actually fired, all sites *)
  recoveries : int;
  replayed : int;
  lost : int;  (** frames charged to [fault.lost_frames], rx and tx *)
  tx_lost : int;
      (** {!World.tx_lost_frames}. Barring register bit flips (see
          docs/FAULTS.md), offered = delivered + tx_lost + aborted +
          refused *)
  contained : int;
      (** aborts and refusals raised by the soak's receive injection,
          pump, tick and shutdown calls *)
  guest_faults : int;  (** typed guest faults contained during the soak *)
  frames_to_recover : float option;
      (** mean undelivered frames per recovery; [None] with no recovery *)
  failed : (int * string) list;
      (** the ports that ended [World.Failed], with the reason; every other
          port ends [Serving] *)
}

val soak_plan : seed:int -> float -> Td_fault.plan
(** The per-site plan a soak derives from its rate knob: the knob is the
    probability per frame-sized unit of work, scaled per site by how
    often that site's opportunity comes up. *)

val recovery_soak :
  ?frames:int ->
  ?seed:int ->
  policy:Config.recovery ->
  rate:float ->
  unit ->
  recovery_point

val recovery_sweep :
  ?frames:int ->
  ?rates:float list ->
  ?policies:Config.recovery list ->
  ?seed:int ->
  unit ->
  recovery_point list

(** N-domain fleet scenarios (docs/FLEET.md): an open-loop soak over a
    registry of up to 256 guest domains on one world, mixing three
    heterogeneous traffic shapes — assigned per slot as [slot mod 3] —
    with per-domain quotas, a fault plan with [Restart_replay] recovery,
    and runtime domain churn ({!World.destroy_guest} followed by a
    replacement {!World.create_guest} while traffic flows). *)

type fleet_shape =
  | Bulk_stream  (** steady 1500-byte transmit stream *)
  | Rpc_burst  (** bursts of eight 64-byte transmits, bursty pacing *)
  | Incast  (** receive fan-in: wire arrivals converging on the guest *)

type fleet_report = {
  fl_domains : int;  (** fleet size (live domains at any instant) *)
  fl_frames : int;  (** frames moved: TX offered + RX injected *)
  fl_offered_tx : int;
  fl_delivered_tx : int;  (** TX frames that reached the wire *)
  fl_rx_injected : int;
  fl_rx_delivered : int;  (** RX frames delivered into guests *)
  fl_availability : float;  (** delivered TX / offered TX — the CI gate *)
  fl_throttled : int;  (** quota denials (this world's engine) *)
  fl_injected : int;  (** faults fired (this world's engine) *)
  fl_recoveries : int;
  fl_contained : int;
      (** calls that raised [World.Driver_aborted] or
          [World.Nic_quarantined], counted and not propagated *)
  fl_churned : int;  (** destroy+replace cycles completed *)
  fl_live_at_end : int;
  fl_tx_p50 : float;
  fl_tx_p99 : float;
  fl_tx_p999 : float;  (** I/O-channel TX latency percentiles, cycles *)
  fl_rx_p50 : float;
  fl_rx_p99 : float;
  fl_rx_p999 : float;
  fl_conserved : bool;  (** frame conservation over every channel *)
  fl_staged_after_shutdown : int;  (** must be 0 *)
  fl_dangling_doorbells : int;
      (** doorbell pages mapped in dom0 beyond one per open channel —
          non-zero means a destroyed guest leaked its mapping *)
  fl_digest : string;  (** canonical digest of the whole observable run *)
  fl_deterministic : bool;  (** every run produced [fl_digest] *)
  fl_frames_allocated : int;  (** physical frames allocated at the end *)
  fl_frames_resident : int;
      (** of those, frames with their own buffer; the rest were never
          written and share the zero page *)
}

val fleet :
  ?domains:int ->
  ?frames:int ->
  ?nics:int ->
  ?seed:int ->
  ?churn:int ->
  ?quota:bool ->
  ?fault_rate:float ->
  ?runs:int ->
  unit ->
  fleet_report
(** Defaults: 200 domains, 1M frames, 4 NICs, 32 churn cycles, quotas
    on, fault rate 5e-4, [runs = 2] (the second run re-executes the
    identical soak on a fresh world and must reproduce the digest bit
    for bit). Raises [Invalid_argument] when [domains] exceeds the
    256-slot registry cap. The report is the first run's. *)
