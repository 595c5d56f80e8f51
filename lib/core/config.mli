(** The four system configurations evaluated in the paper (§6). *)

type t =
  | Native_linux  (** bare-metal Linux: kernel + original driver *)
  | Xen_dom0  (** the driver domain itself doing the I/O on Xen *)
  | Xen_domU  (** unoptimised guest: netfront / netback / bridge *)
  | Xen_twin  (** guest with the TwinDrivers hypervisor driver *)

val name : t -> string
val all : t list
val of_string : string -> t option

(** What the supervisor does when a driver instance aborts (SVM fault,
    page fault, watchdog timeout, failed upcall). *)
type recovery =
  | Fail_stop
      (** historical behaviour: the abort propagates as
          {!World.Driver_aborted} and the port moves to the terminal
          [World.Failed] state. *)
  | Restart
      (** every port [World.Recovering] while the twin instance is torn
          down and re-initialised from shadow state on the images the
          world booted with, then
          [World.Serving] again; in-flight TX frames are dropped and
          counted in [fault.lost_frames]. *)
  | Restart_replay
      (** like [Restart], but the frame whose transmit aborted is
          replayed once on the fresh instance ([fault.replayed]). *)

val recovery_name : recovery -> string
val recovery_of_string : string -> recovery option
val all_recoveries : recovery list

(** Performance knobs orthogonal to the configuration choice. *)
type tuning = {
  map_window_pages : int;
      (** SVM mapped-page window size in pages (two per mapped pair);
          smaller windows reclaim cold pairs sooner. Xen_twin only. *)
  notify_batch : int;
      (** TX/RX event notifications coalesced per hypercall / virtual
          interrupt (1 = kick every frame, the paper's baseline).
          Flushed on ring pressure, {!World.pump} and {!World.tick}. *)
  recovery : recovery;  (** driver supervisor policy on abort. *)
  doorbell : bool;
      (** Give each I/O channel a shared doorbell page with NAPI-style
          adaptive mode switching: each channel's policy becomes
          {!Xen_netio.notify}'s [Adaptive] (or [Always_poll], see
          [poll_entry_kicks]) in place of [Interrupts {batch =
          notify_batch}]. Off by default. Xen_domU only. *)
  poll_entry_kicks : int;
      (** Notification boundaries per tick window before a direction
          switches from interrupts to polling (default 8); [<= 0] pins
          always-poll. Ignored unless [doorbell]. A world's channels
          fall back to interrupts after 3 empty windows and drain at
          most 16 frames per doorbell visit. *)
  quota : Td_xen.Quota.limits option;
      (** Per-domain resource quotas (map-window pages, grant entries and
          maps, upcall/notification/doorbell rates, rx deliveries,
          grant-copy bytes), enforced against every domain except dom0.
          [None] (the default) configures no engine: nothing is
          checked and runs are bit-identical to the pre-quota system.
          The world builds its own engine and hands it to its grant
          tables, I/O channels, upcall stubs and map-window guard, so N
          worlds — and N parallel shards — enforce independently. *)
  fault_plan : Td_fault.plan option;
      (** Fault-injection plan for this world. The world builds its own
          engine from it at creation, boots with it suspended (boot
          draws nothing) and hands it to its SVM runtimes, interpreter,
          NICs and upcall stubs, so N worlds — and N parallel shards —
          inject independently. [None] (the default) injects nothing;
          the world then owns a {!Td_fault.zero_plan} engine that only
          counts its lost frames. *)
  queues : int;
      (** Execution contexts of an {!Mq} run (default 1, at most 8): one
          single-queue world per queue, with flows steered onto them by
          the RSS demux. {!World.create} requires 1 — the simulated NIC
          has one ring pair. *)
  shards : int;
      (** OCaml domains used by {!Mq} to advance independent
          (guest, queue) execution contexts in parallel (default 1 =
          sequential). The merged cycle ledger is bit-identical for any
          shard count — sharding changes host wall-clock only. *)
  rss_seed : int;
      (** Seed expanded into the 40-byte Toeplitz key of the RSS demux;
          the same seed and 4-tuple always select the same queue. *)
}

val default_tuning : tuning
(** Full 16 MB window, batch 1, fail-stop, doorbell off, no quotas —
    identical behaviour to the pre-supervisor system. *)
