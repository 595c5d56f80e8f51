(** Adversarial-guest rig: a three-domain machine (dom0, a well-behaved
    victim, an unprivileged attacker) with every guest-facing surface the
    fuzzer drives wired up — hypercall/SVM translation, the attacker's
    grant table, a NIC model whose DMA engine reads attacker memory, and
    two paravirtual I/O channels sharing dom0's backend.

    The rig exists to check three invariants after arbitrary hostile
    input (see [docs/SECURITY.md]):

    + {b containment} — only typed faults ({!Td_xen.Guest_fault.Fault},
      {!Td_svm.Runtime.Fault}, {!Td_xen.Quota.Quota_exceeded}) escape a
      guest-driven operation;
    + {b isolation} — no victim page frame is ever reachable through the
      attacker's address space or the SVM map window;
    + {b attribution} — every injected op's cost lands in the attacker's
      ledger row and never in the victim's. *)

val fuzz_map_base : int
(** dom0 virtual window grants are fuzz-mapped into — 256 pages ending
    exactly at Xen_netio's doorbell window, colliding with nothing. *)

val fuzz_map_pages : int

type env = {
  phys : Td_mem.Phys_mem.t;
  dom0_space : Td_mem.Addr_space.t;
  hyp_space : Td_mem.Addr_space.t;
  att_space : Td_mem.Addr_space.t;
  vic_space : Td_mem.Addr_space.t;
  ledger : Td_xen.Ledger.t;
  hyp : Td_xen.Hypervisor.t;
  dom0 : Td_xen.Domain.t;
  attacker : Td_xen.Domain.t;
  victim : Td_xen.Domain.t;
  quota : Td_xen.Quota.state option;
      (** the rig's quota engine, shared by its grant table, both
          channels and the SVM window guard *)
  att_grants : Td_xen.Grant_table.t;
  svm : Td_svm.Runtime.t;
  calls : Td_svm.Call_table.t;
  kmem : Td_kernel.Kmem.t;
  att_netio : Td_kernel.Xen_netio.t;
  vic_netio : Td_kernel.Xen_netio.t;
  nic : Td_nic.E1000_dev.t;
  nic_mmio : int;
  ring_base : int;  (** attacker-memory TX descriptor ring page *)
  buf_base : int;  (** attacker-memory packet buffer page *)
  dom0_probe : int;  (** mapped dom0 heap region for SVM translate ops *)
  dom0_probe_pages : int;
  pool : (int * Td_mem.Phys_mem.frame) array;
      (** attacker pages the fuzzer grants from: (vaddr, frame) *)
  victim_frames : (Td_mem.Phys_mem.frame, unit) Hashtbl.t;
  att_wire : int ref;  (** attacker frames that reached the wire *)
  vic_wire : int ref;
}

val make : ?quota:Td_xen.Quota.limits -> ?attacker_doorbell:bool -> unit -> env
(** Build the rig. [quota] builds one {!Td_xen.Quota} engine (dom0
    exempt, simulated clock from the rig's ledger) before any
    allocation, like a real boot, and hands it to the grant table, both
    channels and the SVM window guard; omitted, nothing is checked.
    [attacker_doorbell] (default true) gives the attacker's channel a
    doorbell page pinned in always-poll, exposing the guest-writable
    sequence words as a fuzz surface. Installs the SVM window guard
    either way. *)

val isolation_violations : env -> string list
(** Sweep the attacker's address space and the SVM map window for any
    vpage resolving to a victim frame; empty list = isolated. *)

val conservation_violations : env -> string list
(** Frame-conservation check ({!Td_kernel.Xen_netio.conserved}) on both
    channels. *)

type contention = {
  victim_sent : int;  (** frames the victim pushed *)
  victim_wire : int;  (** frames that reached the wire *)
  victim_throttled : int;  (** victim frames denied — 0 if the quota is fair *)
  attacker_attempts : int;
  attacker_throttled : int;  (** attempts denied by quota *)
  attacker_row : int;  (** cycles attributed to the attacker *)
  other_cycles : int;  (** grand total minus the attacker's row *)
  grand_cycles : int;  (** total simulated cycles — the run's wall clock *)
}

val contend :
  ?quota:Td_xen.Quota.limits ->
  ?frames:int ->
  ?attack_per_frame:int ->
  ?idle_cycles:int ->
  unit ->
  contention
(** Hostile-neighbour run on a fresh rig: a paced victim (one frame then
    [idle_cycles] of think time per slot, [frames] slots) shares the
    simulated CPU with an attacker bursting [attack_per_frame] transmits
    per slot. The figure of merit is the victim's throughput —
    [victim_wire] over [grand_cycles]. With rate quotas the attacker's
    frames die at the frontend credit check before creating any skb or
    dom0 backend work, so throughput stays within a few percent of a
    solo run ([attack_per_frame = 0]); without quotas every burst frame
    takes the full path and throughput collapses. *)
