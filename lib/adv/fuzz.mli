(** Deterministic adversarial-guest fuzzer. Drives a seeded stream of
    malformed guest operations from the unprivileged attacker domain of a
    {!Harness.env} against five surfaces:

    - {b hypercalls / SVM translation} — wild addresses at
      {!Td_svm.Runtime.translate} and {!Td_svm.Call_table.translate};
    - {b grant refs} — bogus, revoked and cross-lifetime refs,
      wrong-vpage unmaps, revoke-while-mapped, out-of-bounds
      [gnttab_copy];
    - {b NIC descriptor rings} — guest-writable descriptor scribbles,
      hostile ring geometry, misaligned MMIO;
    - {b I/O channel / doorbell} — oversized frames, sequence-word
      scribbles, pump entry points at arbitrary moments;
    - {b domain lifecycle churn} — ephemeral guests booted and destroyed
      mid-run (own address space and I/O channel each), frontend entry
      points poked after {!Td_kernel.Xen_netio.close}, double closes —
      every destroy asserts the channel left zero dangling grants.

    After {e every} op it asserts containment (only the typed
    {!Td_xen.Guest_fault.Fault}, {!Td_svm.Runtime.Fault},
    {!Td_xen.Quota.Quota_exceeded} escape) and attribution (attacker's
    ledger row grew, victim's did not); every 1024 ops and at the end it
    sweeps the isolation and frame-conservation invariants. All
    randomness is a private 63-bit xorshift ({!Td_fault}'s generator):
    same seed, same op stream, same {!report.checksum} — replays are
    bit-identical. *)

type report = {
  ops : int;  (** ops actually executed *)
  ok : int;
  guest_faults : int;  (** contained [Guest_fault.Fault] *)
  svm_faults : int;  (** contained [Td_svm.Runtime.Fault] *)
  quota_denials : int;  (** contained [Quota.Quota_exceeded] *)
  churned : int;  (** ephemeral domains created (and later destroyed) *)
  checksum : int;  (** deterministic fold over (surface, outcome) *)
  violations : string list;  (** empty on a clean run *)
  quota : Td_xen.Quota.state option;
      (** the run's quota engine ({!Harness.env.quota}), for reading its
          per-domain counters *)
}

val run : ?seed:int -> ?quota:Td_xen.Quota.limits -> ops:int -> unit -> report
(** Build a fresh {!Harness.env} (with a [quota] engine if given) and run
    [ops] fuzzed operations. [seed] defaults to 1. The [adv.*] metrics
    are bumped when observability is on; with it off the run leaves no
    trace beyond the returned report. *)
