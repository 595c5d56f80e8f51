(** Grant tables: the Xen mechanism by which a guest authorises the driver
    domain to map or copy one of its page frames. Used by the baseline
    (unoptimised) netfront/netback path, whose grant operations are a
    documented source of overhead in the paper's §2. *)

type grant_ref = int

type t

val create : ?quota:Quota.state -> owner:Domain.t -> unit -> t
(** A table for [owner]'s grants. With [quota], entries, mappings and
    copy bytes are charged to [owner] on that engine; without, nothing
    is checked. *)

val grant : t -> frame:Td_mem.Phys_mem.frame -> grant_ref
(** Guest-side: make a frame available. Subject to the
    {!Quota.Grant_entries} cap when the table has a quota engine. *)

val revoke : t -> grant_ref -> unit
(** Guest-side: take the page back — always succeeds for a live ref.
    Mappings still active are forcibly torn down and their window vpages
    poisoned, so the {e later accessor} (a stale read/write through the
    old mapping, a stale {!unmap}) gets a deterministic typed
    {!Guest_fault.Fault} instead of silently aliasing the reclaimed page.
    The ref is tombstoned: any subsequent use faults as
    ["revoked grant ref"]. *)

val map : t -> hyp:Hypervisor.t -> into:Domain.t -> at_vpage:int -> grant_ref -> unit
(** dom0-side: map the granted frame; charges {!Sys_costs.grant_map},
    attributed to the owner domain's ledger row. Faults (typed) on a bad
    or revoked ref, or if [at_vpage] is already mapped in [into] — a
    guest-chosen vpage must never clobber an existing mapping. *)

val unmap : t -> hyp:Hypervisor.t -> from:Domain.t -> at_vpage:int -> grant_ref -> unit
(** Faults (typed) unless [r] is currently mapped at exactly
    [at_vpage] in [from] — an arbitrary vpage must never silently unmap
    another grant's (or the kernel's) page. *)

val copy_to :
  t ->
  hyp:Hypervisor.t ->
  grant_ref ->
  offset:int ->
  src:bytes ->
  unit
(** Hypervisor-mediated [gnttab_copy] into the granted frame; charges
    per-byte copy cost to Xen (attributed to the owner). Faults (typed)
    when [offset]/length run past the page — guest-controlled bounds are
    validated, never trusted. With a quota engine the length is first
    taken from the owner's {!Quota.Grant_copy_bytes} bucket; a dry bucket
    raises {!Quota.Quota_exceeded}. Every check runs before the first
    byte moves, so a refused copy leaves the frame untouched. *)

val copy_mem_to :
  t ->
  hyp:Hypervisor.t ->
  grant_ref ->
  offset:int ->
  space:Td_mem.Addr_space.t ->
  addr:int ->
  len:int ->
  unit
(** [copy_mem_to t ~hyp r ~offset ~space ~addr ~len] is {!copy_to} of
    the [len] bytes at [addr] in [space], read straight into the granted
    frame with no intermediate buffer (netback's receive copy out of a
    dom0 sk_buff). The checks, faults, charge and metric are
    {!copy_to}'s own. *)

val copy_from :
  t -> hyp:Hypervisor.t -> grant_ref -> offset:int -> len:int -> bytes
(** [gnttab_copy] out of the granted frame, with {!copy_to}'s checks and
    charges. *)

val active : t -> int
(** Number of outstanding grants. *)

val maps : t -> int
(** Total map operations performed (for overhead accounting tests). *)
