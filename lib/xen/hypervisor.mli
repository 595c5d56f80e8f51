(** The hypervisor: domain bookkeeping, world switches, hypercalls and
    virtual interrupt delivery, all with cycle accounting against the
    {!Ledger}. *)

type t

val create :
  ?costs:Sys_costs.t ->
  ledger:Ledger.t ->
  xen_space:Td_mem.Addr_space.t ->
  cpu:Td_cpu.State.t ->
  unit ->
  t

val costs : t -> Sys_costs.t
val ledger : t -> Ledger.t
val xen_space : t -> Td_mem.Addr_space.t
val cpu : t -> Td_cpu.State.t

exception No_domains of { op : string }
(** An operation needed a current domain but the hypervisor has none —
    the registry is empty, or every domain was destroyed. Typed so a
    caller can contain it per-request instead of dying on [Failure]. *)

val add_domain : t -> Domain.t -> unit

val remove_domain : t -> Domain.t -> unit
(** Drop a domain from the registry (matched by id; unknown domains are
    ignored). If it was current, the oldest remaining domain — dom0 in
    practice — becomes current and the CPU switches to its address
    space; no switch cost is charged to the departed domain. *)

(** [current ?op t] is the running domain. Raises {!No_domains} (naming
    [op]) before {!add_domain}; pass [op] so the error names the
    operation that needed a current domain. *)
val current : ?op:string -> t -> Domain.t
val domains : t -> Domain.t list

val window_guard : t -> Quota.state -> Td_svm.Runtime.window_guard
(** The SVM map-window guard for a quota engine: a window pair is charged
    ([Map_window_pages]) to the domain on whose behalf the hypervisor
    driver runs ({!current}), and released to that owner — unless the
    owner was removed since, whose quota state is already forgotten.
    [td_svm] cannot depend on this library, so worlds and harnesses
    install it from above. *)

val switches : t -> int

val switch_to : t -> Domain.t -> unit
(** Synchronous world switch: charges {!Sys_costs.domain_switch} to Xen,
    changes the CPU's address space (flushing its TLB), counts. No-op if
    already current. *)

val hypercall : t -> ?cost:int -> unit -> unit
(** Charge a hypercall entry/exit to Xen, attributed to the current
    domain's {!Ledger} row (the issuer pays). *)

val charge_xen : t -> int -> unit

val charge_xen_for : t -> domain:Domain.t -> int -> unit
(** Xen-category work performed on behalf of [domain]: charged to the
    [Xen] cell {e and} attributed to that domain's row. *)

val charge_domain : t -> Domain.t -> int -> unit
(** Charges the domain's category cell and attributes the cycles to its
    per-domain row. *)

val send_virq : t -> Domain.t -> (unit -> unit) -> unit
(** Deliver a virtual interrupt to a domain: charges event-channel cost;
    if the domain has interrupts masked the handler is queued and runs on
    unmask (§4.4), otherwise it runs now in that domain's context (with a
    switch if needed, returning to the original domain afterwards). *)

val run_in : t -> Domain.t -> (unit -> 'a) -> 'a
(** Execute [f] with [dom] current (switching there and back if needed). *)

val enter : t -> Domain.t -> Domain.t
(** [enter t dom] is the first half of {!run_in} without a closure:
    switch to [dom] if it is not current and return the domain that
    was. *)

val leave : t -> prev:Domain.t -> Domain.t -> unit
(** [leave t ~prev dom] is the second half: switch back to [prev] if
    {!enter} switched away from it. *)
