(** Driver invocation and the driver supervisor (§4.5): every call into
    a driver instance runs through here, charging the ledger's driver
    category and turning an instance fault into
    {!World_state.Driver_aborted}; the supervisor catches the abort,
    quarantines every port, rebuilds the instance(s) from shadow state
    and, for transmits, applies the tuning's drop-or-replay policy. *)

val run_driver :
  World_state.t -> entry:int -> args:int list -> stack:int -> int
(** Run one driver entry point on [stack] in the current domain. *)

val run_dom0_driver : World_state.t -> entry:int -> args:int list -> int
(** Run the dom0/VM instance, in dom0 on the Xen paths. *)

val run_hyp_driver : World_state.t -> entry:int -> args:int list -> int
(** Run the hypervisor instance (Xen_twin) on the hypervisor stack. *)

val install_link_fn : World_state.t -> World_state.nic_port -> unit
(** Point the adapter's link-check function at the VM-instance code. *)

val supervised :
  World_state.t -> nic:int -> (unit -> 'a) -> 'a option
(** [None] when the invocation aborted and the world recovered; under
    {!Config.Fail_stop} the abort propagates with the port quarantined. *)

val check_hang : World_state.t -> nic:int -> unit
(** The watchdog's hang detection: a stuck TX DMA engine restarts the
    instance. *)

val run_tx : World_state.t -> nic:int -> (unit -> bool) -> bool
(** One supervised transmit attempt, dropped or replayed after an abort
    as {!Config.tuning.recovery} says. *)

val supervised_retry : World_state.t -> nic:int -> (unit -> 'a) -> 'a
(** A supervised control call, retried once on the fresh instance after
    a recovery; a second abort raises {!World_state.Nic_quarantined}. *)
