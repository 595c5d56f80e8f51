(** Driver invocation and the driver supervisor (§4.5): every call into
    a driver instance runs through here, charging the ledger's driver
    category and turning an instance fault into
    {!World_state.Driver_aborted}; the supervisor catches the abort,
    moves every live port to [Recovering], rebuilds the instance(s) from
    shadow state and, for transmits, applies the tuning's drop-or-replay
    policy. It alone writes a port's {!World_state.port_state}. *)

val run_dom0_driver : World_state.t -> entry:int -> int -> int
(** [run_dom0_driver w ~entry a0] runs the dom0/VM instance's one-argument
    entry point, in dom0 on the Xen paths. No driver call allocates on the
    host unless it aborts. *)

val run_dom0_driver2 : World_state.t -> entry:int -> int -> int -> int
(** The same for a two-argument entry point. *)

val run_hyp_driver : World_state.t -> entry:int -> int -> int
(** Run the hypervisor instance's (Xen_twin) one-argument entry point on
    the hypervisor stack. *)

val run_hyp_driver2 : World_state.t -> entry:int -> int -> int -> int
(** The same for a two-argument entry point. *)

val init_port : World_state.t -> World_state.nic_port -> unit
(** Initialise one port's driver instance from the dom0 side: e1000_init,
    the adapter's link-check function pointer, and the shadow
    configuration (none at boot). *)

val serving : World_state.t -> nic:int -> bool
(** The port is [Serving]: the one liveness test every {!World} entry
    point asks. *)

val admit : World_state.t -> nic:int -> unit
(** Raise {!World_state.Nic_quarantined} unless the port is [Serving]. *)

val invoke :
  World_state.t -> nic:int -> (World_state.t -> nic:int -> 'a -> int) -> 'a -> unit
(** [invoke w ~nic f a] runs [f w ~nic a], one supervised interrupt or
    watchdog invocation: an abort recovers, or under {!Config.Fail_stop}
    fails the port and propagates. [f] is a static function, so a call
    that does not abort builds no closure. *)

val transmit :
  World_state.t ->
  nic:int ->
  (World_state.t -> nic:int -> 'a -> 'b -> bool) ->
  'a ->
  'b ->
  bool
(** [transmit w ~nic attempt a b] runs [attempt w ~nic a b], one
    supervised transmit attempt, dropped or replayed after an abort as
    {!Config.tuning.recovery} says. *)

val control : World_state.t -> nic:int -> (unit -> 'a) -> 'a
(** A supervised control call on a serving port ({!admit}), retried once
    on the fresh instance after a recovery; a second abort fails the port
    and raises {!World_state.Nic_quarantined}. *)

val watchdog : World_state.t -> nic:int -> unit
(** The watchdog timer's work on a serving port: hang detection (a stuck
    TX DMA engine restarts the instance), then the driver's own watchdog
    routine. *)
