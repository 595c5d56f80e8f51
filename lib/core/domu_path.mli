(** The unmodified-guest data path (Xen_domU): netfront/netback channel
    pairs, the dom0 bridge that forwards received frames to them, and the
    guest send both {!World.transmit} and {!World.transmit_from} use. *)

open World_state

val boot : t -> xen -> Td_kernel.Bridge.t -> unit
(** Attach boot guest 0's channel on every NIC, route its vif MACs to
    its NIC 0 channel, install dom0's bridging [netif_rx] and switch to
    the guest. {!World_state.Config_error} for a world with no NIC. *)

val add_guest :
  t ->
  xen ->
  Td_kernel.Bridge.t ->
  guest_slot ->
  guest:int ->
  nic:int option ->
  unit
(** Attach a runtime guest's one channel ([slot mod nics], or [nic]) and
    enter its vif MACs in the fdb. *)

val remove_guest : xen -> Td_kernel.Bridge.t -> guest_slot -> guest:int -> unit
(** Close the guest's channels, drop its bridge ports and fdb entries,
    and remove its hypervisor domain. *)

val netio_on : t -> nic:int -> (int * Td_kernel.Xen_netio.t) option
(** Guest 0's (NIC, channel) entry on [nic]. *)

val transmit : t -> nic_port -> nic:int -> payload:string -> bool
(** Guest 0 sends on its channel to [nic]'s port, under the port's
    header; {!World_state.Config_error} when it has none. *)

val transmit_from :
  ?nic:int -> t -> guest_slot -> guest:int -> payload:string -> bool
(** The guest in the slot sends on its first channel (or the one on
    [nic]), under its own vif header. *)
