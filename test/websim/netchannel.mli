(** A bidirectional byte channel between a guest endpoint and a client
    machine, carried through the simulated system: every server segment
    rides a real frame down the configuration's transmit path and every
    client segment comes back up the receive path (NIC, hypervisor driver,
    demultiplexer, guest).

    This is the glue that lets {!Tcp_lite} endpoints — and anything
    built on them, like the {!Knot} web server — run over the full
    TwinDrivers data path rather than an abstract queue. *)

type t

val create : ?nic:int -> World.t -> t
(** The server endpoint lives in the world's guest; the client endpoint
    models the machine at the far end of [nic]'s wire. *)

val server : t -> Tcp_lite.t
val client : t -> Tcp_lite.t

val run :
  ?max_rounds:int -> ?on_round:(t -> unit) -> t -> until:(t -> bool) -> bool
(** Relay segments in both directions (through the simulated machine) and
    tick both endpoints until [until] holds or [max_rounds] (default
    2000) elapse; returns whether [until] was reached. [on_round] runs
    once per round (e.g. to poll a server). *)

val frames_carried : t -> int
(** Frames that crossed the simulated NIC for this channel. *)
