(** Wire endpoints: what sits on the other side of each NIC.

    The paper's testbed connects each server NIC to a dedicated client
    machine over a gigabit link. For throughput experiments the client is
    an abstract traffic sink/source with byte and frame counters. *)

type counters = { mutable frames : int; mutable bytes : int }

val fresh_counters : unit -> counters

val sink : counters -> bytes -> int -> unit
(** [sink c buf len] is a counting sink suitable as a NIC's [tx_frame]:
    it counts one frame of [len] bytes and never reads [buf], which the
    NIC reuses after the call. *)

val null : bytes -> int -> unit

val wire_limit_mbps : packet_bytes:int -> nics:int -> float
(** Aggregate wire-limited throughput in Mb/s of payload. *)

