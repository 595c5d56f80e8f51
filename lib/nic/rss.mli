(** Receive-side scaling: deterministic Toeplitz hashing of the
    connection 4-tuple onto queues, as multi-queue NICs do it. {!Mq}
    steers flows onto its per-queue worlds with it; the simulated e1000
    itself has one ring pair and no demux.

    Everything here is a pure function of the seed and the packet
    bytes — no global state, no [Random] — so the same (seed, flow)
    pair selects the same queue on every run, every host, and under
    every shard count. The sharded simulation's deterministic merge
    ({!Mq}) relies on exactly this. *)

type tuple = {
  src_ip : int;
  dst_ip : int;
  src_port : int;
  dst_port : int;
}

type t

val of_seed : int -> t
(** Expand a small seed into the 40-byte hash key (xorshift stream;
    seed 0 is remapped to a fixed non-zero constant). *)

val key : t -> string
(** The expanded key bytes, for inspection. *)

val hash : t -> tuple -> int
(** 32-bit Toeplitz hash over the big-endian 12-byte
    (src ip, dst ip, src port, dst port) input. *)

val queue_of_hash : int -> queues:int -> int
(** Hardware-style indirection: the low 7 hash bits index a 128-entry
    table holding the identity spread over [queues]. *)

val queue_of_payload : t -> queues:int -> string -> int
(** The queue {!hash} and {!queue_of_hash} select for a payload. *)

val ipv4_udp_payload : ?len:int -> tuple -> string
(** Build a minimal IPv4/UDP packet carrying the given 4-tuple, padded
    to [len] bytes (default 64, minimum 28). Benches and tests use this
    to make flows that {!queue_of_payload} (the {!Mq} front) steers by
    their tuple. *)
