(** The multi-queue simulation, and the only multi-queue model: the
    simulated e1000 itself has one ring pair.

    An {!Mq.t} is an array of {!World.t} execution contexts — one per
    NIC queue, each a complete single-queue world with its own
    simulated memory — plus an RSS demux ({!Td_nic.Rss}) that steers
    whole flows onto contexts. Contexts share no simulated state, and a
    context's queue index changes nothing inside it: each context's
    ledger equals a plain {!World.t} driven with the same traffic.

    {!run} advances the contexts with {!Shard.run}: sequentially when
    [tuning.shards <= 1], else round-robin over that many OCaml 5
    domains. {!merged_ledger} then folds the per-context cycle ledgers
    in queue index order, so simulated time, metric counters and the
    figure numbers are bit-identical for any shard count — sharding
    changes host wall-clock only. *)

type t

val create : ?nics:int -> ?tuning:Config.tuning -> Config.t -> t
(** One single-queue world per [tuning.queues] (1..8),
    each created by {!World.create} with [tuning.queues = 1] and one
    guest. Each context builds its own engines from
    [tuning.quota] and [tuning.fault_plan], so quotas and fault plans
    compose with any shard count and sequential and sharded runs stay
    bit-identical. *)

val config : t -> Config.t
val queues : t -> int
val shards : t -> int

val world : t -> queue:int -> World.t
(** The execution context for one queue. *)

val queue_of_payload : t -> string -> int
(** Where the RSS demux steers a payload (IPv4 header at offset 0). *)

val transmit : t -> nic:int -> payload:string -> bool
(** {!World.transmit} on the context selected by {!queue_of_payload} —
    XPS-style: a flow transmits on the queue its receive side hashes
    to. *)

val inject_rx : ?guest:int -> t -> nic:int -> payload:string -> unit
(** {!World.inject_rx} on the context selected by {!queue_of_payload}. *)

val pump : t -> unit
val tick : t -> unit
val shutdown : t -> unit
val reset_measurement : t -> unit
(** Each applies the corresponding {!World} operation to every context,
    in queue index order. *)

val run : t -> job:(queue:int -> World.t -> 'a) -> 'a array
(** Advance every context with [job], distributed by {!Shard.run}
    according to [tuning.shards]; results in queue index order.
    Observability is off for the duration (both paths — see
    {!Shard.run}). Jobs must confine themselves to their own context. *)

val merged_ledger : t -> Td_xen.Ledger.t
(** A fresh ledger holding the fold of every context's ledger, merged
    in queue index order ({!Td_xen.Ledger.merge_into}) — deterministic
    regardless of how the shards were scheduled. *)

val total_cycles : t -> int
(** Sum of the per-context ledger grand totals: total simulated work. *)

val elapsed_cycles : t -> int
(** Max of the per-context grand totals: the queues advance in parallel
    in simulated time, so elapsed time is the slowest context. The
    multiqueue bench's throughput denominator. *)

val wire_tx_frames : t -> int
val wire_tx_bytes : t -> int
val delivered_rx_frames : t -> int
(** Sums over all contexts. *)

val publish_metrics : t -> unit
(** Set the [world.shard_*] gauges (shard count, queue count, elapsed
    and total cycles) when observability is enabled. *)
