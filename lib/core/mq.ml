(* The multi-queue simulation: one World per (guest, queue) execution
   context, an RSS demux steering flows onto contexts the way a
   multi-queue NIC steers frames onto rings, and a Shard runner
   advancing the contexts — sequentially or on OCaml domains — followed
   by a deterministic merge of the per-context cycle ledgers.

   Each context is a complete single-queue world with its own simulated
   memory, so contexts share no simulated state at all, and a context's
   queue index changes nothing inside it. Each context builds its own
   quota and fault engines from the shared tuning, so quotas and fault
   plans compose with shards > 1; the one remaining process-global a
   parallel run could race on is the metric registry, which Shard.run
   disables around the whole run (both paths). *)

module Rss = Td_nic.Rss

type t = {
  cfg : Config.t;
  tuning : Config.tuning;
  queues : int;
  rss : Rss.t;
  ctxs : World.t array;
}

let max_queues = 8

let create ?(nics = 1) ?(tuning = Config.default_tuning) cfg =
  let queues = tuning.Config.queues in
  if queues < 1 || queues > max_queues then
    invalid_arg
      (Printf.sprintf "Mq.create: queues must be 1..%d (got %d)" max_queues
         queues);
  (* Each context is a single-queue world: the multi-queue steering
     happens up here, one context per queue. *)
  let ctx_tuning = { tuning with Config.queues = 1 } in
  let ctxs =
    Array.init queues (fun _ ->
        World.create ~nics ~guests:1 ~tuning:ctx_tuning cfg)
  in
  { cfg; tuning; queues; rss = Rss.of_seed tuning.Config.rss_seed; ctxs }

let config t = t.cfg
let queues t = t.queues
let shards t = t.tuning.Config.shards

let world t ~queue =
  if queue < 0 || queue >= t.queues then
    invalid_arg (Printf.sprintf "Mq.world: queue %d out of range" queue);
  t.ctxs.(queue)

let queue_of_payload t payload =
  Rss.queue_of_payload t.rss ~queues:t.queues payload

let transmit t ~nic ~payload =
  World.transmit t.ctxs.(queue_of_payload t payload) ~nic ~payload

let inject_rx ?guest t ~nic ~payload =
  World.inject_rx ?guest t.ctxs.(queue_of_payload t payload) ~nic ~payload

let iter t f = Array.iteri (fun q w -> f ~queue:q w) t.ctxs
let pump t = iter t (fun ~queue:_ w -> World.pump w)
let tick t = iter t (fun ~queue:_ w -> World.tick w)
let shutdown t = iter t (fun ~queue:_ w -> World.shutdown w)
let reset_measurement t = iter t (fun ~queue:_ w -> World.reset_measurement w)

let run t ~job =
  Shard.run ~shards:t.tuning.Config.shards
    (Array.init t.queues (fun q () -> job ~queue:q t.ctxs.(q)))

(* Deterministic merge: always in queue index order, whatever order the
   shards finished in. The result is bit-identical for any shard
   count. *)
let merged_ledger t =
  let into = Td_xen.Ledger.create () in
  Array.iter
    (fun w -> Td_xen.Ledger.merge_into ~into (World.ledger w))
    t.ctxs;
  into

let total_cycles t =
  Array.fold_left
    (fun acc w -> acc + Td_xen.Ledger.grand_total (World.ledger w))
    0 t.ctxs

(* Contexts advance concurrently in simulated time too — each queue is
   its own (guest, queue) pipeline — so the wall the simulation "took"
   is the slowest context, not the sum. This is the number the
   multiqueue bench divides by to show throughput scaling. *)
let elapsed_cycles t =
  Array.fold_left
    (fun acc w -> Int.max acc (Td_xen.Ledger.grand_total (World.ledger w)))
    0 t.ctxs

let wire_tx_frames t =
  Array.fold_left (fun acc w -> acc + World.wire_tx_frames w) 0 t.ctxs

let wire_tx_bytes t =
  Array.fold_left (fun acc w -> acc + World.wire_tx_bytes w) 0 t.ctxs

let delivered_rx_frames t =
  Array.fold_left (fun acc w -> acc + World.delivered_rx_frames w) 0 t.ctxs

let publish_metrics t =
  if Td_obs.Control.enabled () then begin
    let set name v =
      Td_obs.Metrics.set (Td_obs.Metrics.gauge name) (float_of_int v)
    in
    set "world.shard_count" t.tuning.Config.shards;
    set "world.shard_queues" t.queues;
    set "world.shard_elapsed_cycles" (elapsed_cycles t);
    set "world.shard_total_cycles" (total_cycles t)
  end
