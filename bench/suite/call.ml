(* The public World/Mq entry points the workloads drive, each wrapped in
   a span while tracing is on. With tracing off a wrapper is one branch
   and a direct call, allocating nothing, so the untraced run measures
   the library alone. *)

open Twindrivers

let s_create = Span.register "World.create"
let s_create_guest = Span.register "World.create_guest"
let s_destroy_guest = Span.register "World.destroy_guest"
let s_transmit = Span.register "World.transmit"
let s_transmit_from = Span.register "World.transmit_from"
let s_inject_rx = Span.register "World.inject_rx"
let s_pump = Span.register "World.pump"
let s_tick = Span.register "World.tick"
let s_rx_pop = Span.register "World.rx_pop"
let s_reset = Span.register "World.reset_measurement"
let s_shutdown = Span.register "World.shutdown"
let s_mq_create = Span.register "Mq.create"
let s_mq_run = Span.register "Mq.run"
let s_mq_reset = Span.register "Mq.reset_measurement"
let s_mq_shutdown = Span.register "Mq.shutdown"

let create ?nics ?guests ?tuning cfg =
  if not !Span.on then World.create ?nics ?guests ?tuning cfg
  else Span.wrap s_create (fun () -> World.create ?nics ?guests ?tuning cfg)

let create_guest w =
  if not !Span.on then World.create_guest w
  else Span.wrap s_create_guest (fun () -> World.create_guest w)

let destroy_guest w ~guest =
  if not !Span.on then World.destroy_guest w ~guest
  else Span.wrap s_destroy_guest (fun () -> World.destroy_guest w ~guest)

let transmit w ~nic ~payload =
  if not !Span.on then World.transmit w ~nic ~payload
  else Span.wrap s_transmit (fun () -> World.transmit w ~nic ~payload)

let transmit_from w ~guest ~payload =
  if not !Span.on then World.transmit_from w ~guest ~payload
  else Span.wrap s_transmit_from (fun () -> World.transmit_from w ~guest ~payload)

let inject_rx ?guest w ~nic ~payload =
  if not !Span.on then World.inject_rx ?guest w ~nic ~payload
  else Span.wrap s_inject_rx (fun () -> World.inject_rx ?guest w ~nic ~payload)

let pump w =
  if not !Span.on then World.pump w else Span.wrap s_pump (fun () -> World.pump w)

let tick w =
  if not !Span.on then World.tick w else Span.wrap s_tick (fun () -> World.tick w)

let rx_pop w =
  if not !Span.on then World.rx_pop w
  else Span.wrap s_rx_pop (fun () -> World.rx_pop w)

let reset_measurement w =
  if not !Span.on then World.reset_measurement w
  else Span.wrap s_reset (fun () -> World.reset_measurement w)

let shutdown w =
  if not !Span.on then World.shutdown w
  else Span.wrap s_shutdown (fun () -> World.shutdown w)

let mq_create ?nics ?tuning cfg =
  if not !Span.on then Mq.create ?nics ?tuning cfg
  else Span.wrap s_mq_create (fun () -> Mq.create ?nics ?tuning cfg)

(* [Mq.run] switches observability off for its whole duration (the
   metric registry is not domain-safe), so a traced run would see no
   counters from the contexts. Traced, the same jobs therefore run here
   in queue order on the calling domain — exactly [Mq.run]'s sequential
   path minus the obs switch. The traced run checks that this yields the
   untraced run's digest. *)
let mq_run t ~job =
  if not !Span.on then Mq.run t ~job
  else
    Span.wrap s_mq_run (fun () ->
        Array.init (Mq.queues t) (fun queue -> job ~queue (Mq.world t ~queue)))

let mq_reset_measurement t =
  if not !Span.on then Mq.reset_measurement t
  else Span.wrap s_mq_reset (fun () -> Mq.reset_measurement t)

let mq_shutdown t =
  if not !Span.on then Mq.shutdown t
  else Span.wrap s_mq_shutdown (fun () -> Mq.shutdown t)
