type result = {
  config : Config.t;
  packets : int;
  frame_bytes : int;
  cycles_per_packet : float;
  breakdown : (Td_xen.Ledger.category * float) list;
  throughput_mbps : float;
  cpu_limited_mbps : float;
  cpu_utilisation : float;
  drops : int;
  metrics : (string * float) list;
}

(* While observability is on, Ledger.charge mirrors every charge into the
   registry and reset_measurement zeroes both — so at the end of a run the
   mirror counters must equal the ledger totals exactly. A mismatch means
   an instrumentation site bypassed the ledger (or vice versa). *)
let cross_check ledger =
  List.iter
    (fun c ->
      let name = Td_xen.Ledger.metric_name c in
      let mirrored = Td_obs.Metrics.counter_value name in
      let authoritative = Td_xen.Ledger.total ledger c in
      if mirrored <> authoritative then
        failwith
          (Printf.sprintf
             "Measure: observability cross-check failed: %s holds %d cycles \
              but the ledger charged %d to %s"
             name mirrored authoritative
             (Td_xen.Ledger.category_name c)))
    Td_xen.Ledger.categories

let mtu_payload = 1500
let eth_header = 14

let payload_pattern n = String.init n (fun i -> Char.chr (i land 0xff))

let finish w ~packets ~payload_bytes ~counted ~drops =
  let ledger = World.ledger w in
  let frame_bytes = payload_bytes + eth_header in
  let total = Td_xen.Ledger.grand_total ledger in
  let counted = Int.max 1 counted in
  let cpp = float_of_int total /. float_of_int counted in
  let freq = float_of_int Td_cpu.Cost_model.frequency_hz in
  let cpu_pps = freq /. cpp in
  let wire_pps =
    Td_nic.E1000_dev.effective_rate_bps ~packet_bytes:frame_bytes
    /. float_of_int (8 * frame_bytes)
    *. float_of_int (World.nic_count w)
  in
  let actual_pps = min cpu_pps wire_pps in
  let mbps pps = pps *. float_of_int (8 * payload_bytes) /. 1e6 in
  let metrics =
    if Td_obs.Control.enabled () then begin
      cross_check ledger;
      Td_obs.Metrics.snapshot ()
    end
    else []
  in
  {
    config = World.config w;
    packets;
    frame_bytes;
    cycles_per_packet = cpp;
    breakdown = Td_xen.Ledger.per_packet ledger ~packets:counted;
    throughput_mbps = mbps actual_pps;
    cpu_limited_mbps = mbps cpu_pps;
    cpu_utilisation = actual_pps /. cpu_pps;
    drops;
    metrics;
  }

let run_transmit ?(packets = 1000) ?(payload_bytes = mtu_payload)
    ?(warmup = 64) w =
  let payload = payload_pattern payload_bytes in
  let nics = World.nic_count w in
  let send i = World.transmit w ~nic:(i mod nics) ~payload in
  for i = 0 to warmup - 1 do
    ignore (send i);
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  World.reset_measurement w;
  let drops = ref 0 in
  for i = 0 to packets - 1 do
    if not (send i) then incr drops;
    (* interrupt mitigation: service transmit-completion interrupts in
       batches of eight packets *)
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  let counted = World.wire_tx_frames w in
  finish w ~packets ~payload_bytes ~counted ~drops:!drops

let run_receive ?(packets = 1000) ?(payload_bytes = mtu_payload)
    ?(warmup = 64) w =
  let payload = payload_pattern payload_bytes in
  let nics = World.nic_count w in
  let recv i =
    World.inject_rx w ~nic:(i mod nics) ~payload;
    (* the NIC raises RXT0 per frame; service in small batches *)
    if i mod 4 = 3 then World.pump w
  in
  for i = 0 to warmup - 1 do
    recv i
  done;
  World.pump w;
  World.reset_measurement w;
  for i = 0 to packets - 1 do
    recv i
  done;
  World.pump w;
  let counted = World.delivered_rx_frames w in
  finish w ~packets ~payload_bytes ~counted ~drops:(packets - counted)

let speedup a b = a.cpu_limited_mbps /. b.cpu_limited_mbps

let pp_result fmt r =
  Format.fprintf fmt
    "%-10s %8.0f Mb/s (cpu-scaled %8.0f Mb/s, util %5.1f%%, %7.0f cycles/pkt%s)"
    (Config.name r.config) r.throughput_mbps r.cpu_limited_mbps
    (100.0 *. r.cpu_utilisation)
    r.cycles_per_packet
    (if r.drops > 0 then Printf.sprintf ", %d drops" r.drops else "")

let pp_breakdown fmt r =
  Format.fprintf fmt "%-10s" (Config.name r.config);
  List.iter
    (fun (c, v) ->
      Format.fprintf fmt "  %s %7.0f" (Td_xen.Ledger.category_name c) v)
    r.breakdown;
  Format.fprintf fmt "  total %7.0f" r.cycles_per_packet
