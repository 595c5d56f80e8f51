(* Unit tests for the doorbell page and NAPI-style adaptive mode
   switching on the Xen I/O channel: state transitions under a synthetic
   kick trace, poll-budget fairness across channels, cross-mode
   bit-identity with the doorbell off, and teardown conservation. *)

open Td_xen
open Td_kernel

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let mode_c =
  Alcotest.testable
    (fun fmt m ->
      Format.pp_print_string fmt
        (match m with
        | Xen_netio.Interrupt -> "interrupt"
        | Xen_netio.Polling -> "polling"))
    ( = )

type rig = {
  hyp : Hypervisor.t;
  dom0 : Domain.t;
  guest : Domain.t;
  km : Kmem.t;
  netio : Xen_netio.t;
  driver_frames : int list ref;
}

let make_rig ?notify () =
  let m = Harness.make_machine () in
  let ledger = Ledger.create () in
  let cpu = Harness.dom0_cpu m in
  let hyp = Hypervisor.create ~ledger ~xen_space:m.Harness.hyp ~cpu () in
  let dom0 =
    Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
      ~space:m.Harness.dom0
  in
  let gspace = Td_mem.Addr_space.create ~name:"guest" m.Harness.phys in
  Td_mem.Addr_space.heap_init gspace ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let guest =
    Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace
  in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp guest;
  let km = Kmem.create m.Harness.dom0 in
  let driver_frames = ref [] in
  let netio =
    Xen_netio.create ?notify ~hyp ~dom0 ~guest ~kmem:km
      ~driver_tx:(fun skb -> driver_frames := skb :: !driver_frames)
      ()
  in
  { hyp; dom0; guest; km; netio; driver_frames }

let adaptive ?(batch = 1) ?(entry_kicks = 4) ?(poll_budget = 8) () =
  Xen_netio.Adaptive { batch; entry_kicks; poll_budget }

(* idle -> polling -> idle under a synthetic kick trace: a burst of
   per-frame kicks crosses the entry threshold at the tick boundary;
   polling suppresses subsequent kicks; idle hysteresis falls back *)
let test_mode_transitions () =
  let rig = make_rig ~notify:(adaptive ~entry_kicks:4 ()) () in
  let io = rig.netio in
  Hypervisor.switch_to rig.hyp rig.guest;
  check mode_c "starts interrupt-driven" Xen_netio.Interrupt
    (Xen_netio.tx_mode io);
  (* window 1: four frames at batch=1 = four kicks, at the threshold *)
  for _ = 1 to 4 do
    Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'a')
  done;
  check int_c "burst was interrupt-driven" 4 (Xen_netio.flushes io);
  Xen_netio.on_tick io;
  check mode_c "entered polling at the window boundary" Xen_netio.Polling
    (Xen_netio.tx_mode io);
  (* window 2: polling — no kicks, frames sit staged until a poll *)
  for _ = 1 to 3 do
    Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'b')
  done;
  check int_c "no further notifications" 4 (Xen_netio.flushes io);
  check int_c "frames staged, not flushed" 3 (Xen_netio.staged io);
  check int_c "suppressed kicks counted" 3
    (Xen_netio.suppressed_hypercalls io);
  Xen_netio.service io;
  check int_c "poll drained the staged frames" 7 (Xen_netio.tx_count io);
  check bool_c "doorbell was visited" true (Xen_netio.doorbell_polls io > 0);
  (* the next tick closes the window that carried the burst; only then
     do idle windows start counting toward the hysteresis of three *)
  Xen_netio.on_tick io;
  check mode_c "traffic window closed, still polling" Xen_netio.Polling
    (Xen_netio.tx_mode io);
  Xen_netio.on_tick io;
  Xen_netio.on_tick io;
  check mode_c "two idle windows keep polling" Xen_netio.Polling
    (Xen_netio.tx_mode io);
  Xen_netio.on_tick io;
  check mode_c "fell back after idle hysteresis" Xen_netio.Interrupt
    (Xen_netio.tx_mode io);
  check int_c "two transitions recorded" 2 (Xen_netio.mode_switches io);
  (* traffic is interrupt-driven again *)
  Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'c');
  check int_c "kick resumed" 5 (Xen_netio.flushes io)

(* the rx direction runs the same state machine, driven by completions *)
let test_rx_mode_transitions () =
  let rig = make_rig ~notify:(adaptive ~entry_kicks:4 ()) () in
  let io = rig.netio in
  let got = ref 0 in
  Xen_netio.set_guest_rx io (fun _ _ -> incr got);
  Xen_netio.post_rx_buffers io 8;
  let deliver () =
    Xen_netio.deliver_to_guest io
      (Harness.skb_of_string rig.km (Domain.space rig.dom0) "frame")
  in
  for _ = 1 to 4 do
    deliver ()
  done;
  Xen_netio.on_tick io;
  check mode_c "rx entered polling" Xen_netio.Polling (Xen_netio.rx_mode io);
  for _ = 1 to 3 do
    deliver ()
  done;
  check int_c "completions staged, no virq" 3 (Xen_netio.staged io);
  check int_c "suppressed virqs counted" 3 (Xen_netio.suppressed_virqs io);
  Xen_netio.service io;
  check int_c "poll delivered the completions" 7 !got;
  (* one tick closes the traffic window, three idle ticks trip the
     hysteresis *)
  Xen_netio.on_tick io;
  Xen_netio.on_tick io;
  Xen_netio.on_tick io;
  check mode_c "rx still polling inside the hysteresis" Xen_netio.Polling
    (Xen_netio.rx_mode io);
  Xen_netio.on_tick io;
  check mode_c "rx fell back after hysteresis" Xen_netio.Interrupt
    (Xen_netio.rx_mode io)

(* poll budget bounds the work one channel gets per visit, so the pump
   round-robins fairly between two busy channels *)
let test_poll_budget_fairness () =
  let m = Harness.make_machine () in
  let ledger = Ledger.create () in
  let cpu = Harness.dom0_cpu m in
  let hyp = Hypervisor.create ~ledger ~xen_space:m.Harness.hyp ~cpu () in
  let dom0 =
    Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
      ~space:m.Harness.dom0
  in
  let gspace = Td_mem.Addr_space.create ~name:"guest" m.Harness.phys in
  Td_mem.Addr_space.heap_init gspace ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let guest =
    Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace
  in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp guest;
  let km = Kmem.create m.Harness.dom0 in
  (* always-poll, budget 2: each service visit drains at most two *)
  let notify = Xen_netio.Always_poll { batch = 1; poll_budget = 2 } in
  let mk () =
    Xen_netio.create ~notify ~hyp ~dom0 ~guest ~kmem:km
      ~driver_tx:(fun skb -> Skb.free_at km m.Harness.dom0 skb)
      ()
  in
  let a = mk () and b = mk () in
  Hypervisor.switch_to hyp guest;
  for _ = 1 to 3 do
    Xen_netio.guest_transmit a ~hdr:"" (String.make 64 'a');
    Xen_netio.guest_transmit b ~hdr:"" (String.make 64 'b')
  done;
  check int_c "a staged" 3 (Xen_netio.staged a);
  check int_c "b staged" 3 (Xen_netio.staged b);
  (* one pump round: each channel gets exactly one budget's worth *)
  Xen_netio.service a;
  Xen_netio.service b;
  check int_c "a drained a budget" 2 (Xen_netio.tx_count a);
  check int_c "b drained a budget" 2 (Xen_netio.tx_count b);
  (* second round clears the leftovers; neither channel starved *)
  Xen_netio.service a;
  Xen_netio.service b;
  check int_c "a complete" 3 (Xen_netio.tx_count a);
  check int_c "b complete" 3 (Xen_netio.tx_count b);
  check bool_c "a conserved" true (Xen_netio.conserved a);
  check bool_c "b conserved" true (Xen_netio.conserved b)

(* with the doorbell configured but both directions in interrupt mode,
   every cycle charged is identical to the doorbell-off channel *)
let test_cross_mode_bit_identity () =
  let run rig =
    let io = rig.netio in
    let led = Hypervisor.ledger rig.hyp in
    Ledger.reset led;
    Hypervisor.switch_to rig.hyp rig.guest;
    let got = ref 0 in
    Xen_netio.set_guest_rx io (fun _ _ -> incr got);
    Xen_netio.post_rx_buffers io 8;
    for i = 1 to 10 do
      Xen_netio.guest_transmit io ~hdr:"" (String.make (100 + i) 'x')
    done;
    for _ = 1 to 5 do
      Xen_netio.deliver_to_guest io
        (Harness.skb_of_string rig.km (Domain.space rig.dom0) ~size:512
           (String.make 300 'r'))
    done;
    Xen_netio.on_tick io;
    (Ledger.grand_total led, Xen_netio.tx_count io, !got)
  in
  (* entry threshold far above the offered kick rate: the adaptive
     channel never leaves interrupt mode *)
  let off = run (make_rig ~notify:(Xen_netio.Interrupts { batch = 4 }) ()) in
  let on_ =
    run (make_rig ~notify:(adaptive ~batch:4 ~entry_kicks:1_000_000 ()) ())
  in
  let cyc (c, _, _) = c and txc (_, t, _) = t and rxc (_, _, r) = r in
  check int_c "same frames on the wire" (txc off) (txc on_);
  check int_c "same frames delivered" (rxc off) (rxc on_);
  check int_c "cycle-identical with the doorbell idle" (cyc off) (cyc on_)

(* a partial batch staged at guest quiesce must be delivered by
   teardown, in whatever mode each direction is in *)
let test_teardown_flushes_partial_batches () =
  let rig =
    make_rig
      ~notify:(Xen_netio.Always_poll { batch = 8; poll_budget = 2 })
      ()
  in
  let io = rig.netio in
  let got = ref 0 in
  Xen_netio.set_guest_rx io (fun _ _ -> incr got);
  Xen_netio.post_rx_buffers io 8;
  Hypervisor.switch_to rig.hyp rig.guest;
  (* stage partial batches both ways: 5 tx (< batch and > poll budget),
     3 rx completions *)
  for _ = 1 to 5 do
    Xen_netio.guest_transmit io ~hdr:"" (String.make 64 't')
  done;
  for _ = 1 to 3 do
    Xen_netio.deliver_to_guest io
      (Harness.skb_of_string rig.km (Domain.space rig.dom0) "rx")
  done;
  check int_c "partial batches staged" 8 (Xen_netio.staged io);
  Xen_netio.teardown io;
  check int_c "nothing left staged" 0 (Xen_netio.staged io);
  check int_c "all tx reached the driver" 5 (Xen_netio.tx_count io);
  check int_c "all rx reached the guest" 3 !got;
  check bool_c "conservation holds" true (Xen_netio.conserved io);
  check int_c "tx accounted" (Xen_netio.tx_staged_total io)
    (Xen_netio.tx_count io);
  (* idempotent *)
  Xen_netio.teardown io;
  check int_c "still quiescent" 0 (Xen_netio.staged io)

(* the same invariant at World level, through shutdown *)
let test_world_adaptive_and_shutdown () =
  let open Twindrivers in
  let tuning =
    {
      Config.default_tuning with
      Config.doorbell = true;
      poll_entry_kicks = 4;
    }
  in
  let w = World.create ~nics:1 ~tuning Config.Xen_domU in
  let payload = String.make 200 'p' in
  for _ = 1 to 3 do
    for i = 1 to 16 do
      ignore (World.transmit w ~nic:0 ~payload);
      if i mod 8 = 0 then World.pump w
    done;
    World.pump w;
    World.tick w
  done;
  check mode_c "world channel crossed into polling" Td_kernel.Xen_netio.Polling
    (World.netio_tx_mode w ~nic:0);
  ignore (World.transmit w ~nic:0 ~payload);
  World.shutdown w;
  check int_c "nothing staged after shutdown" 0 (World.staged_frames w);
  check bool_c "frames conserved" true (World.netio_conserved w);
  check int_c "every frame reached the wire" 49 (World.wire_tx_frames w);
  (* one tick closes the last traffic window, three idle ticks (a
     world's hysteresis) bring the channel back to interrupts *)
  World.tick w;
  World.tick w;
  World.tick w;
  check mode_c "still polling inside the hysteresis" Td_kernel.Xen_netio.Polling
    (World.netio_tx_mode w ~nic:0);
  World.tick w;
  check mode_c "fell back at world level" Td_kernel.Xen_netio.Interrupt
    (World.netio_tx_mode w ~nic:0)

(* a domU world without NICs has no I/O channel: a typed configuration
   error naming the domain, not a bare Failure *)
let test_config_error_without_nics () =
  let open Twindrivers in
  check bool_c "typed error on create" true
    (match World.create ~nics:0 Config.Xen_domU with
    | exception World.Config_error { domain; reason } ->
        domain = "guest0"
        && String.length reason > 0
        (* the printer is registered, so diagnostics name the domain *)
        && (try
              ignore
                (Printexc.to_string
                   (World.Config_error { domain; reason }));
              true
            with _ -> false)
    | _ -> false)

let suite =
  [
    Alcotest.test_case "tx mode transitions idle->poll->idle" `Quick
      test_mode_transitions;
    Alcotest.test_case "rx mode transitions" `Quick test_rx_mode_transitions;
    Alcotest.test_case "poll-budget fairness across channels" `Quick
      test_poll_budget_fairness;
    Alcotest.test_case "cross-mode bit-identity" `Quick
      test_cross_mode_bit_identity;
    Alcotest.test_case "teardown flushes partial batches" `Quick
      test_teardown_flushes_partial_batches;
    Alcotest.test_case "world adaptive + shutdown conservation" `Quick
      test_world_adaptive_and_shutdown;
    Alcotest.test_case "config error without nics" `Quick
      test_config_error_without_nics;
  ]
