(* Unit tests for the baseline Xen I/O path (netfront / I/O channel /
   netback) in isolation from the full World. *)

open Td_xen
open Td_kernel

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

type rig = {
  hyp : Hypervisor.t;
  dom0 : Domain.t;
  guest : Domain.t;
  km : Kmem.t;
  netio : Xen_netio.t;
  driver_frames : int list ref;
}

let make_rig ?batch ?quota ?driver_tx () =
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
  let guest = Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp guest;
  let km = Kmem.create m.Harness.dom0 in
  let driver_frames = ref [] in
  let netio =
    Xen_netio.create
      ?notify:(Option.map (fun batch -> Xen_netio.Interrupts { batch }) batch)
      ?quota ~hyp ~dom0 ~guest ~kmem:km
      ~driver_tx:
        (match driver_tx with
        | Some f -> f
        | None -> fun skb -> driver_frames := skb :: !driver_frames)
      ()
  in
  { hyp; dom0; guest; km; netio; driver_frames }

let test_guest_transmit_reaches_driver () =
  let rig = make_rig () in
  Hypervisor.switch_to rig.hyp rig.guest;
  let frame = "0123456789" ^ String.make 200 't' in
  Xen_netio.guest_transmit rig.netio ~hdr:"" frame;
  (match !(rig.driver_frames) with
  | [ skb ] ->
      check bool_c "driver got the exact bytes" true
        (Bytes.to_string (Skb.contents_at (Domain.space rig.dom0) skb) = frame)
  | _ -> Alcotest.fail "expected exactly one skb");
  check int_c "tx counted" 1 (Xen_netio.tx_count rig.netio);
  (* the path cost the expected machinery: grant map + unmap happened,
     and the guest->dom0->guest switches are visible *)
  check bool_c "world switches happened" true (Hypervisor.switches rig.hyp >= 2);
  check bool_c "returned to the guest" true
    (Domain.id (Hypervisor.current rig.hyp) = Domain.id rig.guest)

let test_rx_requires_posted_buffers () =
  let rig = make_rig () in
  let skb = Harness.skb_of_string rig.km (Domain.space rig.dom0) "dropped" in
  check int_c "no buffers posted" 0 (Xen_netio.rx_buffers_posted rig.netio);
  Xen_netio.deliver_to_guest rig.netio skb;
  check int_c "dropped" 1 (Xen_netio.rx_dropped rig.netio);
  check int_c "nothing delivered" 0 (Xen_netio.rx_count rig.netio)

let test_rx_delivery_and_buffer_recycling () =
  let rig = make_rig () in
  Xen_netio.post_rx_buffers rig.netio 2;
  let got = ref [] in
  Xen_netio.set_guest_rx rig.netio (fun addr len ->
      let frame = Td_mem.Addr_space.read_block (Domain.space rig.guest) addr len in
      got := Bytes.to_string frame :: !got);
  for i = 1 to 5 do
    let skb =
      Harness.skb_of_string rig.km (Domain.space rig.dom0)
        (Printf.sprintf "packet-%d" i)
    in
    Xen_netio.deliver_to_guest rig.netio skb
  done;
  (* two posted buffers suffice for five packets: netfront re-posts *)
  check int_c "all delivered" 5 (Xen_netio.rx_count rig.netio);
  check int_c "none dropped" 0 (Xen_netio.rx_dropped rig.netio);
  check bool_c "in order and intact" true
    (List.rev !got = List.init 5 (fun i -> Printf.sprintf "packet-%d" (i + 1)));
  check int_c "buffers recycled" 2 (Xen_netio.rx_buffers_posted rig.netio)

let test_costs_charged_per_direction () =
  let rig = make_rig () in
  let led = Hypervisor.ledger rig.hyp in
  Hypervisor.switch_to rig.hyp rig.guest;
  Ledger.reset led;
  Xen_netio.guest_transmit rig.netio ~hdr:"" (String.make 100 'x');
  check bool_c "tx charges guest work" true (Ledger.total led Ledger.DomU > 0);
  check bool_c "tx charges dom0 work" true (Ledger.total led Ledger.Dom0 > 0);
  check bool_c "tx charges xen work" true (Ledger.total led Ledger.Xen > 0);
  Ledger.reset led;
  Xen_netio.post_rx_buffers rig.netio 1;
  let skb =
    Harness.skb_of_string rig.km (Domain.space rig.dom0) ~size:2048
      (String.make 1500 'r')
  in
  Xen_netio.deliver_to_guest rig.netio skb;
  (* the grant copy is hypervisor work proportional to the packet *)
  let xen = Ledger.total led Ledger.Xen in
  check bool_c "rx grant copy charged to Xen" true
    (xen
    > int_of_float
        (1500.0 *. (Hypervisor.costs rig.hyp).Sys_costs.grant_copy_per_byte)
      - 1)

let test_oversized_frame_rejected () =
  let rig = make_rig () in
  check bool_c "bigger than a page is refused" true
    (match
       Xen_netio.guest_transmit rig.netio ~hdr:"" (String.make 5000 'x')
     with
    | exception
        Guest_fault.Fault { op = "Xen_netio.guest_transmit"; _ } ->
        true
    | _ -> false)

(* The frontend writes [hdr] and then [payload] straight into the granted
   page: the backend sees exactly their concatenation, a frame of exactly
   one page is accepted, and one byte more is the typed fault the whole
   frame would raise. *)
let test_transmit_header_and_payload () =
  let rig = make_rig () in
  Hypervisor.switch_to rig.hyp rig.guest;
  let hdr = "\x02\x02\x00\x00\x00\x00\x02\x01\x00\x00\x00\x00\x08\x00" in
  let sent payload =
    Xen_netio.guest_transmit rig.netio ~hdr payload;
    match !(rig.driver_frames) with
    | skb :: _ -> Bytes.to_string (Skb.contents_at (Domain.space rig.dom0) skb)
    | [] -> Alcotest.fail "no skb reached the driver"
  in
  let payload = String.init 200 (fun i -> Char.chr (i land 0xff)) in
  check bool_c "staged frame is hdr ^ payload" true (sent payload = hdr ^ payload);
  let full = String.make (Td_mem.Layout.page_size - String.length hdr) 'p' in
  check bool_c "a page-sized frame is accepted" true (sent full = hdr ^ full);
  check bool_c "a shorter frame after it is exact" true (sent "short" = hdr ^ "short");
  check int_c "three frames" 3 (Xen_netio.tx_count rig.netio);
  check (Alcotest.option Alcotest.string) "one byte over a page is refused"
    (Some "Xen_netio.guest_transmit: frame of 4097 bytes exceeds the page")
    (match Xen_netio.guest_transmit rig.netio ~hdr (full ^ "x") with
    | () -> None
    | exception Guest_fault.Fault { op; reason } -> Some (op ^ ": " ^ reason));
  check int_c "the refused frame was not sent" 3 (Xen_netio.tx_count rig.netio)

exception Driver_fell_over

(* A driver exception mid-drain (the frame was already popped and its
   grant mapped at the one transient window page): the frame is counted
   dropped so conservation holds, the page is unmapped, the sk_buff
   netback built for it is freed, the exception reaches the kick, and
   the next kick forwards the frame still staged instead of faulting on
   a page left mapped. *)
let test_backend_exception_unmaps_and_drops () =
  let raised = ref false and forwarded = ref [] in
  let driver_tx skb =
    if not !raised then begin
      raised := true;
      raise Driver_fell_over
    end;
    forwarded := skb :: !forwarded
  in
  let rig = make_rig ~batch:2 ~driver_tx () in
  let dom0_space = Domain.space rig.dom0 in
  let baseline = Kmem.allocated_bytes rig.km in
  Hypervisor.switch_to rig.hyp rig.guest;
  (* the transient grant window starts where the doorbell window ends *)
  let window = Td_mem.Layout.page_of (snd Xen_netio.doorbell_window) in
  let mapped () =
    Td_mem.Addr_space.is_mapped (Domain.space rig.dom0) ~vpage:window
  in
  Xen_netio.guest_transmit rig.netio ~hdr:"" "first";
  check bool_c "the batch boundary's drain raised" true
    (match Xen_netio.guest_transmit rig.netio ~hdr:"" "second" with
    | () -> false
    | exception Driver_fell_over -> true);
  check bool_c "conserved" true (Xen_netio.conserved rig.netio);
  check int_c "the popped frame is dropped" 1 (Xen_netio.tx_dropped rig.netio);
  check int_c "the other is still staged" 1 (Xen_netio.staged rig.netio);
  check bool_c "window page unmapped" false (mapped ());
  check int_c "the dropped frame's sk_buff is freed" baseline
    (Kmem.allocated_bytes rig.km);
  check bool_c "back in the guest" true
    (Domain.id (Hypervisor.current rig.hyp) = Domain.id rig.guest);
  Xen_netio.flush rig.netio;
  check (Alcotest.list Alcotest.string) "the next kick forwards it" [ "second" ]
    (List.map
       (fun skb -> Bytes.to_string (Skb.contents_at dom0_space skb))
       !forwarded);
  check int_c "forwarded" 1 (Xen_netio.tx_count rig.netio);
  check int_c "nothing staged" 0 (Xen_netio.staged rig.netio);
  check bool_c "still conserved" true (Xen_netio.conserved rig.netio);
  check bool_c "window page free again" false (mapped ())

(* Deliver a dom0 sk_buff holding [frame] through netback. *)
let deliver rig frame =
  Xen_netio.deliver_to_guest rig.netio
    (Harness.skb_of_string rig.km (Domain.space rig.dom0) frame)

(* Collect every frame the guest stack is handed, read out of the
   granted buffer during the call. *)
let collect rig =
  let got = ref [] in
  Xen_netio.set_guest_rx rig.netio (fun addr len ->
      let frame = Td_mem.Addr_space.read_block (Domain.space rig.guest) addr len in
      got := Bytes.to_string frame :: !got);
  got

let frames lo hi = List.init (hi - lo + 1) (fun i -> Printf.sprintf "frame-%03d" (lo + i))

(* The staging and posting rings start at 16 entries. Five frames and a
   flush move the staged ring's head off entry 0; a batch of 32 then
   wraps it and grows it past its initial size, and every frame still
   arrives in FIFO order. The posted ring has wrapped all along; closing
   after that releases every grant. *)
let test_rx_ring_wraps_in_fifo_order () =
  let rig = make_rig ~batch:32 () in
  Xen_netio.post_rx_buffers rig.netio 40;
  let got = collect rig in
  List.iter (deliver rig) (frames 0 4);
  Xen_netio.flush rig.netio;
  List.iter (deliver rig) (frames 5 36);
  check int_c "the batch of 32 was kicked" 0 (Xen_netio.staged rig.netio);
  check int_c "all delivered" 37 (Xen_netio.rx_count rig.netio);
  check bool_c "FIFO order" true (List.rev !got = frames 0 36);
  check bool_c "conserved" true (Xen_netio.conserved rig.netio);
  check int_c "every buffer re-posted" 40 (Xen_netio.rx_buffers_posted rig.netio);
  Xen_netio.close rig.netio;
  check int_c "no grant left after close" 0 (Xen_netio.grants_active rig.netio)

(* A masked guest defers the virq, so its batch waits outside the ring
   while later batches come and go. Two batches deferred in turn run in
   order on unmask; a batch flushed after the guest cleared its flag
   without unmasking runs at once, before the deferred one — both as
   with a handler per batch. Each frame gives one rx latency sample. *)
let test_masked_guest_virq_order () =
  let rig = make_rig ~batch:4 () in
  Xen_netio.post_rx_buffers rig.netio 16;
  let got = collect rig in
  let gspace = Domain.space rig.guest in
  Domain.init_vif rig.guest ~vaddr:(Td_mem.Addr_space.heap_alloc gspace 4);
  Domain.mask_interrupts rig.guest;
  List.iter (deliver rig) (frames 0 3);
  List.iter (deliver rig) (frames 4 7);
  check int_c "both batches deferred" 2 (Domain.pending rig.guest);
  check int_c "nothing delivered while masked" 0 (Xen_netio.rx_count rig.netio);
  Domain.unmask_interrupts rig.guest;
  check bool_c "A before B" true (List.rev !got = frames 0 7);
  check bool_c "conserved" true (Xen_netio.conserved rig.netio);
  (* C is deferred; the guest clears its flag by a plain store, so D's
     virq runs first and C waits for the pending queue *)
  Domain.mask_interrupts rig.guest;
  List.iter (deliver rig) (frames 8 11);
  Td_mem.Addr_space.write gspace (Domain.vif_addr rig.guest) Td_misa.Width.W32 0;
  List.iter (deliver rig) (frames 12 15);
  Domain.deliver_pending rig.guest;
  check bool_c "D before the deferred C" true
    (List.rev !got = frames 0 7 @ frames 12 15 @ frames 8 11);
  check bool_c "conserved" true (Xen_netio.conserved rig.netio);
  check int_c "one rx latency sample per frame" 16
    (Ledger.latency_count (Hypervisor.ledger rig.hyp) `Rx)

(* A delivery the grant-copy bucket refuses re-posts its buffer untouched
   and counts the drop; the next one that fits lands in a buffer. *)
let test_throttled_rx_reposts_buffer () =
  let quota =
    Quota.make
      { Quota.unlimited with Quota.grant_copy_bytes_per_s = 1.; grant_copy_burst_bytes = 12. }
  in
  let rig = make_rig ~quota () in
  Xen_netio.post_rx_buffers rig.netio 1;
  let got = collect rig in
  deliver rig "frame-000";
  deliver rig "frame-001";
  check int_c "second copy throttled" 1 (Xen_netio.rx_throttled rig.netio);
  check int_c "buffer re-posted" 1 (Xen_netio.rx_buffers_posted rig.netio);
  deliver rig "xyz";
  check bool_c "the frames that fit arrive" true (List.rev !got = [ "frame-000"; "xyz" ]);
  check bool_c "conserved" true (Xen_netio.conserved rig.netio)

(* --- the per-direction notifier against the reference channel --- *)

(* [Ref_netio] is the channel as it was before tx and rx shared one
   notifier. Both run the same random operations on identical rigs and
   must agree after every step: the outcome (or exception), the ledger
   digest (category cells, domain rows, latency count and percentiles),
   the quota's throttle count, the guest's pending virqs, every channel
   counter and mode, and the bytes that reached the driver and the guest
   stack. *)

type policy = Plain | Adaptive_at of int | Poll

type chan_op =
  | Tx of int * char
  | Rx of int * char
  | Service
  | Tick
  | Flush
  | Mask
  | Unmask
  | Post of int
  | Teardown
  | Close

(* one implementation behind the operations the property drives *)
type chan = { step : chan_op -> unit; observe : unit -> string }

let mode_name m = if m then "poll" else "intr"

let new_chan ~batch ~policy ~budget ?quota ~hyp ~dom0 ~guest ~kmem
    ~driver_tx ~guest_rx () =
  let notify =
    match policy with
    | Plain -> Xen_netio.Interrupts { batch }
    | Adaptive_at entry_kicks ->
        Xen_netio.Adaptive { batch; entry_kicks; poll_budget = budget }
    | Poll -> Xen_netio.Always_poll { batch; poll_budget = budget }
  in
  let io = Xen_netio.create ~notify ?quota ~hyp ~dom0 ~guest ~kmem ~driver_tx () in
  Xen_netio.set_guest_rx io guest_rx;
  let step = function
    | Tx (n, c) ->
        Xen_netio.guest_transmit io ~hdr:(String.make (n mod 3) 'h') (String.make n c)
    | Service -> Xen_netio.service io
    | Tick -> Xen_netio.on_tick io
    | Flush -> Xen_netio.flush io
    | Post n -> Xen_netio.post_rx_buffers io n
    | Teardown -> Xen_netio.teardown io
    | Close -> Xen_netio.close io
    | Rx _ | Mask | Unmask -> assert false
  in
  let deliver skb = Xen_netio.deliver_to_guest io skb in
  let observe () =
    Printf.sprintf
      "tx=%d rx=%d dropped=%d throttled=%d flushes=%d staged=%d total=%d \
       conserved=%b polls=%d sup=%d/%d switches=%d grants=%d posted=%d \
       closed=%b modes=%s/%s doorbell=%b"
      (Xen_netio.tx_count io) (Xen_netio.rx_count io) (Xen_netio.rx_dropped io)
      (Xen_netio.rx_throttled io) (Xen_netio.flushes io) (Xen_netio.staged io)
      (Xen_netio.tx_staged_total io) (Xen_netio.conserved io)
      (Xen_netio.doorbell_polls io)
      (Xen_netio.suppressed_hypercalls io)
      (Xen_netio.suppressed_virqs io)
      (Xen_netio.mode_switches io) (Xen_netio.grants_active io)
      (Xen_netio.rx_buffers_posted io) (Xen_netio.closed io)
      (mode_name (Xen_netio.tx_mode io = Xen_netio.Polling))
      (mode_name (Xen_netio.rx_mode io = Xen_netio.Polling))
      (Xen_netio.doorbell_vaddr io <> None)
  in
  ({ step; observe }, deliver)

let ref_chan ~batch ~policy ~budget ?quota ~hyp ~dom0 ~guest ~kmem ~driver_tx
    ~guest_rx () =
  let doorbell =
    let cfg poll_entry_kicks =
      Some { Ref_netio.poll_entry_kicks; idle_hysteresis = 3; poll_budget = budget }
    in
    match policy with
    | Plain -> None
    | Adaptive_at k -> cfg k
    | Poll -> cfg 0
  in
  let io =
    Ref_netio.create ~batch ?doorbell ?quota ~hyp ~dom0 ~guest ~kmem ~driver_tx ()
  in
  Ref_netio.set_guest_rx io guest_rx;
  let step = function
    | Tx (n, c) ->
        Ref_netio.guest_transmit io ~hdr:(String.make (n mod 3) 'h') (String.make n c)
    | Service -> Ref_netio.service io
    | Tick -> Ref_netio.on_tick io
    | Flush -> Ref_netio.flush io
    | Post n -> Ref_netio.post_rx_buffers io n
    | Teardown -> Ref_netio.teardown io
    | Close -> Ref_netio.close io
    | Rx _ | Mask | Unmask -> assert false
  in
  let deliver skb = Ref_netio.deliver_to_guest io skb in
  let observe () =
    Printf.sprintf
      "tx=%d rx=%d dropped=%d throttled=%d flushes=%d staged=%d total=%d \
       conserved=%b polls=%d sup=%d/%d switches=%d grants=%d posted=%d \
       closed=%b modes=%s/%s doorbell=%b"
      (Ref_netio.tx_count io) (Ref_netio.rx_count io) (Ref_netio.rx_dropped io)
      (Ref_netio.rx_throttled io) (Ref_netio.flushes io) (Ref_netio.staged io)
      (Ref_netio.tx_staged_total io) (Ref_netio.conserved io)
      (Ref_netio.doorbell_polls io)
      (Ref_netio.suppressed_hypercalls io)
      (Ref_netio.suppressed_virqs io)
      (Ref_netio.mode_switches io) (Ref_netio.grants_active io)
      (Ref_netio.rx_buffers_posted io) (Ref_netio.closed io)
      (mode_name (Ref_netio.tx_mode io = Ref_netio.Polling))
      (mode_name (Ref_netio.rx_mode io = Ref_netio.Polling))
      (Ref_netio.doorbell_vaddr io <> None)
  in
  ({ step; observe }, deliver)

(* A rig around [make]: its own machine, ledger, domains and, with
   [rate], a quota on doorbells and rx deliveries clocked by the ledger;
   every byte the driver or the guest stack receives is recorded. *)
let equiv_rig ~rate make =
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
  let guest = Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp guest;
  Domain.init_vif guest ~vaddr:(Td_mem.Addr_space.heap_alloc gspace 4);
  let quota =
    Option.map
      (fun (per_s, burst) ->
        Quota.make
          ~now:(fun () -> Ledger.grand_total ledger)
          { Quota.unlimited with Quota.doorbells_per_s = per_s; rx_per_s = per_s; burst })
      rate
  in
  let kmem = Kmem.create m.Harness.dom0 in
  let wire = Buffer.create 256 and stack = Buffer.create 256 in
  let driver_tx skb =
    Buffer.add_bytes wire (Skb.contents_at m.Harness.dom0 skb);
    Buffer.add_char wire '|';
    Skb.free_at kmem m.Harness.dom0 skb
  in
  let guest_rx addr len =
    Buffer.add_bytes stack (Td_mem.Addr_space.read_block gspace addr len);
    Buffer.add_char stack '|'
  in
  let chan, deliver = make ?quota ~hyp ~dom0 ~guest ~kmem ~driver_tx ~guest_rx () in
  Hypervisor.switch_to hyp guest;
  let apply = function
    | Rx (n, c) ->
        deliver
          (Harness.skb_of_string kmem m.Harness.dom0 ~size:(n + 64)
             (String.make n c))
    | Mask -> Domain.mask_interrupts guest
    | Unmask -> Domain.unmask_interrupts guest
    | op -> chan.step op
  in
  let step op =
    match apply op with
    | () -> "ok"
    | exception e -> Printexc.to_string e
  in
  let observe () =
    String.concat "\n"
      [
        Ledger.digest ledger;
        Printf.sprintf "quota throttled=%d pending=%d"
          (Option.fold ~none:0 ~some:Quota.throttled quota)
          (Domain.pending guest);
        chan.observe ();
        Buffer.contents wire;
        Buffer.contents stack;
      ]
  in
  (step, observe)

let chan_op_gen =
  QCheck.Gen.(
    frequency
      [
        (30, map2 (fun n c -> Tx (n, c)) (int_range 1 300) printable);
        (1, return (Tx (5000, 'x')));
        (25, map2 (fun n c -> Rx (n, c)) (int_range 1 300) printable);
        (10, return Service);
        (15, return Tick);
        (4, return Flush);
        (4, return Mask);
        (4, return Unmask);
        (3, map (fun n -> Post n) (int_range 1 4));
        (2, return Teardown);
        (1, return Close);
      ])

let print_chan_op = function
  | Tx (n, c) -> Printf.sprintf "tx %d %C" n c
  | Rx (n, c) -> Printf.sprintf "rx %d %C" n c
  | Service -> "service"
  | Tick -> "tick"
  | Flush -> "flush"
  | Mask -> "mask"
  | Unmask -> "unmask"
  | Post n -> Printf.sprintf "post %d" n
  | Teardown -> "teardown"
  | Close -> "close"

let policy_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Plain);
        (2, map (fun k -> Adaptive_at k) (int_range 1 8));
        (1, return Poll);
      ])

let print_policy = function
  | Plain -> "interrupts"
  | Adaptive_at k -> Printf.sprintf "adaptive %d" k
  | Poll -> "always-poll"

let notifier_equivalence_prop =
  QCheck.Test.make ~name:"notifier matches the per-direction reference"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (int_range 1 8) policy_gen (int_range 1 16)
              (opt (pair (oneofl [ 3e4; 3e5; 3e6 ]) (float_range 1. 6.))))
           (pair (int_range 0 6) (list_size (int_range 1 80) chan_op_gen)))
       ~print:(fun ((batch, policy, budget, rate), (posted, ops)) ->
         Printf.sprintf "batch=%d %s budget=%d quota=%s posted=%d [%s]" batch
           (print_policy policy) budget
           (match rate with
           | None -> "none"
           | Some (r, b) -> Printf.sprintf "%.0f/s burst %.2f" r b)
           posted
           (String.concat "; " (List.map print_chan_op ops))))
    (fun ((batch, policy, budget, rate), (posted, ops)) ->
      let rig make = equiv_rig ~rate (make ~batch ~policy ~budget) in
      let step, observe = rig new_chan and ref_step, ref_observe = rig ref_chan in
      let ops = Post posted :: ops in
      List.for_all
        (fun op ->
          let a = step op and b = ref_step op in
          a = b && observe () = ref_observe ())
        ops)

let suite =
  [
    Alcotest.test_case "guest transmit reaches driver" `Quick
      test_guest_transmit_reaches_driver;
    Alcotest.test_case "rx requires posted buffers" `Quick
      test_rx_requires_posted_buffers;
    Alcotest.test_case "rx delivery + recycling" `Quick
      test_rx_delivery_and_buffer_recycling;
    Alcotest.test_case "costs charged per direction" `Quick
      test_costs_charged_per_direction;
    Alcotest.test_case "oversized frame rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "transmit writes header then payload" `Quick
      test_transmit_header_and_payload;
    Alcotest.test_case "rx ring wraps in FIFO order" `Quick
      test_rx_ring_wraps_in_fifo_order;
    Alcotest.test_case "masked guest: virq order" `Quick
      test_masked_guest_virq_order;
    Alcotest.test_case "throttled rx re-posts its buffer" `Quick
      test_throttled_rx_reposts_buffer;
    Alcotest.test_case "backend exception unmaps and drops" `Quick
      test_backend_exception_unmaps_and_drops;
    QCheck_alcotest.to_alcotest notifier_equivalence_prop;
  ]
