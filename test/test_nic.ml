(* Tests for the e1000-style device model: MMIO semantics, descriptor
   rings, DMA, interrupts, drops. *)

open Td_nic
open Td_mem

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

type rig = {
  space : Addr_space.t;
  dev : E1000_dev.t;
  mmio : int;
  tx_ring : int;
  rx_ring : int;
  sent : string list ref;
  irqs : int ref;
}

let entries = 8

let make_rig () =
  let phys = Phys_mem.create () in
  let space = Addr_space.create ~name:"dom0" phys in
  Addr_space.heap_init space ~base:Layout.dom0_heap_base
    ~limit:Layout.dom0_heap_limit;
  let sent = ref [] and irqs = ref 0 in
  let dev =
    E1000_dev.create ~ring_entries:entries ~dma:space
      ~mac:"\x02\x00\x00\x00\x00\x07"
      ~tx_frame:(fun b len -> sent := Bytes.sub_string b 0 len :: !sent)
      ()
  in
  let mmio = E1000_dev.mmio_vaddr 0 in
  E1000_dev.attach dev ~space ~vaddr:mmio;
  E1000_dev.set_irq_handler dev (fun () -> incr irqs);
  let tx_ring = Addr_space.heap_alloc space (entries * Regs.desc_bytes) in
  let rx_ring = Addr_space.heap_alloc space (entries * Regs.desc_bytes) in
  let w32 off v = Addr_space.write space (mmio + off) Td_misa.Width.W32 v in
  w32 Regs.tdbal tx_ring;
  w32 Regs.tdlen (entries * Regs.desc_bytes);
  w32 Regs.rdbal rx_ring;
  w32 Regs.rdlen (entries * Regs.desc_bytes);
  w32 Regs.ims (Regs.icr_txdw lor Regs.icr_rxt0);
  { space; dev; mmio; tx_ring; rx_ring; sent; irqs }

let reg rig off = Addr_space.read rig.space (rig.mmio + off) Td_misa.Width.W32
let set_reg rig off v = Addr_space.write rig.space (rig.mmio + off) Td_misa.Width.W32 v

let desc rig ring i field =
  Addr_space.read rig.space (ring + (i * Regs.desc_bytes) + field) Td_misa.Width.W32

let set_desc rig ring i field v =
  Addr_space.write rig.space (ring + (i * Regs.desc_bytes) + field) Td_misa.Width.W32 v

let test_mac_registers () =
  let rig = make_rig () in
  check int_c "ral" 0x00000002 (reg rig Regs.ral);
  check bool_c "rah has valid bit" true (reg rig Regs.rah land 0x80000000 <> 0);
  check bool_c "status link up" true (reg rig Regs.status land 1 <> 0)

let test_tx_single_descriptor () =
  let rig = make_rig () in
  let buf = Addr_space.heap_alloc rig.space 2048 in
  Addr_space.write_block rig.space buf (Bytes.of_string "frame-one");
  set_desc rig rig.tx_ring 0 Regs.d_buf buf;
  set_desc rig rig.tx_ring 0 Regs.d_len 9;
  set_desc rig rig.tx_ring 0 Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs);
  set_reg rig Regs.tdt 1;
  check bool_c "frame emitted" true (!(rig.sent) = [ "frame-one" ]);
  check bool_c "DD set" true (desc rig rig.tx_ring 0 Regs.d_sta land Regs.sta_dd <> 0);
  check int_c "head advanced" 1 (reg rig Regs.tdh);
  check int_c "tx counted" 1 (E1000_dev.tx_count rig.dev);
  check int_c "gptc stat" 1 (reg rig Regs.gptc);
  check int_c "irq raised" 1 !(rig.irqs)

let test_tx_multi_descriptor_frame () =
  let rig = make_rig () in
  let b1 = Addr_space.heap_alloc rig.space 2048 in
  let b2 = Addr_space.heap_alloc rig.space 2048 in
  Addr_space.write_block rig.space b1 (Bytes.of_string "head|");
  Addr_space.write_block rig.space b2 (Bytes.of_string "fragment");
  set_desc rig rig.tx_ring 0 Regs.d_buf b1;
  set_desc rig rig.tx_ring 0 Regs.d_len 5;
  set_desc rig rig.tx_ring 0 Regs.d_cmd Regs.cmd_rs;
  set_desc rig rig.tx_ring 1 Regs.d_buf b2;
  set_desc rig rig.tx_ring 1 Regs.d_len 8;
  set_desc rig rig.tx_ring 1 Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs);
  set_reg rig Regs.tdt 2;
  check bool_c "descriptors concatenated" true (!(rig.sent) = [ "head|fragment" ]);
  check int_c "one frame only" 1 (E1000_dev.tx_count rig.dev)

let test_tx_ring_wrap () =
  let rig = make_rig () in
  let buf = Addr_space.heap_alloc rig.space 2048 in
  Addr_space.write_block rig.space buf (Bytes.of_string "x");
  for i = 0 to entries - 1 do
    set_desc rig rig.tx_ring i Regs.d_buf buf;
    set_desc rig rig.tx_ring i Regs.d_len 1;
    set_desc rig rig.tx_ring i Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs)
  done;
  (* send 7, then wrap and send 3 more (tail chases around) *)
  set_reg rig Regs.tdt 7;
  check int_c "seven frames" 7 (E1000_dev.tx_count rig.dev);
  set_reg rig Regs.tdt 2;
  check int_c "wrapped to ten" 10 (E1000_dev.tx_count rig.dev);
  check int_c "head wrapped" 2 (reg rig Regs.tdh)

(* Stage [data] in a fresh buffer behind tx descriptor [i]. *)
let stage_tx rig i data ~eop =
  let buf = Addr_space.heap_alloc rig.space (max 1 (String.length data)) in
  Addr_space.write_string rig.space buf data ~off:0 ~len:(String.length data);
  set_desc rig rig.tx_ring i Regs.d_buf buf;
  set_desc rig rig.tx_ring i Regs.d_len (String.length data);
  set_desc rig rig.tx_ring i Regs.d_cmd
    (if eop then Regs.cmd_eop lor Regs.cmd_rs else Regs.cmd_rs)

(* A ~9,000 B frame over three descriptors outgrows the device's initial
   2,048 B frame buffer; a short frame after it must carry no stale tail
   of the long one. *)
let test_tx_jumbo_then_short () =
  let rig = make_rig () in
  let parts =
    List.init 3 (fun i -> String.init 3000 (fun j -> Char.chr ((7 * j + i) land 0xff)))
  in
  List.iteri (fun i d -> stage_tx rig i d ~eop:(i = 2)) parts;
  set_reg rig Regs.tdt 3;
  check bool_c "jumbo frame intact" true (!(rig.sent) = [ String.concat "" parts ]);
  stage_tx rig 3 "frame-two" ~eop:true;
  set_reg rig Regs.tdt 4;
  check bool_c "short frame has no stale tail" true
    (List.hd !(rig.sent) = "frame-two");
  check int_c "two frames" 2 (E1000_dev.tx_count rig.dev)

(* A descriptor whose buffer is unmapped faults at that descriptor and
   leaves the bytes assembled before it as they were; a reset then drops
   them, so the next frame is clean. *)
let test_tx_fault_mid_frame_then_reset () =
  let rig = make_rig () in
  stage_tx rig 0 "head|" ~eop:false;
  set_desc rig rig.tx_ring 1 Regs.d_buf 0x10;
  set_desc rig rig.tx_ring 1 Regs.d_len 64;
  set_desc rig rig.tx_ring 1 Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs);
  let kick () =
    match set_reg rig Regs.tdt 2 with
    | () -> "no fault"
    | exception Td_xen.Guest_fault.Fault { op; reason } -> op ^ ": " ^ reason
  in
  check Alcotest.string "typed fault at descriptor 1"
    "E1000_dev.process_tx: descriptor 1 buffer DMA faulted at 0x10" (kick ());
  check bool_c "nothing sent" true (!(rig.sent) = []);
  (* the walk restarts at TDH = 0 on the next doorbell: the faulted
     descriptor added nothing to the 5 bytes already assembled *)
  stage_tx rig 1 "tail" ~eop:true;
  set_reg rig Regs.tdt 2;
  check bool_c "assembled length untouched by the fault" true
    (!(rig.sent) = [ "head|head|tail" ]);
  stage_tx rig 2 "part|" ~eop:false;
  set_desc rig rig.tx_ring 3 Regs.d_buf 0x10;
  set_desc rig rig.tx_ring 3 Regs.d_len 64;
  set_desc rig rig.tx_ring 3 Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs);
  (match set_reg rig Regs.tdt 4 with
  | () -> Alcotest.fail "unmapped buffer did not fault"
  | exception Td_xen.Guest_fault.Fault _ -> ());
  ignore (E1000_dev.reset rig.dev);
  set_reg rig Regs.tdbal rig.tx_ring;
  set_reg rig Regs.tdlen (entries * Regs.desc_bytes);
  stage_tx rig 0 "clean" ~eop:true;
  set_reg rig Regs.tdt 1;
  check bool_c "next frame clean after reset" true
    (List.hd !(rig.sent) = "clean")

let prime_rx rig n =
  let bufs =
    List.init n (fun i ->
        let b = Addr_space.heap_alloc rig.space 2048 in
        set_desc rig rig.rx_ring i Regs.d_buf b;
        set_desc rig rig.rx_ring i Regs.d_sta 0;
        b)
  in
  set_reg rig Regs.rdt n;
  bufs

let test_rx_delivery () =
  let rig = make_rig () in
  let bufs = prime_rx rig 4 in
  E1000_dev.receive_frame rig.dev "incoming-packet";
  let b0 = List.nth bufs 0 in
  check bool_c "payload written via DMA" true
    (Bytes.to_string (Addr_space.read_block rig.space b0 15) = "incoming-packet");
  check int_c "length written" 15 (desc rig rig.rx_ring 0 Regs.d_len);
  check bool_c "DD|EOP" true
    (desc rig rig.rx_ring 0 Regs.d_sta = (Regs.sta_dd lor Regs.sta_eop));
  check int_c "rdh advanced" 1 (reg rig Regs.rdh);
  check int_c "irq" 1 !(rig.irqs);
  check int_c "gprc" 1 (reg rig Regs.gprc)

let test_rx_overflow_drops () =
  let rig = make_rig () in
  ignore (prime_rx rig 2);
  E1000_dev.receive_frame rig.dev "a";
  E1000_dev.receive_frame rig.dev "b";
  E1000_dev.receive_frame rig.dev "c";
  check int_c "two delivered" 2 (E1000_dev.rx_count rig.dev);
  check int_c "one dropped" 1 (E1000_dev.dropped rig.dev);
  check int_c "mpc stat" 1 (reg rig Regs.mpc)

let test_icr_read_clears () =
  let rig = make_rig () in
  ignore (prime_rx rig 2);
  E1000_dev.receive_frame rig.dev "x";
  check bool_c "cause latched" true (reg rig Regs.icr land Regs.icr_rxt0 <> 0);
  check int_c "read cleared it" 0 (reg rig Regs.icr)

let test_interrupt_masking () =
  let rig = make_rig () in
  ignore (prime_rx rig 4);
  set_reg rig Regs.imc (Regs.icr_txdw lor Regs.icr_rxt0);
  E1000_dev.receive_frame rig.dev "quiet";
  check int_c "no irq while masked" 0 !(rig.irqs);
  check bool_c "cause still latched" true (reg rig Regs.icr <> 0);
  (* unmask: next frame interrupts *)
  set_reg rig Regs.ims Regs.icr_rxt0;
  E1000_dev.receive_frame rig.dev "loud";
  check int_c "irq after unmask" 1 !(rig.irqs)

let test_interrupt_throttling () =
  let rig = make_rig () in
  ignore (prime_rx rig 7);
  set_reg rig Regs.itr 3;
  for i = 1 to 6 do
    E1000_dev.receive_frame rig.dev (Printf.sprintf "frame%d" i)
  done;
  check int_c "one irq per three events" 2 !(rig.irqs);
  check int_c "no frame lost to throttling" 6 (E1000_dev.rx_count rig.dev);
  (* every received frame is still latched/visible via the ring *)
  check bool_c "causes latched" true (reg rig Regs.icr land Regs.icr_rxt0 <> 0);
  set_reg rig Regs.itr 0;
  E1000_dev.receive_frame rig.dev "x";
  check int_c "unthrottled again" 3 !(rig.irqs)

let test_effective_rate () =
  (* framing overhead makes the effective rate less than line rate *)
  let r = E1000_dev.effective_rate_bps ~packet_bytes:1514 in
  check bool_c "below line rate" true (r < 1e9);
  check bool_c "above 90%" true (r > 0.9e9);
  let small = E1000_dev.effective_rate_bps ~packet_bytes:64 in
  check bool_c "small packets waste more" true (small < r)

let suite =
  [
    Alcotest.test_case "mac registers" `Quick test_mac_registers;
    Alcotest.test_case "tx single descriptor" `Quick test_tx_single_descriptor;
    Alcotest.test_case "tx multi-descriptor frame" `Quick
      test_tx_multi_descriptor_frame;
    Alcotest.test_case "tx ring wrap" `Quick test_tx_ring_wrap;
    Alcotest.test_case "tx jumbo frame, then a short one" `Quick
      test_tx_jumbo_then_short;
    Alcotest.test_case "tx fault mid-frame, then reset" `Quick
      test_tx_fault_mid_frame_then_reset;
    Alcotest.test_case "rx delivery" `Quick test_rx_delivery;
    Alcotest.test_case "rx overflow drops" `Quick test_rx_overflow_drops;
    Alcotest.test_case "icr read clears" `Quick test_icr_read_clears;
    Alcotest.test_case "interrupt masking" `Quick test_interrupt_masking;
    Alcotest.test_case "interrupt throttling" `Quick test_interrupt_throttling;
    Alcotest.test_case "effective rate" `Quick test_effective_rate;
  ]
