open Td_misa
open Builder

let o_mmio = 0
let o_rx_ring = 4
let o_tx_cur = 8
let o_netdev = 12
let o_tx_packets = 16
let o_rx_packets = 20
let o_tx_dropped = 24
let o_rx_alloc_fail = 28
let o_tx_buf = 32 (* 4 slots *)
let struct_bytes = 64

let entry_init = "rtl_init"
let entry_xmit = "rtl_xmit"
let entry_intr = "rtl_intr"

let prologue b =
  pushl b (reg EBP);
  movl b (reg ESP) (reg EBP);
  pushl b (reg EBX);
  pushl b (reg ESI);
  pushl b (reg EDI)

let epilogue b =
  popl b (reg EDI);
  popl b (reg ESI);
  popl b (reg EBX);
  popl b (reg EBP);
  ret b

let arg0 = mem ~base:EBP 8
let arg1 = mem ~base:EBP 12
let adp off = mem ~base:EBX off

let call_support b name args =
  List.iter (pushl b) (List.rev args);
  call b name;
  if args <> [] then addl b (imm (4 * List.length args)) (reg ESP)

(* ---- rtl_init(netdev) ---- *)

let emit_init b =
  label b entry_init;
  prologue b;
  call_support b "pci_enable_device" [ arg0 ];
  call_support b "pci_set_master" [ arg0 ];
  call_support b "kzalloc" [ imm struct_bytes; imm 0 ];
  movl b (reg EAX) (reg EBX);
  movl b arg0 (reg ESI);
  movl b (reg EBX) (mem ~base:ESI 8);
  movl b (reg ESI) (adp o_netdev);
  movl b (mem ~base:ESI 0) (reg EAX);
  movl b (reg EAX) (adp o_mmio);
  (* the contiguous receive ring *)
  call_support b "dma_alloc_coherent" [ imm Td_nic.Rtl_dev.rx_ring_bytes ];
  movl b (reg EAX) (adp o_rx_ring);
  movl b (adp o_mmio) (reg EDI);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Rtl_dev.rbstart);
  (* four contiguous transmit staging buffers, addresses programmed into
     the TSAD registers once *)
  let fill = fresh b "rtl_txb" and fill_done = fresh b "rtl_txb_done" in
  xorl b (reg ESI) (reg ESI);
  label b fill;
  cmpl b (imm 4) (reg ESI);
  je b fill_done;
  call_support b "kmalloc" [ imm 2048; imm 0 ];
  movl b (reg EAX) (mem ~base:EBX ~index:(ESI, Operand.S4) o_tx_buf);
  movl b (adp o_mmio) (reg EDI);
  movl b (reg EAX)
    (mem ~base:EDI ~index:(ESI, Operand.S4) (Td_nic.Rtl_dev.tsad 0));
  incl b (reg ESI);
  jmp b fill;
  label b fill_done;
  movl b (imm 0) (adp o_tx_cur);
  (* unmask receive and transmit interrupts *)
  movl b (adp o_mmio) (reg EDI);
  movl b (imm (Td_nic.Rtl_dev.isr_rok lor Td_nic.Rtl_dev.isr_tok))
    (mem ~base:EDI Td_nic.Rtl_dev.imr);
  call_support b "request_irq" [ arg0; imm 0 ];
  call_support b "register_netdev" [ arg0 ];
  call_support b "netif_start_queue" [ arg0 ];
  movl b (reg EBX) (reg EAX);
  epilogue b

(* ---- rtl_xmit(skb, netdev) ---- *)

let emit_xmit b =
  label b entry_xmit;
  prologue b;
  movl b arg1 (reg EDI);
  movl b (mem ~base:EDI 8) (reg EBX);
  let busy = fresh b "rtl_busy" and out = fresh b "rtl_out" in
  (* is the current slot free? TSD[n] has the OWN bit when idle *)
  movl b (adp o_tx_cur) (reg ESI);
  movl b (adp o_mmio) (reg EDX);
  movl b (mem ~base:EDX ~index:(ESI, Operand.S4) (Td_nic.Rtl_dev.tsd 0)) (reg EAX);
  testl b (imm Td_nic.Rtl_dev.tsd_own) (reg EAX);
  je b busy;
  (* the 8139 wants the whole frame contiguous: copy the sk_buff's data
     into the slot's staging buffer *)
  movl b (mem ~base:EBX ~index:(ESI, Operand.S4) o_tx_buf) (reg EDI);
  movl b arg0 (reg EDX);
  movl b (mem ~base:EDX 4) (reg ECX);
  movl b (mem ~base:EDX 0) (reg ESI);
  rep_movsb b;
  (* fire the slot: write the size without the OWN bit *)
  movl b (adp o_tx_cur) (reg ESI);
  movl b (adp o_mmio) (reg EDX);
  movl b arg0 (reg EAX);
  movl b (mem ~base:EAX 4) (reg EAX);
  movl b (reg EAX)
    (mem ~base:EDX ~index:(ESI, Operand.S4) (Td_nic.Rtl_dev.tsd 0));
  (* stats, slot advance *)
  incl b (adp o_tx_packets);
  incl b (reg ESI);
  andl b (imm 3) (reg ESI);
  movl b (reg ESI) (adp o_tx_cur);
  call_support b "dev_kfree_skb_any" [ arg0 ];
  xorl b (reg EAX) (reg EAX);
  jmp b out;
  label b busy;
  incl b (adp o_tx_dropped);
  call_support b "dev_kfree_skb_any" [ arg0 ];
  movl b (imm 1) (reg EAX);
  label b out;
  epilogue b

(* ---- rtl_intr(netdev) ---- *)

let emit_intr b =
  label b entry_intr;
  prologue b;
  pushl b (imm 0);
  (* received-packet count *)
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  (* read ISR, then clear what we saw (write-1-to-clear) *)
  movl b (adp o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Rtl_dev.isr) (reg EAX);
  movl b (reg EAX) (mem ~base:EDX Td_nic.Rtl_dev.isr);
  let loop = fresh b "rtl_rx" and done_ = fresh b "rtl_rx_done" in
  let drop = fresh b "rtl_drop" and advance = fresh b "rtl_adv" in
  label b loop;
  (* anything between our pointer (CAPR) and the device's (CBR)? *)
  movl b (adp o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Rtl_dev.capr) (reg ECX);
  cmpl b (mem ~base:EDX Td_nic.Rtl_dev.cbr) (reg ECX);
  je b done_;
  (* length lives at ring+capr+2; keep it in a stack slot across calls *)
  movl b (adp o_rx_ring) (reg EDI);
  addl b (reg ECX) (reg EDI);
  movzxw b (mem ~base:EDI 2) EDX;
  pushl b (reg EDX);
  call_support b "netdev_alloc_skb" [ adp o_netdev; imm 2048 ];
  testl b (reg EAX) (reg EAX);
  je b drop;
  (* second stack slot: the sk_buff (count is now at 8(%esp)) *)
  pushl b (reg EAX);
  (* skb->len = frame length *)
  movl b (mem ~base:ESP 4) (reg ECX);
  movl b (reg EAX) (reg EDX);
  movl b (reg ECX) (mem ~base:EDX 4);
  (* rep movsb: ring payload -> skb->data (ECX already holds the length) *)
  movl b (mem ~base:EDX 0) (reg EDI);
  movl b (adp o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Rtl_dev.capr) (reg ESI);
  addl b (adp o_rx_ring) (reg ESI);
  addl b (imm Td_nic.Rtl_dev.rx_hdr_bytes) (reg ESI);
  rep_movsb b;
  (* classify and hand the packet up *)
  movl b (mem ~base:ESP 0) (reg EAX);
  call_support b "eth_type_trans" [ reg EAX; adp o_netdev ];
  movl b (mem ~base:ESP 0) (reg EAX);
  call_support b "netif_rx" [ reg EAX ];
  incl b (adp o_rx_packets);
  incl b (mem ~base:ESP 8);
  addl b (imm 4) (reg ESP);
  (* pop the sk_buff slot *)
  jmp b advance;
  label b drop;
  incl b (adp o_rx_alloc_fail);
  label b advance;
  (* capr += align4(hdr + len); the length slot is on top of the stack *)
  movl b (mem ~base:ESP 0) (reg EAX);
  addl b (imm (Td_nic.Rtl_dev.rx_hdr_bytes + 3)) (reg EAX);
  andl b (imm (lnot 3 land 0xFFFFFFFF)) (reg EAX);
  movl b (adp o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Rtl_dev.capr) (reg ECX);
  addl b (reg EAX) (reg ECX);
  movl b (reg ECX) (mem ~base:EDX Td_nic.Rtl_dev.capr);
  addl b (imm 4) (reg ESP);
  jmp b loop;
  label b done_;
  popl b (reg EAX);
  epilogue b

let source () =
  let b = create "rtl8139" in
  emit_init b;
  emit_xmit b;
  emit_intr b;
  finish b
