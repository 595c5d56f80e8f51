open Td_misa
open Builder

let tx_ring_entries = 64
let rx_ring_entries = 64
let rx_buf_bytes = 2048

let entry_init = "e1000_init"
let entry_xmit = "e1000_xmit_frame"
let entry_intr = "e1000_intr"
let entry_clean_tx = "e1000_clean_tx"
let entry_watchdog = "e1000_watchdog"
let entry_get_stats = "e1000_get_stats"
let entry_set_mtu = "e1000_set_mtu"
let entry_set_rx_mode = "e1000_set_rx_mode"

(* register conventions inside routines:
     EBP  frame pointer (args at 8(%ebp), 12(%ebp), ...)
     EBX  adapter pointer
   callee-saved registers are preserved by prologue/epilogue *)

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

(* adapter field operand (EBX = adapter) *)
let adp off = mem ~base:EBX off

(* call a support routine with arguments (pushed right to left) *)
let call_support b name args =
  List.iter (pushl b) (List.rev args);
  call b name;
  if args <> [] then addl b (imm (4 * List.length args)) (reg ESP)

(* r <- (r + 1) mod adapter.size_off *)
let wrap_inc b r size_off =
  let l = fresh b "wrap" in
  incl b (reg r);
  cmpl b (adp size_off) (reg r);
  jne b l;
  movl b (imm 0) (reg r);
  label b l

(* ---- e1000_init(netdev) ---- *)

let emit_init b =
  label b entry_init;
  prologue b;
  (* PCI bring-up: the configuration path leans on many support routines *)
  call_support b "pci_enable_device" [ arg0 ];
  call_support b "pci_set_master" [ arg0 ];
  call_support b "pci_request_regions" [ arg0 ];
  call_support b "pci_set_dma_mask" [ arg0; imm 0xFFFFFFFF ];
  (* adapter = kzalloc(96) *)
  call_support b "kzalloc" [ imm Adapter.struct_bytes; imm 0 ];
  movl b (reg EAX) (reg EBX);
  (* netdev->priv = adapter; adapter->netdev = netdev *)
  movl b arg0 (reg ESI);
  movl b (reg EBX) (mem ~base:ESI 8);
  movl b (reg ESI) (adp Adapter.o_netdev);
  (* adapter->mmio = netdev->mmio_base *)
  movl b (mem ~base:ESI 0) (reg EAX);
  movl b (reg EAX) (adp Adapter.o_mmio);
  (* sizes *)
  movl b (imm tx_ring_entries) (adp Adapter.o_tx_size);
  movl b (imm rx_ring_entries) (adp Adapter.o_rx_size);
  movl b (imm rx_buf_bytes) (adp Adapter.o_rx_buf_size);
  movl b (imm 0) (adp Adapter.o_tx_tail);
  movl b (imm 0) (adp Adapter.o_tx_clean);
  movl b (imm 0) (adp Adapter.o_rx_next);
  (* rings *)
  call_support b "dma_alloc_coherent"
    [ imm (tx_ring_entries * Td_nic.Regs.desc_bytes) ];
  movl b (reg EAX) (adp Adapter.o_tx_ring);
  call_support b "dma_alloc_coherent"
    [ imm (rx_ring_entries * Td_nic.Regs.desc_bytes) ];
  movl b (reg EAX) (adp Adapter.o_rx_ring);
  (* shadow sk_buff arrays, defensively cleared with a string store *)
  call_support b "kzalloc" [ imm (4 * tx_ring_entries); imm 0 ];
  movl b (reg EAX) (adp Adapter.o_tx_skb);
  movl b (reg EAX) (reg EDI);
  xorl b (reg EAX) (reg EAX);
  movl b (imm tx_ring_entries) (reg ECX);
  rep_stosl b;
  call_support b "kzalloc" [ imm (4 * rx_ring_entries); imm 0 ];
  movl b (reg EAX) (adp Adapter.o_rx_skb);
  movl b (reg EAX) (reg EDI);
  xorl b (reg EAX) (reg EAX);
  movl b (imm rx_ring_entries) (reg ECX);
  rep_stosl b;
  (* spin_lock_init(&adapter->lock) *)
  leal b (Operand.mem ~base:EBX Adapter.o_lock) EAX;
  call_support b "spin_lock_init" [ reg EAX ];
  (* program the NIC: ring bases/lengths, zero head/tail *)
  movl b (adp Adapter.o_mmio) (reg EDI);
  movl b (adp Adapter.o_tx_ring) (reg EAX);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.tdbal);
  movl b (imm (tx_ring_entries * Td_nic.Regs.desc_bytes))
    (mem ~base:EDI Td_nic.Regs.tdlen);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.tdh);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.tdt);
  movl b (adp Adapter.o_rx_ring) (reg EAX);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.rdbal);
  movl b (imm (rx_ring_entries * Td_nic.Regs.desc_bytes))
    (mem ~base:EDI Td_nic.Regs.rdlen);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.rdh);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.rdt);
  (* fill the receive ring: ESI = index *)
  xorl b (reg ESI) (reg ESI);
  let fill = fresh b "rx_fill" and fill_done = fresh b "rx_fill_done" in
  label b fill;
  cmpl b (adp Adapter.o_rx_size) (reg ESI);
  je b fill_done;
  call_support b "netdev_alloc_skb" [ adp Adapter.o_netdev; adp Adapter.o_rx_buf_size ];
  (* rx_skb[i] = skb *)
  movl b (adp Adapter.o_rx_skb) (reg ECX);
  movl b (reg EAX) (mem ~base:ECX ~index:(ESI, Operand.S4) 0);
  (* bus = dma_map_single(skb->data, rx_buf_bytes, FROM_DEVICE) *)
  movl b (reg EAX) (reg EDI);
  call_support b "dma_map_single"
    [ mem ~base:EDI 0; adp Adapter.o_rx_buf_size; imm 2 ];
  (* desc = rx_ring + 16*i; desc.buf = bus; desc.status = 0 *)
  movl b (reg ESI) (reg ECX);
  shll b (imm 4) (reg ECX);
  addl b (adp Adapter.o_rx_ring) (reg ECX);
  movl b (reg EAX) (mem ~base:ECX Td_nic.Regs.d_buf);
  movl b (imm 0) (mem ~base:ECX Td_nic.Regs.d_sta);
  incl b (reg ESI);
  jmp b fill;
  label b fill_done;
  (* hand all but one descriptor to the device: RDT = rx_size - 1 *)
  movl b (adp Adapter.o_rx_size) (reg EAX);
  decl b (reg EAX);
  movl b (adp Adapter.o_mmio) (reg EDI);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.rdt);
  (* enable interrupts: TXDW | RXT0 *)
  movl b (imm (Td_nic.Regs.icr_txdw lor Td_nic.Regs.icr_rxt0))
    (mem ~base:EDI Td_nic.Regs.ims);
  (* kernel plumbing *)
  call_support b "request_irq" [ arg0; imm 0 ];
  call_support b "register_netdev" [ arg0 ];
  call_support b "netif_start_queue" [ arg0 ];
  call_support b "netif_carrier_on" [ arg0 ];
  movl b (imm 1) (adp Adapter.o_link_up);
  movl b (imm 0) (adp Adapter.o_link_fn);
  movl b (reg EBX) (reg EAX);
  epilogue b

(* ---- e1000_clean_tx(netdev): reclaim completed descriptors ----

   shadow values: the transmitted sk_buff for a linear descriptor, the
   marker 1 for a page-fragment descriptor, 0 for an empty slot *)

let emit_clean_tx b =
  label b entry_clean_tx;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  let loop = fresh b "clean" and done_ = fresh b "clean_done" in
  let unmap_frag = fresh b "clean_frag" in
  let clear = fresh b "clean_clear" and advance = fresh b "clean_adv" in
  label b loop;
  movl b (adp Adapter.o_tx_clean) (reg ECX);
  cmpl b (adp Adapter.o_tx_tail) (reg ECX);
  je b done_;
  (* EDI = &tx_ring[clean] *)
  movl b (reg ECX) (reg EDI);
  shll b (imm 4) (reg EDI);
  addl b (adp Adapter.o_tx_ring) (reg EDI);
  testl b (imm Td_nic.Regs.sta_dd) (mem ~base:EDI Td_nic.Regs.d_sta);
  je b done_;
  (* dispatch on the shadow value *)
  movl b (adp Adapter.o_tx_skb) (reg EDX);
  movl b (mem ~base:EDX ~index:(ECX, Operand.S4) 0) (reg ESI);
  cmpl b (imm 1) (reg ESI);
  je b unmap_frag;
  testl b (reg ESI) (reg ESI);
  je b advance;
  (* linear descriptor: unmap the DMA buffer, free the sk_buff *)
  call_support b "dma_unmap_single"
    [ mem ~base:EDI Td_nic.Regs.d_buf; mem ~base:EDI Td_nic.Regs.d_len; imm 1 ];
  call_support b "dev_kfree_skb_any" [ reg ESI ];
  jmp b clear;
  label b unmap_frag;
  call_support b "dma_unmap_page"
    [ mem ~base:EDI Td_nic.Regs.d_buf; mem ~base:EDI Td_nic.Regs.d_len; imm 1 ];
  label b clear;
  movl b (adp Adapter.o_tx_skb) (reg EDX);
  movl b (adp Adapter.o_tx_clean) (reg ECX);
  movl b (imm 0) (mem ~base:EDX ~index:(ECX, Operand.S4) 0);
  label b advance;
  movl b (adp Adapter.o_tx_clean) (reg ECX);
  wrap_inc b ECX Adapter.o_tx_size;
  movl b (reg ECX) (adp Adapter.o_tx_clean);
  jmp b loop;
  label b done_;
  xorl b (reg EAX) (reg EAX);
  epilogue b

(* ---- e1000_xmit_frame(skb, netdev) ---- *)

let emit_xmit b =
  label b entry_xmit;
  prologue b;
  movl b arg1 (reg EDI);
  movl b (mem ~base:EDI 8) (reg EBX);
  (* checksum-offload context: fold the first eight words of the packet
     into a ones-complement style accumulator (register-heavy work, as the
     real driver's context-descriptor setup is) *)
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 0) (reg EDX);
  xorl b (reg EAX) (reg EAX);
  movl b (imm 8) (reg ECX);
  let csum = fresh b "csum" in
  label b csum;
  (* internet-checksum style fold: add with end-around carry *)
  addl b (mem ~base:EDX 0) (reg EAX);
  ins b (Insn.Alu (Insn.Adc, imm 0, reg EAX));
  addl b (imm 4) (reg EDX);
  decl b (reg ECX);
  jne b csum;
  movl b (reg EAX) (reg EDI);
  shrl b (imm 16) (reg EDI);
  andl b (imm 0xFFFF) (reg EAX);
  addl b (reg EDI) (reg EAX);
  movl b arg1 (reg EDI);
  (* acquire the transmit lock *)
  leal b (Operand.mem ~base:EBX Adapter.o_lock) EAX;
  call_support b "spin_trylock" [ reg EAX ];
  testl b (reg EAX) (reg EAX);
  let busy = fresh b "tx_busy" and full = fresh b "tx_full" in
  let out = fresh b "tx_out" and ok = fresh b "tx_ok" in
  je b busy;
  (* reclaim whatever the NIC has finished *)
  call_support b entry_clean_tx [ arg1 ];
  (* ring full? a fragmented packet needs two descriptors, so require two
     free slots: full when tail+1 == clean or tail+2 == clean *)
  movl b (adp Adapter.o_tx_tail) (reg ECX);
  movl b (reg ECX) (reg EDX);
  wrap_inc b EDX Adapter.o_tx_size;
  cmpl b (adp Adapter.o_tx_clean) (reg EDX);
  je b full;
  wrap_inc b EDX Adapter.o_tx_size;
  cmpl b (adp Adapter.o_tx_clean) (reg EDX);
  je b full;
  (* ESI = skb; bus = dma_map_single(skb->data, skb->len, TO_DEVICE) *)
  movl b arg0 (reg ESI);
  call_support b "dma_map_single"
    [ mem ~base:ESI 0; mem ~base:ESI 4; imm 1 ];
  (* EDI = &tx_ring[tail]; fill the linear descriptor *)
  movl b (adp Adapter.o_tx_tail) (reg ECX);
  movl b (reg ECX) (reg EDI);
  shll b (imm 4) (reg EDI);
  addl b (adp Adapter.o_tx_ring) (reg EDI);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.d_buf);
  movl b (mem ~base:ESI 4) (reg EAX);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.d_len);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.d_sta);
  (* shadow the sk_buff for reclaim *)
  movl b (adp Adapter.o_tx_skb) (reg EDX);
  movl b (reg ESI) (mem ~base:EDX ~index:(ECX, Operand.S4) 0);
  (* statistics *)
  incl b (adp Adapter.o_tx_packets);
  movl b (mem ~base:ESI 4) (reg EAX);
  addl b (reg EAX) (adp Adapter.o_tx_bytes);
  (* chained page fragment? (§5.3: guest packets beyond the copied header
     are chained through the sk_buff's fragment pointer) *)
  let has_frag = fresh b "tx_frag" and doorbell = fresh b "tx_bell" in
  movl b (mem ~base:ESI 24) (reg EDX);
  testl b (reg EDX) (reg EDX);
  jne b has_frag;
  movl b (imm (Td_nic.Regs.cmd_eop lor Td_nic.Regs.cmd_rs))
    (mem ~base:EDI Td_nic.Regs.d_cmd);
  wrap_inc b ECX Adapter.o_tx_size;
  jmp b doorbell;
  label b has_frag;
  (* first descriptor carries the header only (no EOP) *)
  movl b (imm Td_nic.Regs.cmd_rs) (mem ~base:EDI Td_nic.Regs.d_cmd);
  (* second descriptor: the fragment, mapped with dma_map_page; the call
     clobbers caller-saved registers, so compute the slot afterwards *)
  call_support b "dma_map_page"
    [ mem ~base:ESI 24; imm 0; mem ~base:ESI 28; imm 1 ];
  movl b (adp Adapter.o_tx_tail) (reg ECX);
  wrap_inc b ECX Adapter.o_tx_size;
  movl b (reg ECX) (reg EDI);
  shll b (imm 4) (reg EDI);
  addl b (adp Adapter.o_tx_ring) (reg EDI);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.d_buf);
  movl b (mem ~base:ESI 28) (reg EAX);
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.d_len);
  movl b (imm (Td_nic.Regs.cmd_eop lor Td_nic.Regs.cmd_rs))
    (mem ~base:EDI Td_nic.Regs.d_cmd);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.d_sta);
  (* fragment marker in the shadow ring; frag bytes into the statistics *)
  movl b (adp Adapter.o_tx_skb) (reg EDX);
  movl b (imm 1) (mem ~base:EDX ~index:(ECX, Operand.S4) 0);
  movl b (mem ~base:ESI 28) (reg EAX);
  addl b (reg EAX) (adp Adapter.o_tx_bytes);
  wrap_inc b ECX Adapter.o_tx_size;
  label b doorbell;
  (* advance the tail and ring the doorbell *)
  movl b (reg ECX) (adp Adapter.o_tx_tail);
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (reg ECX) (mem ~base:EDX Td_nic.Regs.tdt);
  (* release the lock, return 0 *)
  leal b (Operand.mem ~base:EBX Adapter.o_lock) EAX;
  call_support b "spin_unlock_irqrestore" [ reg EAX; imm 0 ];
  jmp b ok;
  label b full;
  (* no descriptors: drop the frame *)
  incl b (adp Adapter.o_tx_dropped);
  call_support b "netif_stop_queue" [ arg1 ];
  leal b (Operand.mem ~base:EBX Adapter.o_lock) EAX;
  call_support b "spin_unlock_irqrestore" [ reg EAX; imm 0 ];
  call_support b "dev_kfree_skb_any" [ arg0 ];
  movl b (imm 1) (reg EAX);
  jmp b out;
  label b busy;
  incl b (adp Adapter.o_tx_dropped);
  call_support b "dev_kfree_skb_any" [ arg0 ];
  movl b (imm 1) (reg EAX);
  jmp b out;
  label b ok;
  xorl b (reg EAX) (reg EAX);
  label b out;
  epilogue b

(* ---- e1000_intr(netdev): receive processing ---- *)

let emit_intr b =
  label b entry_intr;
  prologue b;
  (* one stack slot for the received-packet count *)
  pushl b (imm 0);
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  (* read (and thereby clear) the interrupt cause *)
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Regs.icr) (reg EAX);
  testl b (reg EAX) (reg EAX);
  let out = fresh b "intr_out" in
  je b out;
  incl b (adp Adapter.o_irq_seen);
  (* receive loop *)
  let loop = fresh b "rx" and done_ = fresh b "rx_done" in
  let drop = fresh b "rx_drop" and advance = fresh b "rx_adv" in
  label b loop;
  (* EDI = &rx_ring[rx_next] *)
  movl b (adp Adapter.o_rx_next) (reg ECX);
  movl b (reg ECX) (reg EDI);
  shll b (imm 4) (reg EDI);
  addl b (adp Adapter.o_rx_ring) (reg EDI);
  testl b (imm Td_nic.Regs.sta_dd) (mem ~base:EDI Td_nic.Regs.d_sta);
  je b done_;
  (* allocate the replacement buffer first; drop if the allocator fails *)
  call_support b "netdev_alloc_skb"
    [ adp Adapter.o_netdev; adp Adapter.o_rx_buf_size ];
  testl b (reg EAX) (reg EAX);
  je b drop;
  (* swap shadow: ESI = old skb, shadow[rx_next] = new skb *)
  movl b (adp Adapter.o_rx_skb) (reg EDX);
  movl b (adp Adapter.o_rx_next) (reg ECX);
  movl b (mem ~base:EDX ~index:(ECX, Operand.S4) 0) (reg ESI);
  movl b (reg EAX) (mem ~base:EDX ~index:(ECX, Operand.S4) 0);
  (* old buffer: unmap while the descriptor still holds its address *)
  call_support b "dma_unmap_single"
    [ mem ~base:EDI Td_nic.Regs.d_buf; adp Adapter.o_rx_buf_size; imm 2 ];
  (* map the new buffer; caller-saved registers don't survive the call, so
     the new sk_buff is re-read from the shadow ring *)
  movl b (adp Adapter.o_rx_skb) (reg EDX);
  movl b (adp Adapter.o_rx_next) (reg ECX);
  movl b (mem ~base:EDX ~index:(ECX, Operand.S4) 0) (reg EDX);
  call_support b "dma_map_single"
    [ mem ~base:EDX 0; adp Adapter.o_rx_buf_size; imm 2 ];
  movl b (reg EAX) (mem ~base:EDI Td_nic.Regs.d_buf);
  movl b (mem ~base:EDI Td_nic.Regs.d_len) (reg EAX);
  movl b (reg EAX) (mem ~base:ESI 4);
  (* old skb: classify and hand to the stack *)
  call_support b "eth_type_trans" [ reg ESI; adp Adapter.o_netdev ];
  incl b (adp Adapter.o_rx_packets);
  movl b (mem ~base:ESI 4) (reg EAX);
  addl b (reg EAX) (adp Adapter.o_rx_bytes);
  call_support b "netif_rx" [ reg ESI ];
  incl b (mem ~base:ESP 0);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.d_sta);
  jmp b advance;
  label b drop;
  (* allocator failed: reuse the old buffer in place, count the drop *)
  incl b (adp Adapter.o_rx_alloc_fail);
  movl b (imm 0) (mem ~base:EDI Td_nic.Regs.d_sta);
  label b advance;
  (* rx_next = (rx_next+1) mod size; give the slot back via RDT *)
  movl b (adp Adapter.o_rx_next) (reg ECX);
  wrap_inc b ECX Adapter.o_rx_size;
  movl b (reg ECX) (adp Adapter.o_rx_next);
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Regs.rdt) (reg ECX);
  wrap_inc b ECX Adapter.o_rx_size;
  movl b (reg ECX) (mem ~base:EDX Td_nic.Regs.rdt);
  jmp b loop;
  label b done_;
  (* transmit completions are reclaimed from the interrupt too *)
  call_support b entry_clean_tx [ arg0 ];
  label b out;
  popl b (reg EAX);
  epilogue b

(* ---- e1000_check_link(netdev): called through a function pointer held
   in shared driver data (exercises the stlb_call translation, §5.1.2) ---- *)

let entry_check_link = "e1000_check_link"

let emit_check_link b =
  label b entry_check_link;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Regs.status) (reg EAX);
  andl b (imm 2) (reg EAX);
  let down = fresh b "lnk_down" and out = fresh b "lnk_out" in
  je b down;
  movl b (imm 1) (adp Adapter.o_link_up);
  call_support b "netif_carrier_on" [ arg0 ];
  movl b (imm 1) (reg EAX);
  jmp b out;
  label b down;
  movl b (imm 0) (adp Adapter.o_link_up);
  call_support b "netif_carrier_off" [ arg0 ];
  call_support b "printk" [ imm 0 ];
  xorl b (reg EAX) (reg EAX);
  label b out;
  epilogue b

(* ---- e1000_watchdog(netdev): housekeeping on a dom0 timer ---- *)

let emit_watchdog b =
  label b entry_watchdog;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  incl b (adp Adapter.o_watchdog_runs);
  (* harvest the missed-packet counter from the NIC *)
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (mem ~base:EDX Td_nic.Regs.mpc) (reg EAX);
  movl b (reg EAX) (adp Adapter.o_stats_mpc);
  (* link check through the ops function pointer, when installed *)
  movl b (adp Adapter.o_link_fn) (reg EDX);
  testl b (reg EDX) (reg EDX);
  let skip = fresh b "wd_nofn" in
  je b skip;
  pushl b arg0;
  call_ind b (reg EDX);
  addl b (imm 4) (reg ESP);
  label b skip;
  call_support b "mod_timer" [ arg0; imm 100 ];
  xorl b (reg EAX) (reg EAX);
  epilogue b

(* ---- e1000_get_stats(netdev, dest): copy the statistics block ---- *)

let emit_get_stats b =
  label b entry_get_stats;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  leal b (Operand.mem ~base:EBX Adapter.o_tx_packets) EAX;
  movl b (reg EAX) (reg ESI);
  movl b arg1 (reg EDI);
  movl b (imm 8) (reg ECX);
  rep_movsl b;
  leal b (Operand.mem ~base:EBX Adapter.o_tx_packets) EAX;
  epilogue b

(* ---- e1000_set_rx_mode(netdev, promisc): clear/refill the multicast
   table and flip promiscuous mode — pure configuration-path work that
   stays on the VM instance (§3.1) ---- *)

let emit_set_rx_mode b =
  label b entry_set_rx_mode;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  call_support b "rtnl_lock" [];
  (* clear the 32-entry multicast table with a string store *)
  movl b (adp Adapter.o_mmio) (reg EDI);
  addl b (imm Td_nic.Regs.mta) (reg EDI);
  xorl b (reg EAX) (reg EAX);
  movl b (imm Td_nic.Regs.mta_entries) (reg ECX);
  rep_stosl b;
  (* hash a couple of multicast addresses into it (toy hash: low bits) *)
  movl b (adp Adapter.o_mmio) (reg EDX);
  movl b (imm 1) (mem ~base:EDX (Td_nic.Regs.mta + 4));
  movl b (imm 0x80) (mem ~base:EDX (Td_nic.Regs.mta + 96));
  (* promiscuous bit in RCTL per the argument *)
  movl b (mem ~base:EDX Td_nic.Regs.rctl) (reg EAX);
  andl b (imm (lnot 8 land 0xFFFFFFFF)) (reg EAX);
  movl b arg1 (reg ECX);
  testl b (reg ECX) (reg ECX);
  let skip = fresh b "rxm" in
  je b skip;
  orl b (imm 8) (reg EAX);
  label b skip;
  movl b (reg EAX) (mem ~base:EDX Td_nic.Regs.rctl);
  call_support b "printk" [ imm 0 ];
  call_support b "rtnl_unlock" [];
  xorl b (reg EAX) (reg EAX);
  epilogue b

(* ---- e1000_set_mtu(netdev, mtu): the ethtool-like config path ---- *)

let emit_set_mtu b =
  label b entry_set_mtu;
  prologue b;
  movl b arg0 (reg ESI);
  movl b (mem ~base:ESI 8) (reg EBX);
  call_support b "rtnl_lock" [];
  call_support b "netif_stop_queue" [ arg0 ];
  call_support b "msleep" [ imm 10 ];
  (* netdev->mtu = arg1 *)
  movl b arg1 (reg EAX);
  movl b (reg EAX) (mem ~base:ESI 20);
  call_support b "printk" [ imm 0 ];
  call_support b "netif_wake_queue" [ arg0 ];
  call_support b "rtnl_unlock" [];
  xorl b (reg EAX) (reg EAX);
  epilogue b

let source () =
  let b = create "e1000" in
  emit_init b;
  emit_clean_tx b;
  emit_xmit b;
  emit_intr b;
  emit_check_link b;
  emit_watchdog b;
  emit_get_stats b;
  emit_set_mtu b;
  emit_set_rx_mode b;
  finish b
