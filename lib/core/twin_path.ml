open Td_misa
open Td_mem
open Td_cpu
open Td_xen
open Td_svm
open Td_kernel
open Td_rewriter
open World_state

(* Derive the twin and load both instances: the VM instance (identity
   stlb, dom0-resolved symbols) becomes the world's dom0 driver, the
   hypervisor instance runs from the hypervisor's code base against the
   persistently mapped sk_buff pool. *)
let boot ?spill_everything ?rewrite_style ?cache_probes ~map_pairs
    ~upcall_set ~pool_entries ~tuning ~fault ~quota ~registry ~natives ~sup
    ~km ~dom0_space ~xen_space ~dom0_support x =
  let derived =
    Twin.derive ?spill_everything ?style:rewrite_style ?cache_probes
      (Td_driver.E1000_driver.source ())
  in
  (* an instance links against its SVM runtime's helpers, its own
     [__svm_call] binding, then the kernel routines *)
  let instance ~name ~base ~runtime ~stlb_vaddr ~scratch_vaddr ~svm_call
      kernel =
    let symbols =
      Loader.overlay
        (Loader.svm_symbols ~runtime ~natives ~stlb_vaddr ~scratch_vaddr)
        (Loader.overlay
           (fun n ->
             if n = Symbols.svm_call then Native.address_of natives svm_call
             else None)
           kernel)
    in
    entries_of
      (Loader.load ~name ~source:derived.Twin.rewritten ~base ~symbols
         ~registry)
  in
  (* VM instance: identity stlb, dom0-resolved symbols *)
  let vm_stlb = Addr_space.heap_alloc dom0_space (4096 * 8) in
  let vm_scratch = Kmem.alloc km 64 in
  let vm_rt =
    Runtime.create_identity ~fault ~dom0:dom0_space ~stlb_vaddr:vm_stlb ()
  in
  Runtime.register_natives vm_rt natives;
  ignore
    (Native.register natives "__svm_call@vm" (fun st ->
         State.set st Reg.EAX (State.stack_arg st 0)));
  let vm_driver =
    instance ~name:"e1000.vm" ~base:Layout.vm_driver_code_base ~runtime:vm_rt
      ~stlb_vaddr:vm_stlb ~scratch_vaddr:vm_scratch ~svm_call:"__svm_call@vm"
      dom0_support
  in
  (* hypervisor instance *)
  let hyp_rt =
    Runtime.create_hypervisor ~map_pairs
      ~window_pages:tuning.Config.map_window_pages ~fault ~dom0:dom0_space
      ~hyp:xen_space ()
  in
  Runtime.register_natives hyp_rt natives;
  let pool =
    Skb_pool.create km dom0_space ~entries:pool_entries
      ~buf_size:Skb.default_buf_bytes
  in
  pin_pool hyp_rt pool;
  let ctx =
    {
      Support.hyp = x.hyp;
      dom0 = x.dom0;
      svm = hyp_rt;
      pool;
      hyp_netif_rx = (fun _ -> ());
    }
  in
  let native_set =
    List.filter (fun n -> not (List.mem n upcall_set)) Support.fast_path_names
  in
  Support.register_hyp_natives ?quota ~fault sup natives ~ctx ~native_set;
  let ct =
    Call_table.create ~vm_code_base:Layout.vm_driver_code_base
      ~vm_code_size:(Program.size_bytes vm_driver.prog)
      ~resolver:(fun addr ->
        (* a function pointer to a dom0 kernel routine resolves to its
           hypervisor-side binding (native or upcall stub) *)
        match Native.name_of natives addr with
        | Some name when Filename.check_suffix name "@dom0" ->
            Native.address_of natives
              (Filename.chop_suffix name "@dom0" ^ "@hyp")
        | Some _ | None -> None)
  in
  Call_table.register_native ct natives "__svm_call@hyp";
  let hyp_driver =
    instance ~name:"e1000.hyp" ~base:Layout.hyp_driver_code_base
      ~runtime:hyp_rt ~stlb_vaddr:Layout.stlb_base
      ~scratch_vaddr:Layout.hyp_scratch_base ~svm_call:"__svm_call@hyp"
      (fun n -> Support.hyp_symtab sup natives n)
  in
  let tw =
    {
      derived;
      svm_hyp = hyp_rt;
      svm_vm = vm_rt;
      vm_stlb;
      pool;
      hyp_driver;
      gmac_index = Td_sim.Int_tbl.create 8;
      sched = Scheduler.create ();
      tx_pushes = 0;
    }
  in
  (Twin (x, tw), vm_driver)

(* The hooks that must be in place before the drivers initialise. *)
let arm w x tw =
  (* reclaims evict a mapped pair synchronously inside the hypervisor:
     charge the shootdown against Xen's ledger category *)
  Runtime.set_reclaim_hook tw.svm_hyp (fun () ->
      charge_xen_cat w w.costs.Sys_costs.window_reclaim);
  (* with a quota engine, mapped-page window pairs are charged to the
     domain on whose behalf the hypervisor driver is running *)
  Option.iter
    (fun q ->
      Runtime.set_window_guard tw.svm_hyp (Hypervisor.window_guard x.hyp q))
    w.quota;
  (* exact stlb.hit accounting: the inline probe's hit path is the xor
     against an stlb entry's second word (offset +4), so each stlb's hit
     word is a probe site crediting the runtime that owns it *)
  Interp.set_probes w.interp
    [
      (Layout.stlb_base + 4, Runtime.note_inline_hit tw.svm_hyp);
      (tw.vm_stlb + 4, Runtime.note_inline_hit tw.svm_vm);
    ]

(* the guest's vif MACs demux to its slot on every NIC *)
let add_guest tw (s : guest_slot) ~guest:g =
  Scheduler.add tw.sched s.gs_dom;
  Array.iter
    (fun mac -> Td_sim.Int_tbl.replace tw.gmac_index (Bridge.mac_key mac) g)
    s.gs_macs

(* Hypervisor-side netif_rx: demultiplex on destination MAC and queue the
   packet for its guest; the copy and virtual interrupt happen when the
   guest is next scheduled (§5.3). [Skb.contents_at] returns a fresh buffer
   nothing else holds, so it becomes the string without a copy. *)
let boot_rx w x tw =
  let s0 = slot_exn w 0 ~op:"World.init" in
  add_guest tw s0 ~guest:0;
  Support.set_hyp_netif_rx w.sup (fun skb ->
      charge_xen_cat w
        (w.costs.Sys_costs.twin_demux + w.costs.Sys_costs.twin_rx_queue);
      let hdr = Skb.data_at w.dom0_space skb - eth_header_bytes in
      let dst = Bridge.read_mac w.dom0_space hdr in
      (match Td_sim.Int_tbl.find tw.gmac_index dst with
      | gi -> (
          match slot_opt w gi with
          | Some s ->
              Td_sim.Fifo.push s.gs_rx_pending
                (Bytes.unsafe_to_string (Skb.contents_at w.dom0_space skb))
          | None ->
              (* destroyed since the MAC was learned: dom0-local *)
              charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path)
      | exception Not_found ->
          (* not for a guest: hand to dom0 like a local packet *)
          charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path);
      free_any_skb w skb);
  Hypervisor.switch_to x.hyp s0.gs_dom

(* One transmit attempt through the hypervisor instance: a pool sk_buff
   gets the guest packet and the driver's xmit runs on it. Static, so the
   supervisor can retry it after an abort without a closure being built
   on every frame. *)
let attempt w ~nic tw payload =
  let p = w.nics.(nic) in
  charge_xen_cat w w.costs.Sys_costs.twin_skb_acquire;
  match Skb_pool.alloc tw.pool with
  | None ->
      w.tx_drops <- w.tx_drops + 1;
      false
  | Some { Skb.space; addr = skb } ->
      (* header copy (up to 96 bytes) into the sk_buff's linear area; the
         rest of the guest packet is chained through the page fragment
         pointer using a preallocated dom0 frame (§5.3) *)
      let frame_len = eth_header_bytes + String.length payload in
      let linear = Int.min 96 frame_len in
      charge_xen_cat w
        (int_of_float (float_of_int linear *. w.costs.Sys_costs.copy_per_byte));
      Skb.put_string_at space skb p.tx_hdr ~off:0 ~len:eth_header_bytes;
      let head = linear - eth_header_bytes in
      Skb.put_string_at space skb payload ~off:0 ~len:head;
      if frame_len > linear then begin
        charge_xen_cat w w.costs.Sys_costs.twin_frag_chain;
        let rest = frame_len - linear in
        let frag = Skb_pool.frag_buffer tw.pool skb in
        (* chaining is a remap in the paper, not a copy: the bytes are
           placed functionally but only the constant chain cost is
           charged *)
        Addr_space.write_string w.dom0_space frag payload ~off:head ~len:rest;
        Skb.set_frag_at space skb ~page:frag ~len:rest
      end;
      let r =
        Supervisor.run_hyp_driver2 w ~entry:tw.hyp_driver.e_xmit skb
          p.nd.Netdev.addr
      in
      if r <> 0 then w.tx_drops <- w.tx_drops + 1;
      r = 0

let transmit w x tw ~nic ~payload =
  charge_domU_cat w w.costs.Sys_costs.kernel_tx_path;
  (* doorbell suppression: with batching only every [notify_batch]th ring
     push traps into the hypervisor; the others just set the producer
     index (the packet is still handled synchronously, so the wire stream
     is bit-identical to the unbatched system) *)
  tw.tx_pushes <- tw.tx_pushes + 1;
  if
    w.tuning.Config.notify_batch <= 1
    || (tw.tx_pushes - 1) mod w.tuning.Config.notify_batch = 0
  then Hypervisor.hypercall x.hyp ()
  else charge_xen_cat w w.costs.Sys_costs.notify_coalesce;
  Supervisor.transmit w ~nic attempt tw payload

let intr w ~nic tw =
  Supervisor.run_hyp_driver w ~entry:tw.hyp_driver.e_intr
    w.nics.(nic).nd.Netdev.addr

let run_intr w tw ~nic = Supervisor.invoke w ~nic intr tw

let service_interrupt w x tw ~nic =
  charge_xen_cat w
    (w.costs.Sys_costs.interrupt_dispatch + w.costs.Sys_costs.softirq_schedule);
  (* §4.4: the hypervisor respects dom0's virtual interrupt flag *)
  if Domain.interrupts_masked x.dom0 then
    Domain.defer x.dom0 (fun () -> run_intr w tw ~nic)
  else run_intr w tw ~nic

(* slot behind a scheduled domain: slot [g] always holds domain id
   [g + 1], so the lookup is O(1) with an identity cross-check *)
let slot_of_domain w d =
  match slot_opt w (Domain.id d - 1) with
  | Some s as found when Domain.id s.gs_dom = Domain.id d -> found
  | Some _ | None -> None

let has_work w d =
  match slot_of_domain w d with
  | Some s -> not (Td_sim.Fifo.is_empty s.gs_rx_pending)
  | None -> false

(* Drain one guest's pending queue: one virtual interrupt announces up to
   [batch] queued packets; the copies still happen per packet, in queue
   order. Also the final delivery pass of [World.destroy_guest] — queued
   frames belong to the guest while it lives. *)
let deliver_guest_queue w x dom gi q =
  let batch = Int.max 1 w.tuning.Config.notify_batch in
  while not (Td_sim.Fifo.is_empty q) do
    let n = Int.min batch (Td_sim.Fifo.length q) in
    let group = ref [] in
    for _ = 1 to n do
      let payload = Td_sim.Fifo.pop q in
      charge_xen_cat w
        (int_of_float
           (float_of_int (String.length payload)
           *. w.costs.Sys_costs.copy_per_byte));
      group := payload :: !group
    done;
    if n > 1 then
      charge_xen_cat w ((n - 1) * w.costs.Sys_costs.notify_coalesce);
    let group = List.rev !group in
    Hypervisor.send_virq x.hyp dom (fun () ->
        List.iter
          (fun payload ->
            charge_domU_cat w w.costs.Sys_costs.kernel_rx_path;
            count_rx ~guest:gi w payload)
          group)
  done

(* receive completion: each queued packet is copied into its guest's
   buffers and announced with a virtual interrupt once that guest runs *)
let deliver_pending w x tw =
  (* the credit scheduler decides which guest runs (and so receives its
     queued packets) next *)
  let continue = ref true in
  while !continue do
    match Scheduler.pick tw.sched ~runnable:has_work w with
    | None -> continue := false
    | Some dom ->
        let s = Option.get (slot_of_domain w dom) in
        deliver_guest_queue w x dom (Domain.id dom - 1) s.gs_rx_pending
  done

let remove_guest w x tw (s : guest_slot) ~guest:g =
  deliver_guest_queue w x s.gs_dom g s.gs_rx_pending;
  Array.iter
    (fun mac -> Td_sim.Int_tbl.remove tw.gmac_index (Bridge.mac_key mac))
    s.gs_macs;
  Scheduler.remove tw.sched s.gs_dom;
  Hypervisor.remove_domain x.hyp s.gs_dom
