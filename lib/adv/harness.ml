open Td_xen
open Td_kernel

(* Attacker-controlled pages granted to the fuzzer, re-granted freely so
   a bounded pool survives an unbounded op count. *)
let pool_pages = 64

(* dom0 virtual window the fuzzer maps attacker grants into: 256 pages
   ending exactly at Xen_netio's doorbell window (0xC7E0_0000). *)
let fuzz_map_base = 0xC7D0_0000
let fuzz_map_pages = 256

type env = {
  phys : Td_mem.Phys_mem.t;
  dom0_space : Td_mem.Addr_space.t;
  hyp_space : Td_mem.Addr_space.t;
  att_space : Td_mem.Addr_space.t;
  vic_space : Td_mem.Addr_space.t;
  ledger : Ledger.t;
  hyp : Hypervisor.t;
  dom0 : Domain.t;
  attacker : Domain.t;
  victim : Domain.t;
  quota : Quota.state option;
  att_grants : Grant_table.t;
  svm : Td_svm.Runtime.t;
  calls : Td_svm.Call_table.t;
  kmem : Kmem.t;
  att_netio : Xen_netio.t;
  vic_netio : Xen_netio.t;
  nic : Td_nic.E1000_dev.t;
  nic_mmio : int;  (** NIC register page vaddr in attacker space *)
  ring_base : int;  (** attacker-memory TX descriptor ring page *)
  buf_base : int;  (** attacker-memory packet buffer page *)
  dom0_probe : int;  (** mapped dom0 heap region for SVM translate ops *)
  dom0_probe_pages : int;
  pool : (int * Td_mem.Phys_mem.frame) array;
      (** attacker pages the fuzzer grants from: (vaddr, frame) *)
  victim_frames : (Td_mem.Phys_mem.frame, unit) Hashtbl.t;
  att_wire : int ref;  (** attacker frames that reached the wire *)
  vic_wire : int ref;
}

(* NIC MMIO page for the attacker-driven device model: outside the guest
   heap so heap_alloc can never collide with it *)
let nic_mmio_vaddr = 0xF900_0000

let record_guest_frames space tbl =
  let p0 = Td_mem.Layout.page_of Td_mem.Layout.guest_heap_base
  and p1 = Td_mem.Layout.page_of (Td_mem.Layout.guest_heap_limit - 1) in
  for vp = p0 to p1 do
    match Td_mem.Addr_space.frame_of_vpage space ~vpage:vp with
    | Some f -> Hashtbl.replace tbl f ()
    | None -> ()
  done

let make ?quota ?(attacker_doorbell = true) () =
  let phys = Td_mem.Phys_mem.create () in
  let dom0_space = Td_mem.Addr_space.create ~name:"dom0" phys in
  let hyp_space = Td_mem.Addr_space.create ~name:"xen" phys in
  let att_space = Td_mem.Addr_space.create ~name:"attacker" phys in
  let vic_space = Td_mem.Addr_space.create ~name:"victim" phys in
  Td_mem.Addr_space.heap_init dom0_space ~base:Td_mem.Layout.dom0_heap_base
    ~limit:Td_mem.Layout.dom0_heap_limit;
  Td_mem.Addr_space.heap_init att_space ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  Td_mem.Addr_space.heap_init vic_space ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let ledger = Ledger.create () in
  let cpu = Td_cpu.State.create ~hyp_space dom0_space in
  let hyp = Hypervisor.create ~ledger ~xen_space:hyp_space ~cpu () in
  let dom0 =
    Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
      ~space:dom0_space
  in
  let victim =
    Domain.create ~id:1 ~name:"victim" ~kind:Domain.Guest ~space:vic_space
  in
  let attacker =
    Domain.create ~id:2 ~name:"attacker" ~kind:Domain.Guest ~space:att_space
  in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp victim;
  Hypervisor.add_domain hyp attacker;
  (* quotas first, so every allocation below is accounted like a real
     boot would be; dom0 is exempt (see World) *)
  let quota =
    Option.map
      (Quota.make ~now:(fun () -> Ledger.grand_total ledger))
      quota
  in
  let svm =
    Td_svm.Runtime.create_hypervisor ~dom0:dom0_space ~hyp:hyp_space ()
  in
  Option.iter
    (fun q ->
      Td_svm.Runtime.set_window_guard svm (Hypervisor.window_guard hyp q))
    quota;
  let calls =
    Td_svm.Call_table.create ~vm_code_base:Td_mem.Layout.vm_driver_code_base
      ~vm_code_size:Td_mem.Layout.page_size
      ~resolver:(fun _ -> None)
  in
  let att_grants = Grant_table.create ?quota ~owner:attacker () in
  let kmem = Kmem.create dom0_space in
  let att_wire = ref 0 and vic_wire = ref 0 in
  let notify =
    if attacker_doorbell then
      Xen_netio.Always_poll { batch = 4; poll_budget = 8 }
    else Xen_netio.Interrupts { batch = 4 }
  in
  let att_netio =
    Xen_netio.create ~notify ?quota ~hyp ~dom0 ~guest:attacker ~kmem
      ~driver_tx:(fun skb ->
        incr att_wire;
        Skb.free_at kmem dom0_space skb)
      ()
  in
  let vic_netio =
    Xen_netio.create ?quota ~hyp ~dom0 ~guest:victim ~kmem
      ~driver_tx:(fun skb ->
        incr vic_wire;
        Skb.free_at kmem dom0_space skb)
      ()
  in
  Xen_netio.post_rx_buffers vic_netio 4;
  (* the NIC model DMAs through ATTACKER memory: its descriptor rings and
     buffers are hostile input, and its faults are attributed there *)
  let nic =
    Td_nic.E1000_dev.create
      ~fault_domain:(fun () -> Some (Domain.name attacker))
      ~dma:att_space ~mac:"\x02ADV00"
      ~tx_frame:(fun _ _ -> incr att_wire)
      ()
  in
  Td_nic.E1000_dev.attach nic ~space:att_space ~vaddr:nic_mmio_vaddr;
  let ring_base = Td_mem.Addr_space.heap_alloc att_space 4096 in
  let buf_base = Td_mem.Addr_space.heap_alloc att_space 4096 in
  let dom0_probe_pages = 16 in
  let dom0_probe =
    Td_mem.Addr_space.heap_alloc dom0_space (dom0_probe_pages * 4096)
  in
  let pool =
    Array.init pool_pages (fun _ ->
        let vaddr = Td_mem.Addr_space.heap_alloc att_space 4096 in
        let frame =
          Option.get
            (Td_mem.Addr_space.frame_of_vpage att_space
               ~vpage:(Td_mem.Layout.page_of vaddr))
        in
        (vaddr, frame))
  in
  let victim_frames = Hashtbl.create 1024 in
  record_guest_frames vic_space victim_frames;
  {
    phys;
    dom0_space;
    hyp_space;
    att_space;
    vic_space;
    ledger;
    hyp;
    dom0;
    attacker;
    victim;
    quota;
    att_grants;
    svm;
    calls;
    kmem;
    att_netio;
    vic_netio;
    nic;
    nic_mmio = nic_mmio_vaddr;
    ring_base;
    buf_base;
    dom0_probe;
    dom0_probe_pages;
    pool;
    victim_frames;
    att_wire;
    vic_wire;
  }

(* ---- the isolation invariant ---- *)

(* Nothing reachable from the attacker may resolve to a victim page
   frame: neither the attacker's own address space nor the SVM mapped-page
   window (the view hypervisor-driver code gets while running on the
   attacker's behalf). *)
let isolation_violations env =
  let bad = ref [] in
  let sweep space label lo pages =
    let p0 = Td_mem.Layout.page_of lo in
    for vp = p0 to p0 + pages - 1 do
      match Td_mem.Addr_space.frame_of_vpage space ~vpage:vp with
      | Some f when Hashtbl.mem env.victim_frames f ->
          bad :=
            Printf.sprintf "%s: vpage 0x%x resolves to victim frame %d" label
              vp f
            :: !bad
      | _ -> ()
    done
  in
  sweep env.att_space "attacker space" Td_mem.Layout.guest_heap_base
    ((Td_mem.Layout.guest_heap_limit - Td_mem.Layout.guest_heap_base) / 4096);
  sweep env.hyp_space "svm window" Td_mem.Layout.map_window_base
    Td_mem.Layout.map_window_pages;
  List.rev !bad

(* Frame conservation across both I/O channels: nothing the fuzzer did
   may lose a staged frame between frontend and backend. *)
let conservation_violations env =
  let check name io acc =
    if Xen_netio.conserved io then acc
    else Printf.sprintf "%s channel lost staged frames" name :: acc
  in
  check "attacker" env.att_netio (check "victim" env.vic_netio [])

(* ---- hostile-neighbour contention run (the quota payoff) ---- *)

type contention = {
  victim_sent : int;  (** frames the victim pushed *)
  victim_wire : int;  (** frames that reached the wire *)
  victim_throttled : int;  (** victim frames denied — 0 if the quota is fair *)
  attacker_attempts : int;
  attacker_throttled : int;  (** attempts denied by quota *)
  attacker_row : int;  (** cycles attributed to the attacker *)
  other_cycles : int;  (** grand total minus the attacker's row *)
  grand_cycles : int;  (** total simulated cycles — the run's wall clock *)
}

(* One paced victim, one flooding neighbour, one shared CPU. Per slot the
   victim sends one frame and then idles [idle_cycles] (a netperf-paced
   sender, far below its quota); the attacker spends the slot bursting
   [attack_per_frame] transmits back-to-back. The figure of merit is the
   victim's throughput — frames over total simulated cycles. Quotas
   protect it because a denied frame dies at the frontend credit check
   before any skb or dom0 backend work exists: the attacker burns almost
   none of the shared clock. Without quotas every burst frame takes the
   full netfront/channel/netback/bridge path and the victim's throughput
   collapses with it. *)
let contend ?quota ?(frames = 200) ?(attack_per_frame = 20)
    ?(idle_cycles = 150_000) () =
  let env = make ?quota ~attacker_doorbell:false () in
  let payload = String.make 1400 'v' in
  let attack = String.make 1400 'a' in
  let throttled = ref 0 and attempts = ref 0 and vic_throttled = ref 0 in
  for _ = 1 to frames do
    if attack_per_frame > 0 then
      Hypervisor.run_in env.hyp env.attacker (fun () ->
          for _ = 1 to attack_per_frame do
            incr attempts;
            match Xen_netio.guest_transmit env.att_netio ~hdr:"" attack with
            | () -> ()
            | exception Quota.Quota_exceeded _ -> incr throttled
          done);
    Hypervisor.run_in env.hyp env.victim (fun () ->
        match Xen_netio.guest_transmit env.vic_netio ~hdr:"" payload with
        | () -> ()
        | exception Quota.Quota_exceeded _ -> incr vic_throttled);
    Hypervisor.charge_xen env.hyp idle_cycles
  done;
  Xen_netio.teardown env.att_netio;
  Xen_netio.teardown env.vic_netio;
  let attacker_row = Ledger.domain_total env.ledger env.attacker in
  let grand_cycles = Ledger.grand_total env.ledger in
  {
    victim_sent = frames;
    victim_throttled = !vic_throttled;
    victim_wire = !(env.vic_wire);
    attacker_attempts = !attempts;
    attacker_throttled = !throttled;
    attacker_row;
    other_cycles = grand_cycles - attacker_row;
    grand_cycles;
  }
