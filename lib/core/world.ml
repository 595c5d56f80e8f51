open Td_misa
open Td_mem
open Td_cpu
open Td_xen
open Td_kernel

exception Driver_aborted of string
exception Nic_quarantined of { nic : int }

exception Config_error of { domain : string; reason : string }

let () =
  Printexc.register_printer (function
    | Driver_aborted r -> Some (Printf.sprintf "Driver_aborted(%s)" r)
    | Nic_quarantined { nic } -> Some (Printf.sprintf "Nic_quarantined(%d)" nic)
    | Config_error { domain; reason } ->
        Some (Printf.sprintf "Config_error(%s: %s)" domain reason)
    | _ -> None)

type driver_image = {
  prog : Program.t;
  e_init : int;
  e_xmit : int;
  e_intr : int;
  e_watchdog : int;
  e_get_stats : int;
  e_set_mtu : int;
  e_set_rx_mode : int;
}

(* shadow state (§4.5): the little configuration the supervisor needs to
   rebuild a twin instance after an abort. Ring geometry is not stored —
   re-running e1000_init re-derives it; what cannot be re-derived is the
   configuration the guest applied through the driver since boot. *)
type shadow_state = {
  s_mmio_base : int;
  mutable s_mtu : int;
  mutable s_promisc : bool;
}

type nic_port = {
  dev : Td_nic.E1000_dev.t;
  nd : Netdev.t;
  mac : string;
  cmac : string;  (** the wire-side client's MAC *)
  tx_hdr : string;
      (** client MAC, NIC MAC, IPv4 ethertype: the Ethernet header of
          every frame {!transmit} sends on this port *)
  wire : Td_nic.Wire.counters;
  mutable pending_irq : int;
  mutable quarantined : bool;
  shadow : shadow_state;
}

(* One registered domain: its Xen domain, address space, netfront
   channel(s) and receive-side state. Slot [g] always holds domain id
   [g + 1]; slots are never reused, so domain ids are unique for the
   world's lifetime and a destroyed guest leaves a [None] tombstone. *)
type guest_slot = {
  gs_dom : Domain.t;
  gs_space : Addr_space.t;
  mutable gs_netios : (int * Xen_netio.t) array;
      (** (NIC index, channel), in attach order; Xen_domU only *)
  gs_macs : string array;  (** the guest's vif MAC on each NIC *)
  gs_tx_hdrs : string array;
      (** per NIC: client MAC, vif MAC, IPv4 ethertype — the Ethernet
          header of the guest's {!transmit_from} frames *)
  gs_rx_pending : string Queue.t;  (** demuxed, awaiting guest schedule *)
  mutable gs_rx_count : int;
}

type t = {
  cfg : Config.t;
  tuning : Config.tuning;
  phys : Phys_mem.t;
  dom0_space : Addr_space.t;
  xen_space : Addr_space.t;
  registry : Code_registry.t;
  natives : Native.t;
  km : Kmem.t;
  sup : Support.t;
  led : Ledger.t;
  cpu : State.t;
  hyp : Hypervisor.t option;
  dom0 : Domain.t option;
  guest : Domain.t option;  (** first guest, when any *)
  mutable slots : guest_slot option array;  (** the domain registry *)
  quota : Quota.state option;
      (** this world's quota engine ({!Config.tuning.quota}), handed at
          construction to its grant tables, I/O channels, upcall stubs
          and map-window guard *)
  fault : Td_fault.Engine.state;
      (** this world's fault engine ({!Config.tuning.fault_plan}; a
          zero-plan one without, which never draws), handed at
          construction to its SVM runtimes, interpreter, NICs and upcall
          stubs; it also counts the world's lost frames *)
  dom0_stack_top : int;
  costs : Sys_costs.t;
  nics : nic_port array;
  mutable dom0_driver : driver_image;
  mutable hyp_driver : driver_image option;
  reload_dom0 : unit -> driver_image;
      (** re-run the MISA loader for the dom0/VM instance (same base,
          fresh image) — the supervisor's restart path *)
  reload_hyp : (unit -> driver_image) option;  (** Xen_twin only *)
  mutable in_recovery : bool;
  mutable recoveries : int;
  mutable replayed : int;
  svm_hyp : Td_svm.Runtime.t option;
  svm_vm : (Td_svm.Runtime.t * int) option;
      (** VM-instance identity runtime and its stlb vaddr, Xen_twin only *)
  twin : Td_rewriter.Twin.t option;
  skb_pool : Skb_pool.t option;
  vswitch : Bridge.t;
      (** dom0 software bridge: fdb maps guest vif MACs to backend ports,
          one port per netfront channel (Xen_domU only) *)
  gmac_index : (int, int) Hashtbl.t;
      (** guest MAC ({!Bridge.mac_key}) -> guest slot *)
  interp : Interp.t;
  timers : Timer_wheel.t;  (** dom0 kernel timers (watchdog housekeeping) *)
  sched : Scheduler.t;  (** orders guest work (packet delivery, §5.3) *)
  mutable rx_frames : int;
  mutable rx_bytes : int;
  mutable rx_last : string;  (** meaningful once [rx_frames > 0] *)
  rx_queue : string Queue.t;
      (** every delivered payload, in order, until a consumer pops it *)
  mutable rx_drops : int;  (** frames lost because [rx_queue] was full *)
  mutable tx_drops : int;
  mutable twin_tx_pushes : int;
      (** twin TX ring pushes since the last doorbell hypercall *)
}

(* Guest payloads queue here until the consumer (netchannel, tests) pops
   them; beyond this the stack would push back in a real system, so we
   drop — but count the drop instead of losing the frame silently. *)
let rx_queue_capacity = 4096

let config t = t.cfg
let nic_count t = Array.length t.nics
let ledger t = t.led
let support t = t.sup
let kmem t = t.km
let dom0_space t = t.dom0_space
let netdev t ~nic = t.nics.(nic).nd
let adapter t ~nic = Td_driver.Adapter.of_netdev t.nics.(nic).nd

let svm t = t.svm_hyp
let twin_stats t = Option.map (fun tw -> tw.Td_rewriter.Twin.stats) t.twin
let pool t = t.skb_pool
let hypervisor t = t.hyp
let cpu_state t = t.cpu

(* ---- domain registry helpers ---- *)

let guest_name g = Printf.sprintf "guest%d" g

let slot_opt w g =
  if g >= 0 && g < Array.length w.slots then w.slots.(g) else None

(* a dead or unknown guest index is guest-reachable input (a stale handle
   in a control-plane call), so it faults typed and attributed *)
let slot_exn w g ~op =
  match slot_opt w g with
  | Some s -> s
  | None -> Guest_fault.fail ~domain:(guest_name g) ~op "guest %d is not live" g

let iter_slots w f =
  Array.iteri (fun g s -> match s with Some s -> f g s | None -> ()) w.slots

(* channels in (slot, attach) order: deterministic, and NIC order for a
   single boot guest *)
let iter_netios w f =
  iter_slots w (fun _ s -> Array.iter (fun (_, io) -> f io) s.gs_netios)

let fold_netios w f acc =
  let r = ref acc in
  iter_netios w (fun io -> r := f !r io);
  !r

(* guest 0's channel on [nic] *)
let netio_on w ~nic =
  match slot_opt w 0 with
  | None -> None
  | Some s ->
      Array.fold_left
        (fun acc (n, io) ->
          match acc with Some _ -> acc | None -> if n = nic then Some io else None)
        None s.gs_netios

(* the fault paths that only a configured plan enables (model-fault
   containment, the lost-interrupt rescue) key on the world's own plan *)
let planned w = Option.is_some w.tuning.Config.fault_plan

(* ---- construction ---- *)

let host_mac i = Printf.sprintf "\x02\x00\x00\x00\x00%c" (Char.chr i)
let vif_mac g i = Printf.sprintf "\x02\x01%c\x00\x00%c" (Char.chr g) (Char.chr i)
let client_mac i = Printf.sprintf "\x02\x02\x00\x00\x00%c" (Char.chr i)
let eth_header_bytes = 14

(* Transmit headers are built once per port or guest slot; the transmit
   paths write header and payload straight into simulated memory. *)
let eth_header ~dst ~src = dst ^ src ^ "\x08\x00"

(* A guest's address space and its Xen domain; slot [g] holds domain id
   [g + 1]. *)
let guest_space phys g =
  let space = Addr_space.create ~name:(guest_name g) phys in
  Addr_space.heap_init space ~base:Layout.guest_heap_base
    ~limit:Layout.guest_heap_limit;
  space

let guest_domain h ~space g =
  let dom =
    Domain.create ~id:(g + 1) ~name:(guest_name g) ~kind:Domain.Guest ~space
  in
  Hypervisor.add_domain h dom;
  dom

let fresh_slot ~dom ~space ~nics g =
  {
    gs_dom = dom;
    gs_space = space;
    gs_netios = [||];
    gs_macs = Array.init nics (vif_mac g);
    gs_tx_hdrs =
      Array.init nics (fun i -> eth_header ~dst:(client_mac i) ~src:(vif_mac g i));
    gs_rx_pending = Queue.create ();
    gs_rx_count = 0;
  }

(* the guest's vif MACs demux to its slot on every NIC (twin path) *)
let index_macs w g s =
  Array.iter
    (fun mac -> Hashtbl.replace w.gmac_index (Bridge.mac_key mac) g)
    s.gs_macs

(* A frame arriving from the wire: one allocation, the header and
   payload blitted into a single buffer that becomes the frame string. *)
let build_frame ~dst ~src ~payload =
  let n = String.length payload in
  let b = Bytes.create (eth_header_bytes + n) in
  Bytes.blit_string dst 0 b 0 6;
  Bytes.blit_string src 0 b 6 6;
  Bytes.set b 12 '\x08';
  Bytes.set b 13 '\x00';
  Bytes.blit_string payload 0 b eth_header_bytes n;
  Bytes.unsafe_to_string b

let entries_of (prog : Program.t) =
  {
    prog;
    e_init = Program.addr_of_label prog Td_driver.E1000_driver.entry_init;
    e_xmit = Program.addr_of_label prog Td_driver.E1000_driver.entry_xmit;
    e_intr = Program.addr_of_label prog Td_driver.E1000_driver.entry_intr;
    e_watchdog =
      Program.addr_of_label prog Td_driver.E1000_driver.entry_watchdog;
    e_get_stats =
      Program.addr_of_label prog Td_driver.E1000_driver.entry_get_stats;
    e_set_mtu =
      Program.addr_of_label prog Td_driver.E1000_driver.entry_set_mtu;
    e_set_rx_mode =
      Program.addr_of_label prog Td_driver.E1000_driver.entry_set_rx_mode;
  }

let needs_xen = function
  | Config.Native_linux -> false
  | Config.Xen_dom0 | Config.Xen_domU | Config.Xen_twin -> true

let needs_guest = function
  | Config.Native_linux | Config.Xen_dom0 -> false
  | Config.Xen_domU | Config.Xen_twin -> true

(* Builds the machine with boot guest 0; the public [create] adds the
   other boot guests through [create_guest]. *)
let create ?(nics = 5) ?(upcall_set = []) ?(pool_entries = 1024)
    ?(costs = Sys_costs.default) ?spill_everything ?rewrite_style
    ?cache_probes ?(map_pairs = true) ~tuning ~fault cfg =
  if tuning.Config.notify_batch < 1 then
    invalid_arg "World.create: notify_batch must be >= 1";
  let phys = Phys_mem.create ~frames:200_000 () in
  let dom0_space = Addr_space.create ~name:"dom0" phys in
  Addr_space.heap_init dom0_space ~base:Layout.dom0_heap_base
    ~limit:Layout.dom0_heap_limit;
  let xen_space = Addr_space.create ~name:"xen" phys in
  Addr_space.alloc_region xen_space
    ~vaddr:(Layout.hyp_stack_top - (Layout.hyp_stack_pages * Layout.page_size))
    ~pages:Layout.hyp_stack_pages;
  Addr_space.alloc_region xen_space ~vaddr:Layout.hyp_scratch_base ~pages:1;
  let guest0_space =
    if needs_guest cfg then Some (guest_space phys 0) else None
  in
  let registry = Code_registry.create () in
  let natives = Native.create () in
  let km = Kmem.create dom0_space in
  let sup = Support.create ~space:dom0_space ~kmem:km in
  let led = Ledger.create () in
  let cpu = State.create ~hyp_space:xen_space dom0_space in
  let dom0_stack_top =
    Addr_space.heap_alloc dom0_space (4 * Layout.page_size)
    + (4 * Layout.page_size)
  in
  (* domains & hypervisor *)
  let hyp, dom0, guest =
    if needs_xen cfg then begin
      let h = Hypervisor.create ~costs ~ledger:led ~xen_space ~cpu () in
      let d0 =
        Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
          ~space:dom0_space
      in
      Domain.init_vif d0 ~vaddr:(Kmem.alloc km 4);
      Hypervisor.add_domain h d0;
      ( Some h,
        Some d0,
        Option.map (fun space -> guest_domain h ~space 0) guest0_space )
    end
    else (None, None, None)
  in
  (* per-world engines: the quota engine built here and the fault engine
     passed in are handed below to every component that checks them, so
     two worlds (Mq contexts, shard workers) never share token buckets
     or fault streams. dom0 is exempt from quotas — throttling the
     driver domain's service work would deadlock the paths that drain on
     behalf of throttled guests. Simulated time for the token buckets is
     ledger cycles at the nominal 3 GHz. *)
  let quota =
    Option.map
      (Quota.make
         ~now:(fun () -> float_of_int (Ledger.grand_total led) /. 3e9)
         ~exempt:[ (match dom0 with Some d -> Domain.name d | None -> "dom0") ])
      tuning.Config.quota
  in
  (* NICs + netdevs *)
  let ports =
    Array.init nics (fun i ->
        let wire = Td_nic.Wire.fresh_counters () in
        let mac = host_mac i in
        let dev =
          Td_nic.E1000_dev.create ~fault ~dma:dom0_space ~mac
            ~tx_frame:(Td_nic.Wire.sink wire) ()
        in
        let mmio = Td_nic.E1000_dev.mmio_vaddr i in
        Td_nic.E1000_dev.attach dev ~space:dom0_space ~vaddr:mmio;
        let nd = Netdev.alloc km dom0_space ~mmio_base:mmio ~mac in
        {
          dev;
          nd;
          mac;
          cmac = client_mac i;
          tx_hdr = eth_header ~dst:(client_mac i) ~src:mac;
          wire;
          pending_irq = 0;
          quarantined = false;
          shadow = { s_mmio_base = mmio; s_mtu = 1500; s_promisc = false };
        })
  in
  Array.iter
    (fun p ->
      Td_nic.E1000_dev.set_irq_handler p.dev (fun () ->
          p.pending_irq <- p.pending_irq + 1))
    ports;
  (* support natives & driver images *)
  Support.register_dom0_natives sup natives;
  let dom0_support n = Support.dom0_symtab sup natives n in
  let twin, dom0_driver, hyp_driver, svm_hyp, svm_vm, skb_pool, reload_dom0,
      reload_hyp =
    match cfg with
    | Config.Native_linux | Config.Xen_dom0 | Config.Xen_domU ->
        let load f =
          entries_of
            (f ~name:"e1000"
               ~source:(Td_driver.E1000_driver.source ())
               ~base:Layout.vm_driver_code_base ~symbols:dom0_support ~registry)
        in
        ( None,
          load Td_rewriter.Loader.load,
          None,
          None,
          None,
          None,
          (fun () -> load Td_rewriter.Loader.reload),
          None )
    | Config.Xen_twin ->
        let twin =
          Td_rewriter.Twin.derive ?spill_everything ?style:rewrite_style
            ?cache_probes
            (Td_driver.E1000_driver.source ())
        in
        (* VM instance: identity stlb, dom0-resolved symbols *)
        let vm_stlb = Addr_space.heap_alloc dom0_space (4096 * 8) in
        let vm_scratch = Kmem.alloc km 64 in
        let vm_rt =
          Td_svm.Runtime.create_identity ~fault ~dom0:dom0_space
            ~stlb_vaddr:vm_stlb ()
        in
        Td_svm.Runtime.register_natives vm_rt natives;
        ignore
          (Native.register natives "__svm_call@vm" (fun st ->
               State.set st Reg.EAX (State.stack_arg st 0)));
        let vm_syms =
          Td_rewriter.Loader.overlay
            (Td_rewriter.Loader.svm_symbols ~runtime:vm_rt ~natives
               ~stlb_vaddr:vm_stlb ~scratch_vaddr:vm_scratch)
            (Td_rewriter.Loader.overlay
               (fun n ->
                 if n = Td_rewriter.Symbols.svm_call then
                   Native.address_of natives "__svm_call@vm"
                 else None)
               dom0_support)
        in
        let vm_prog =
          Td_rewriter.Loader.load ~name:"e1000.vm"
            ~source:twin.Td_rewriter.Twin.rewritten
            ~base:Layout.vm_driver_code_base ~symbols:vm_syms ~registry
        in
        (* hypervisor instance *)
        let h = Option.get hyp and d0 = Option.get dom0 in
        let hyp_rt =
          Td_svm.Runtime.create_hypervisor ~map_pairs
            ~window_pages:tuning.Config.map_window_pages ~fault
            ~dom0:dom0_space ~hyp:xen_space ()
        in
        Td_svm.Runtime.register_natives hyp_rt natives;
        let pool =
          Skb_pool.create km dom0_space ~entries:pool_entries
            ~buf_size:Skb.default_buf_bytes
        in
        (* packet buffers (struct, linear area, fragment frame) are
           persistently mapped into the hypervisor *)
        Skb_pool.iter pool (fun skb ->
            ignore (Td_svm.Runtime.persistent_map hyp_rt skb.Skb.addr);
            ignore (Td_svm.Runtime.persistent_map hyp_rt (Skb.head skb));
            ignore
              (Td_svm.Runtime.persistent_map hyp_rt
                 (Skb_pool.frag_buffer pool skb)));
        let ctx =
          {
            Support.hyp = h;
            dom0 = d0;
            svm = hyp_rt;
            pool;
            hyp_netif_rx = (fun _ -> ());
          }
        in
        let native_set =
          List.filter
            (fun n -> not (List.mem n upcall_set))
            Support.fast_path_names
        in
        Support.register_hyp_natives ?quota ~fault sup natives ~ctx ~native_set;
        let ct =
          Td_svm.Call_table.create ~vm_code_base:Layout.vm_driver_code_base
            ~vm_code_size:(Program.size_bytes vm_prog)
            ~resolver:(fun addr ->
              (* a function pointer to a dom0 kernel routine resolves to
                 its hypervisor-side binding (native or upcall stub) *)
              match Native.name_of natives addr with
              | Some name when Filename.check_suffix name "@dom0" ->
                  Native.address_of natives
                    (Filename.chop_suffix name "@dom0" ^ "@hyp")
              | Some _ | None -> None)
        in
        Td_svm.Call_table.register_native ct natives "__svm_call@hyp";
        let hyp_syms =
          Td_rewriter.Loader.overlay
            (Td_rewriter.Loader.svm_symbols ~runtime:hyp_rt ~natives
               ~stlb_vaddr:Layout.stlb_base
               ~scratch_vaddr:Layout.hyp_scratch_base)
            (Td_rewriter.Loader.overlay
               (fun n ->
                 if n = Td_rewriter.Symbols.svm_call then
                   Native.address_of natives "__svm_call@hyp"
                 else None)
               (fun n -> Support.hyp_symtab sup natives n))
        in
        let load_hyp f =
          entries_of
            (f ~name:"e1000.hyp" ~source:twin.Td_rewriter.Twin.rewritten
               ~base:Layout.hyp_driver_code_base ~symbols:hyp_syms ~registry)
        in
        ( Some twin,
          entries_of vm_prog,
          Some (load_hyp Td_rewriter.Loader.load),
          Some hyp_rt,
          Some (vm_rt, vm_stlb),
          Some pool,
          (fun () ->
            entries_of
              (Td_rewriter.Loader.reload ~name:"e1000.vm"
                 ~source:twin.Td_rewriter.Twin.rewritten
                 ~base:Layout.vm_driver_code_base ~symbols:vm_syms ~registry)),
          Some (fun () -> load_hyp Td_rewriter.Loader.reload) )
  in
  let w =
    {
      cfg;
      tuning;
      phys;
      dom0_space;
      xen_space;
      registry;
      natives;
      km;
      sup;
      led;
      cpu;
      hyp;
      dom0;
      guest;
      slots =
        (match (guest, guest0_space) with
        | Some dom, Some space -> [| Some (fresh_slot ~dom ~space ~nics 0) |]
        | _ -> [||]);
      quota;
      fault;
      dom0_stack_top;
      costs;
      nics = ports;
      dom0_driver;
      hyp_driver;
      reload_dom0;
      reload_hyp;
      in_recovery = false;
      recoveries = 0;
      replayed = 0;
      svm_hyp;
      svm_vm;
      twin;
      skb_pool;
      vswitch = Bridge.create km;
      gmac_index = Hashtbl.create 8;
      interp = Interp.create ~fault cpu registry natives;
      timers = Timer_wheel.create ();
      sched =
        (let sc = Scheduler.create () in
         Option.iter (Scheduler.add sc) guest;
         sc);
      rx_frames = 0;
      rx_bytes = 0;
      rx_last = "";
      rx_queue = Queue.create ();
      rx_drops = 0;
      tx_drops = 0;
      twin_tx_pushes = 0;
    }
  in
  iter_slots w (index_macs w);
  w

(* ---- driver invocation ---- *)

let interp w = w.interp

let observe_invocation w before =
  if Td_obs.Control.enabled () then
    Td_obs.Metrics.observe
      (Td_obs.Metrics.histogram "driver.invoke.cycles")
      (w.cpu.State.cycles - before)

let run_driver w ~entry ~args ~stack =
  State.set w.cpu Reg.ESP stack;
  let before = w.cpu.State.cycles in
  let abort reason =
    Ledger.charge w.led Ledger.Driver (w.cpu.State.cycles - before);
    observe_invocation w before;
    raise (Driver_aborted reason)
  in
  let result =
    try Interp.call (interp w) ~entry ~args with
    | Td_svm.Runtime.Fault { addr; reason } ->
        abort (Printf.sprintf "SVM fault at 0x%x: %s" addr reason)
    | Interp.Timeout _ -> abort "watchdog timeout"
    | Addr_space.Page_fault { space; addr } ->
        abort (Printf.sprintf "page fault in %s at 0x%x" space addr)
    | Upcall.Upcall_failed { routine } ->
        abort (Printf.sprintf "upcall %s failed in dom0" routine)
    | Guest_fault.Fault { op; reason } ->
        abort (Printf.sprintf "guest fault in %s: %s" op reason)
    | Quota.Quota_exceeded { domain; resource } ->
        abort (Printf.sprintf "quota exceeded: %s for domain %s" resource domain)
    (* under fault injection a corrupted driver can drive the model into
       states the pristine system never reaches (bogus register numbers,
       unresolved indirect calls); contain them as aborts — but only when
       the world has a plan, so genuine model bugs still crash loudly *)
    | ( Invalid_argument _ | Failure _ | Interp.Fault _
      | Phys_mem.Bad_frame _ | Phys_mem.Out_of_frames _
      | Addr_space.Heap_exhausted _ | Hypervisor.No_domains _ ) as e
      when planned w ->
        abort (Printf.sprintf "model fault: %s" (Printexc.to_string e))
  in
  Ledger.charge w.led Ledger.Driver (w.cpu.State.cycles - before);
  observe_invocation w before;
  result

let run_dom0_driver w ~entry ~args =
  match w.hyp with
  | None -> run_driver w ~entry ~args ~stack:w.dom0_stack_top
  | Some h ->
      Hypervisor.run_in h (Option.get w.dom0) (fun () ->
          run_driver w ~entry ~args ~stack:w.dom0_stack_top)

let run_hyp_driver w ~entry ~args =
  (* no domain switch: the hypervisor driver runs from any guest context *)
  run_driver w ~entry ~args ~stack:Layout.hyp_stack_top

(* ---- driver supervisor (§4.5) ---- *)

let recovery_enabled w = w.tuning.Config.recovery <> Config.Fail_stop
let is_quarantined w ~nic = w.nics.(nic).quarantined
let all_serviceable w = Array.for_all (fun p -> not p.quarantined) w.nics

(* function pointers in shared data always hold VM-instance code
   addresses; reinstalled after every (re)init of the dom0 instance *)
let install_link_fn w (p : nic_port) =
  let a = Td_driver.Adapter.of_netdev p.nd in
  Td_driver.Adapter.set_field a Td_driver.Adapter.o_link_fn
    (Program.addr_of_label w.dom0_driver.prog
       Td_driver.E1000_driver.entry_check_link)

(* Free the dead instance's kernel memory — adapter, descriptor rings,
   shadow sk_buff arrays and the ring sk_buffs they reference — so
   repeated recoveries cannot exhaust the dom0 heap. Best-effort: the
   walk trusts the adapter only while its ring sizes still hold their
   init-time constants (a corrupted instance may have scribbled
   anywhere); on any doubt it leaks a little instead of poisoning the
   allocator. Pool-owned sk_buffs are skipped — {!Skb_pool.reset}
   reclaims those wholesale. *)
let teardown_driver_memory w (q : nic_port) =
  let pooled addr =
    match w.skb_pool with
    | Some pool -> Skb_pool.owns pool (Skb.of_addr w.dom0_space addr)
    | None -> false
  in
  let free_skb addr =
    if addr <> 0 && not (pooled addr) then
      try
        let skb = Skb.of_addr w.dom0_space addr in
        if Skb.capacity skb > 0 && Skb.capacity skb <= Layout.page_size then begin
          Skb.set_refcnt skb 1;
          Skb.free w.km skb
        end
      with _ -> ()
  in
  try
    let priv = Netdev.priv q.nd in
    if priv <> 0 then begin
      let a = Td_driver.Adapter.of_netdev q.nd in
      let fld = Td_driver.Adapter.field a in
      let tx_size = fld Td_driver.Adapter.o_tx_size
      and rx_size = fld Td_driver.Adapter.o_rx_size in
      if
        tx_size = Td_driver.E1000_driver.tx_ring_entries
        && rx_size = Td_driver.E1000_driver.rx_ring_entries
      then begin
        let rd addr = Addr_space.read w.dom0_space addr Width.W32 in
        let rx_arr = fld Td_driver.Adapter.o_rx_skb
        and tx_arr = fld Td_driver.Adapter.o_tx_skb in
        if rx_arr <> 0 then begin
          for i = 0 to rx_size - 1 do
            free_skb (rd (rx_arr + (4 * i)))
          done;
          Kmem.free w.km rx_arr (4 * rx_size)
        end;
        if tx_arr <> 0 then begin
          for i = 0 to tx_size - 1 do
            (* 0 = empty slot, 1 = fragment marker, else an sk_buff *)
            let v = rd (tx_arr + (4 * i)) in
            if v > 1 then free_skb v
          done;
          Kmem.free w.km tx_arr (4 * tx_size)
        end;
        let tx_ring = fld Td_driver.Adapter.o_tx_ring
        and rx_ring = fld Td_driver.Adapter.o_rx_ring in
        if tx_ring <> 0 then
          Kmem.free w.km tx_ring (tx_size * Td_nic.Regs.desc_bytes);
        if rx_ring <> 0 then
          Kmem.free w.km rx_ring (rx_size * Td_nic.Regs.desc_bytes)
      end;
      Kmem.free w.km priv Td_driver.Adapter.struct_bytes;
      Netdev.set_priv q.nd 0
    end
  with _ -> ()

(* Tear the twin down and rebuild it from shadow state. The blast radius
   of a corrupted instance is the shared driver state (both instances run
   the same data structures, §3.1), so every port is quarantined for the
   duration and re-initialised before service resumes. Injection is
   masked throughout: recovery must make forward progress even under an
   aggressive plan. *)
let recover w ~nic ~reason =
  w.in_recovery <- true;
  Array.iter (fun q -> q.quarantined <- true) w.nics;
  Fun.protect
    ~finally:(fun () -> w.in_recovery <- false)
    (fun () ->
      Td_fault.Engine.suspend w.fault (fun () ->
          (* 1. invalidate all translations and unmap the window pairs *)
          Option.iter Td_svm.Runtime.flush w.svm_hyp;
          (match w.svm_vm with
          | Some (rt, _) -> Td_svm.Runtime.flush rt
          | None -> ());
          (* 2. reclaim every sk_buff pool slot, in flight or not *)
          Option.iter Skb_pool.reset w.skb_pool;
          (* 3. re-run the MISA loader over the dead instance(s) *)
          w.dom0_driver <- w.reload_dom0 ();
          (match w.reload_hyp with
          | Some f -> w.hyp_driver <- Some (f ())
          | None -> ());
          (* 4. re-pin the packet-buffer pool into the hypervisor *)
          (match (w.svm_hyp, w.skb_pool) with
          | Some rt, Some pool ->
              Skb_pool.iter pool (fun skb ->
                  ignore (Td_svm.Runtime.persistent_map rt skb.Skb.addr);
                  ignore (Td_svm.Runtime.persistent_map rt (Skb.head skb));
                  ignore
                    (Td_svm.Runtime.persistent_map rt
                       (Skb_pool.frag_buffer pool skb)))
          | _ -> ());
          (* 5. per NIC: device reset, driver re-init, shadow restore *)
          Array.iter
            (fun q ->
              teardown_driver_memory w q;
              Td_fault.Engine.note_lost w.fault (Td_nic.E1000_dev.reset q.dev);
              q.pending_irq <- 0;
              Netdev.repair q.nd ~mmio_base:q.shadow.s_mmio_base ~mac:q.mac
                ~mtu:q.shadow.s_mtu;
              ignore
                (run_dom0_driver w ~entry:w.dom0_driver.e_init
                   ~args:[ q.nd.Netdev.addr ]);
              install_link_fn w q;
              (* restore captured configuration through the driver's own
                 entry points, exactly as the guest originally applied it *)
              if q.shadow.s_mtu <> 1500 then
                ignore
                  (run_dom0_driver w ~entry:w.dom0_driver.e_set_mtu
                     ~args:[ q.nd.Netdev.addr; q.shadow.s_mtu ]);
              if q.shadow.s_promisc then
                ignore
                  (run_dom0_driver w ~entry:w.dom0_driver.e_set_rx_mode
                     ~args:[ q.nd.Netdev.addr; 1 ]);
              q.quarantined <- false)
            w.nics));
  w.recoveries <- w.recoveries + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "fault.recoveries";
    Td_obs.Trace.emit (Td_obs.Trace.Driver_recovery { nic; reason })
  end

(* Wrap one driver invocation on behalf of [nic]. [None] means the
   invocation aborted and the system recovered; under [Fail_stop] the
   abort propagates unchanged (with the port left quarantined). *)
let supervised w ~nic f =
  try Some (f ())
  with Driver_aborted reason when not w.in_recovery ->
    w.nics.(nic).quarantined <- true;
    if recovery_enabled w then begin
      recover w ~nic ~reason;
      None
    end
    else raise (Driver_aborted reason)

(* watchdog hang detection: a latched TX DMA engine never completes a
   send, so the watchdog declares the instance hung and restarts it *)
let check_hang w ~nic =
  if Td_nic.E1000_dev.dma_stuck w.nics.(nic).dev && not w.in_recovery then begin
    let reason = "watchdog declared hang: TX DMA stuck" in
    w.nics.(nic).quarantined <- true;
    if recovery_enabled w then recover w ~nic ~reason
    else raise (Driver_aborted reason)
  end

(* TX abort policy: [Restart] drops the in-flight frame (counted lost);
   [Restart_replay] retries it once on the fresh instance, with injection
   masked so the replay itself cannot be re-aborted by the plan *)
let replay_tx w attempt =
  match w.tuning.Config.recovery with
  | Config.Fail_stop -> false (* unreachable: supervised re-raised *)
  | Config.Restart ->
      Td_fault.Engine.note_lost w.fault 1;
      false
  | Config.Restart_replay -> (
      w.replayed <- w.replayed + 1;
      if Td_obs.Control.enabled () then Td_obs.Metrics.bump "fault.replayed";
      match
        Td_fault.Engine.suspend w.fault (fun () ->
            try Some (attempt ()) with Driver_aborted _ -> None)
      with
      | Some ok -> ok
      | None ->
          Td_fault.Engine.note_lost w.fault 1;
          false)

let run_tx w ~nic attempt =
  match supervised w ~nic attempt with
  | Some ok -> ok
  | None -> replay_tx w attempt

(* ---- late initialisation (driver init + hooks) ---- *)

let charge_dom0_cat w n = Ledger.charge w.led Ledger.Dom0 n
let charge_domU_cat w n = Ledger.charge w.led Ledger.DomU n
let charge_xen_cat w n = Ledger.charge w.led Ledger.Xen n

let count_rx ~guest w payload =
  w.rx_frames <- w.rx_frames + 1;
  w.rx_bytes <- w.rx_bytes + String.length payload;
  (match slot_opt w guest with
  | Some s -> s.gs_rx_count <- s.gs_rx_count + 1
  | None -> ());
  w.rx_last <- payload;
  if Queue.length w.rx_queue >= rx_queue_capacity then begin
    w.rx_drops <- w.rx_drops + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "world.rx_drops"
  end
  else Queue.push payload w.rx_queue

let free_any_skb w skb =
  match w.skb_pool with
  | Some pool when Skb_pool.owns pool skb -> Skb_pool.release pool skb
  | Some _ | None -> Skb.free w.km skb

(* ---- netfront channel attach (Xen_domU) ---- *)

(* Create one netfront/netback channel pair for guest slot [g] on NIC
   [nic] and register its backend port on the bridge — the per-(guest,
   NIC) plumbing [init] runs for the boot guest and [create_guest] for
   runtime ones. Returns the bridge port so the caller can enter the
   guest's vif MACs into the fdb. *)
let attach_channel w ~guest:g ~nic =
  let h = Option.get w.hyp and d0 = Option.get w.dom0 in
  let s = slot_exn w g ~op:"World.attach_channel" in
  let p = w.nics.(nic) in
  let doorbell =
    if w.tuning.Config.doorbell then
      Some
        {
          Xen_netio.poll_entry_kicks = w.tuning.Config.poll_entry_kicks;
          idle_hysteresis = 3;
          poll_budget = 16;
        }
    else None
  in
  let netio =
    Xen_netio.create ~batch:w.tuning.Config.notify_batch ?doorbell
      ?quota:w.quota ~hyp:h ~dom0:d0 ~guest:s.gs_dom ~kmem:w.km
      ~driver_tx:(fun skb ->
        (* netback's call into the driver: the sk_buff is kmem memory
           and survives a restart, so replay can re-run the transmit on
           the fresh instance *)
        let attempt () =
          ignore
            (run_driver w ~entry:w.dom0_driver.e_xmit
               ~args:[ skb.Skb.addr; p.nd.Netdev.addr ]
               ~stack:w.dom0_stack_top);
          true
        in
        ignore (run_tx w ~nic attempt))
      ()
  in
  (* the guest stack reads the payload out of its own page once, as the
     string the consumer pops *)
  Xen_netio.set_guest_rx netio (fun addr len ->
      charge_domU_cat w w.costs.Sys_costs.kernel_rx_path;
      let payload =
        Addr_space.read_block s.gs_space (addr + eth_header_bytes)
          (len - eth_header_bytes)
      in
      count_rx ~guest:g w (Bytes.unsafe_to_string payload));
  Xen_netio.post_rx_buffers netio 64;
  s.gs_netios <- Array.append s.gs_netios [| (nic, netio) |];
  (* backend port: netback takes the sk_buff dom0's netif_rx holds *)
  let port =
    {
      Bridge.port_name = Printf.sprintf "vif%d.%d" g nic;
      tx =
        (fun skb ->
          (* netback forwards whole frames: push the MAC header back
             (eth_type_trans pulled it) *)
          Skb.set_data skb (Skb.data skb - eth_header_bytes);
          Skb.set_len skb (Skb.len skb + eth_header_bytes);
          Xen_netio.deliver_to_guest netio skb);
    }
  in
  Bridge.add_port w.vswitch port;
  port

let init (w : t) =
  (* reclaims evict a mapped pair synchronously inside the hypervisor:
     charge the shootdown against Xen's ledger category *)
  Option.iter
    (fun rt ->
      Td_svm.Runtime.set_reclaim_hook rt (fun () ->
          charge_xen_cat w w.costs.Sys_costs.window_reclaim))
    w.svm_hyp;
  (* with a quota engine, mapped-page window pairs are charged to the
     domain on whose behalf the hypervisor driver is running; the guard
     lives here because td_svm cannot depend on td_xen *)
  (match (w.svm_hyp, w.hyp, w.quota) with
  | Some rt, Some h, Some q ->
      Td_svm.Runtime.set_window_guard rt
        {
          Td_svm.Runtime.acquire =
            (fun ~pages ->
              let domain = Domain.name (Hypervisor.current h) in
              Quota.acquire q ~domain Quota.Map_window_pages pages;
              domain);
          release =
            (fun ~owner ~pages ->
              Quota.release q ~domain:owner Quota.Map_window_pages pages);
        }
  | _ -> ());
  (* exact stlb.hit accounting: the inline probe's hit path is the xor
     against an stlb entry's second word (offset +4), so each stlb's
     hit word is a probe site crediting the runtime that owns it *)
  (match (w.svm_hyp, w.svm_vm) with
  | Some hyp_rt, Some (vm_rt, vm_stlb) ->
      Interp.set_probes w.interp
        [
          (Layout.stlb_base + 4, Td_svm.Runtime.note_inline_hit hyp_rt);
          (vm_stlb + 4, Td_svm.Runtime.note_inline_hit vm_rt);
        ]
  | _ -> ());
  (* run e1000_init for every NIC using the dom0-side instance (the VM
     driver "performs the initialization of the NIC and the driver data
     structures", §3.1) *)
  Array.iter
    (fun p ->
      ignore
        (run_dom0_driver w ~entry:w.dom0_driver.e_init ~args:[ p.nd.Netdev.addr ]);
      (* the kernel installs the link-check ops pointer after
         register_netdev *)
      install_link_fn w p)
    w.nics;
  (* the driver's mod_timer keeps the watchdog running in dom0 — always on
     the VM instance, never in the hypervisor (§3.1); the supervisor rides
     the same timer for hang detection *)
  Array.iteri
    (fun i p ->
      Timer_wheel.add w.timers ~period:10
        ~name:(Printf.sprintf "e1000-watchdog-%d" i)
        (fun () ->
          if not p.quarantined then begin
            check_hang w ~nic:i;
            if not p.quarantined then
              ignore
                (supervised w ~nic:i (fun () ->
                     run_dom0_driver w ~entry:w.dom0_driver.e_watchdog
                       ~args:[ p.nd.Netdev.addr ]))
          end))
    w.nics;
  (* configuration-specific receive plumbing; [Skb.contents] and
     [read_block] return fresh buffers nothing else holds, so the
     receive paths turn them into strings without a copy *)
  (match w.cfg with
  | Config.Native_linux ->
      Support.set_netif_rx w.sup (fun skb ->
          charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path;
          count_rx ~guest:0 w (Bytes.unsafe_to_string (Skb.contents skb));
          free_any_skb w skb)
  | Config.Xen_dom0 ->
      Support.set_netif_rx w.sup (fun skb ->
          charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path;
          charge_xen_cat w w.costs.Sys_costs.virt_overhead_rx;
          count_rx ~guest:0 w (Bytes.unsafe_to_string (Skb.contents skb));
          free_any_skb w skb)
  | Config.Xen_domU ->
      let h = Option.get w.hyp and g = Option.get w.guest in
      (* a domU world without a NIC has no I/O channel to attach the
         frontend to: a configuration error attributed to the guest, not
         a crash on the first transmit *)
      if Array.length w.nics = 0 then
        raise
          (Config_error
             {
               domain = Domain.name g;
               reason = "domU configuration without netio (world has no NICs)";
             });
      (* boot guest 0 attaches one channel per NIC; its vif MACs on
         every NIC enter the fdb pointing at its channel on NIC 0, so all
         of its receive traffic crosses that one channel *)
      let ports =
        Array.mapi (fun i _ -> attach_channel w ~guest:0 ~nic:i) w.nics
      in
      Array.iter
        (fun mac -> Bridge.learn w.vswitch ~mac:(Bridge.mac_key mac) ports.(0))
        (slot_exn w 0 ~op:"World.init").gs_macs;
      (* dom0's netif_rx: forward through the bridge to the backend port
         behind the destination MAC; unknown MACs terminate in dom0's
         local stack (no flooding into guests) *)
      Support.set_netif_rx w.sup (fun skb ->
          charge_dom0_cat w w.costs.Sys_costs.dom0_rx_kernel;
          let hdr = Skb.data skb - eth_header_bytes in
          let dst = Bridge.read_mac w.dom0_space hdr in
          if Bridge.mem w.vswitch ~mac:dst then
            Bridge.forward w.vswitch ~dst
              ~src:(Bridge.read_mac w.dom0_space (hdr + 6))
              skb
          else begin
            charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path;
            free_any_skb w skb
          end);
      (* the workload runs in the guest *)
      Hypervisor.switch_to h g
  | Config.Xen_twin ->
      let h = Option.get w.hyp and g = Option.get w.guest in
      (* hypervisor-side netif_rx: demultiplex on destination MAC and queue
         the packet for its guest; the copy and virtual interrupt happen
         when the guest is next scheduled (§5.3) *)
      (match w.skb_pool with
      | Some _ ->
          let ctx_rx skb =
            charge_xen_cat w
              (w.costs.Sys_costs.twin_demux + w.costs.Sys_costs.twin_rx_queue);
            let dst =
              Bridge.read_mac w.dom0_space (Skb.data skb - eth_header_bytes)
            in
            (match Hashtbl.find w.gmac_index dst with
            | gi -> (
                match slot_opt w gi with
                | Some s ->
                    Queue.push
                      (Bytes.unsafe_to_string (Skb.contents skb))
                      s.gs_rx_pending
                | None ->
                    (* destroyed since the MAC was learned: dom0-local *)
                    charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path)
            | exception Not_found ->
                (* not for a guest: hand to dom0 like a local packet *)
                charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path);
            free_any_skb w skb
          in
          (* reach into the support registry's hypervisor context *)
          Support.set_hyp_netif_rx w.sup ctx_rx
      | None -> ());
      Hypervisor.switch_to h g);
  w

(* ---- traffic ---- *)

let transmit w ~nic ~payload =
  let p = w.nics.(nic) in
  if p.quarantined then raise (Nic_quarantined { nic });
  let n = String.length payload in
  let frame_len = eth_header_bytes + n in
  match w.cfg with
  | Config.Native_linux | Config.Xen_dom0 ->
      charge_dom0_cat w w.costs.Sys_costs.kernel_tx_path;
      if w.cfg = Config.Xen_dom0 then
        charge_xen_cat w w.costs.Sys_costs.virt_overhead_tx;
      let attempt () =
        let skb = Skb.alloc w.km w.dom0_space ~size:(frame_len + 64) in
        Skb.put_string skb p.tx_hdr ~off:0 ~len:eth_header_bytes;
        Skb.put_string skb payload ~off:0 ~len:n;
        let r =
          run_dom0_driver w ~entry:w.dom0_driver.e_xmit
            ~args:[ skb.Skb.addr; p.nd.Netdev.addr ]
        in
        if r <> 0 then w.tx_drops <- w.tx_drops + 1;
        r = 0
      in
      run_tx w ~nic attempt
  | Config.Xen_domU -> (
      charge_domU_cat w w.costs.Sys_costs.kernel_tx_path;
      charge_dom0_cat w w.costs.Sys_costs.dom0_tx_kernel;
      match netio_on w ~nic with
      | None ->
          let domain =
            match w.guest with
            | Some g -> Domain.name g
            | None -> Config.name w.cfg
          in
          raise
            (Config_error
               {
                 domain;
                 reason =
                   "domU configuration without netio (world not initialised, \
                    created without NICs, or guest 0 destroyed)";
               })
      (* the driver runs from netback's flush, already supervised there *)
      | Some io -> (
          match Xen_netio.guest_transmit io ~hdr:p.tx_hdr payload with
          | () -> true
          | exception Quota.Quota_exceeded _ ->
              (* throttled tenant: the frame dies at the frontend edge
                 having cost only the guest its own kernel+netfront
                 cycles *)
              w.tx_drops <- w.tx_drops + 1;
              if Td_obs.Control.enabled () then
                Td_obs.Metrics.bump "world.tx_throttled";
              false))
  | Config.Xen_twin ->
      charge_domU_cat w w.costs.Sys_costs.kernel_tx_path;
      let h = Option.get w.hyp in
      (* doorbell suppression: with batching only every [notify_batch]th
         ring push traps into the hypervisor; the others just set the
         producer index (the packet is still handled synchronously, so the
         wire stream is bit-identical to the unbatched system) *)
      w.twin_tx_pushes <- w.twin_tx_pushes + 1;
      if
        w.tuning.Config.notify_batch <= 1
        || (w.twin_tx_pushes - 1) mod w.tuning.Config.notify_batch = 0
      then Hypervisor.hypercall h ()
      else charge_xen_cat w w.costs.Sys_costs.notify_coalesce;
      let attempt () =
        charge_xen_cat w w.costs.Sys_costs.twin_skb_acquire;
        match Skb_pool.alloc (Option.get w.skb_pool) with
        | None ->
            w.tx_drops <- w.tx_drops + 1;
            false
        | Some skb ->
            (* header copy (up to 96 bytes) into the sk_buff's linear area;
               the rest of the guest packet is chained through the page
               fragment pointer using a preallocated dom0 frame (§5.3) *)
            let pool = Option.get w.skb_pool in
            let linear = min 96 frame_len in
            charge_xen_cat w
              (int_of_float
                 (float_of_int linear *. w.costs.Sys_costs.copy_per_byte));
            Skb.put_string skb p.tx_hdr ~off:0 ~len:eth_header_bytes;
            let head = linear - eth_header_bytes in
            Skb.put_string skb payload ~off:0 ~len:head;
            if frame_len > linear then begin
              charge_xen_cat w w.costs.Sys_costs.twin_frag_chain;
              let rest = frame_len - linear in
              let frag = Skb_pool.frag_buffer pool skb in
              (* chaining is a remap in the paper, not a copy: the bytes are
                 placed functionally but only the constant chain cost is
                 charged *)
              Addr_space.write_string w.dom0_space frag payload ~off:head
                ~len:rest;
              Skb.set_frag skb ~page:frag ~len:rest
            end;
            (* refetch the image: a recovery may have reloaded it *)
            let img = Option.get w.hyp_driver in
            let r =
              run_hyp_driver w ~entry:img.e_xmit
                ~args:[ skb.Skb.addr; p.nd.Netdev.addr ]
            in
            if r <> 0 then w.tx_drops <- w.tx_drops + 1;
            r = 0
      in
      run_tx w ~nic attempt

let inject_rx ?(guest = 0) w ~nic ~payload =
  let p = w.nics.(nic) in
  let dst =
    match w.cfg with
    | Config.Native_linux | Config.Xen_dom0 -> p.mac
    | Config.Xen_domU | Config.Xen_twin -> (
        match slot_opt w guest with
        | Some s -> s.gs_macs.(nic)
        | None -> vif_mac guest nic)
  in
  let frame = build_frame ~dst ~src:p.cmac ~payload in
  Td_nic.E1000_dev.receive_frame p.dev frame

let service_interrupt w ~nic =
  let p = w.nics.(nic) in
  if p.quarantined then ()
  else
    match w.cfg with
    | Config.Native_linux ->
        charge_dom0_cat w w.costs.Sys_costs.interrupt_dispatch;
        ignore
          (supervised w ~nic (fun () ->
               run_dom0_driver w ~entry:w.dom0_driver.e_intr
                 ~args:[ p.nd.Netdev.addr ]))
    | Config.Xen_dom0 | Config.Xen_domU ->
        charge_xen_cat w
          (w.costs.Sys_costs.interrupt_dispatch + w.costs.Sys_costs.event_channel);
        ignore
          (supervised w ~nic (fun () ->
               run_dom0_driver w ~entry:w.dom0_driver.e_intr
                 ~args:[ p.nd.Netdev.addr ]))
    | Config.Xen_twin ->
        charge_xen_cat w
          (w.costs.Sys_costs.interrupt_dispatch
          + w.costs.Sys_costs.softirq_schedule);
        let invoke () =
          (* refetch the image: a recovery may have reloaded it *)
          let img = Option.get w.hyp_driver in
          ignore
            (supervised w ~nic (fun () ->
                 run_hyp_driver w ~entry:img.e_intr ~args:[ p.nd.Netdev.addr ]))
        in
        let d0 = Option.get w.dom0 in
        (* §4.4: the hypervisor respects dom0's virtual interrupt flag *)
        if Domain.interrupts_masked d0 then Domain.defer d0 invoke
        else invoke ()

(* slot behind a scheduled domain: slot [g] always holds domain id
   [g + 1], so the lookup is O(1) with an identity cross-check *)
let slot_of_domain w d =
  let gi = Domain.id d - 1 in
  match slot_opt w gi with
  | Some s when Domain.id s.gs_dom = Domain.id d -> Some (gi, s)
  | Some _ | None -> None

(* Drain one guest's pending twin-path queue: one virtual interrupt
   announces up to [batch] queued packets; the copies still happen per
   packet, in queue order. Also the final delivery pass of
   [destroy_guest] — queued frames belong to the guest while it lives. *)
let deliver_guest_queue w h dom gi (q : string Queue.t) =
  let batch = max 1 w.tuning.Config.notify_batch in
  while not (Queue.is_empty q) do
    let n = min batch (Queue.length q) in
    let group = ref [] in
    for _ = 1 to n do
      let payload = Queue.pop q in
      charge_xen_cat w
        (int_of_float
           (float_of_int (String.length payload)
           *. w.costs.Sys_costs.copy_per_byte));
      group := payload :: !group
    done;
    if n > 1 then
      charge_xen_cat w ((n - 1) * w.costs.Sys_costs.notify_coalesce);
    let group = List.rev !group in
    Hypervisor.send_virq h dom (fun () ->
        List.iter
          (fun payload ->
            charge_domU_cat w w.costs.Sys_costs.kernel_rx_path;
            count_rx ~guest:gi w payload)
          group)
  done

(* twin receive completion: each queued packet is copied into its guest's
   buffers and announced with a virtual interrupt once that guest runs *)
let deliver_pending w =
  match w.hyp with
  | None -> ()
  | Some h ->
      let has_work d =
        match slot_of_domain w d with
        | Some (_, s) -> not (Queue.is_empty s.gs_rx_pending)
        | None -> false
      in
      (* the credit scheduler decides which guest runs (and so receives
         its queued packets) next *)
      let continue = ref true in
      while !continue do
        match Scheduler.pick w.sched ~runnable:has_work with
        | None -> continue := false
        | Some dom ->
            let gi, s = Option.get (slot_of_domain w dom) in
            deliver_guest_queue w h dom gi s.gs_rx_pending
      done

let pump w =
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i p ->
        (* lost-interrupt rescue: an injected lost IRQ leaves its cause
           latched in ICR with no handler call; the pump's poll sweep
           re-kicks it. Gated on the world's plan so unplanned runs keep
           their exact interrupt timing. *)
        if
          planned w
          && Td_fault.Engine.active w.fault
          && p.pending_irq = 0
          && (not p.quarantined)
          && Td_nic.E1000_dev.irq_pending p.dev
        then p.pending_irq <- 1;
        if p.pending_irq > 0 then begin
          p.pending_irq <- 0;
          progress := true;
          service_interrupt w ~nic:i
        end)
      w.nics;
    (* ring pressure / end-of-poll service: push out partial notification
       batches (or, in polling mode, visit the doorbell and drain up to
       the poll budget) so frames can never sit staged forever *)
    iter_netios w (fun io ->
        if Xen_netio.staged io > 0 then begin
          progress := true;
          Xen_netio.service io
        end);
    deliver_pending w
  done

(* ---- observation ---- *)

let wire_tx_frames w =
  Array.fold_left (fun acc p -> acc + p.wire.Td_nic.Wire.frames) 0 w.nics

let wire_tx_bytes w =
  Array.fold_left (fun acc p -> acc + p.wire.Td_nic.Wire.bytes) 0 w.nics

let delivered_rx_frames w = w.rx_frames

let delivered_rx_frames_to w ~guest =
  match slot_opt w guest with Some s -> s.gs_rx_count | None -> 0

let guest_count w =
  Array.fold_left
    (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
    0 w.slots

let guest_slots w = Array.length w.slots
let guest_alive w ~guest = Option.is_some (slot_opt w guest)
let delivered_rx_bytes w = w.rx_bytes
let rx_last_payload w = if w.rx_frames = 0 then None else Some w.rx_last
let rx_pop w = Queue.take_opt w.rx_queue
let rx_drops w = w.rx_drops
let recoveries w = w.recoveries
let replayed_frames w = w.replayed
let shadow_mtu w ~nic = w.nics.(nic).shadow.s_mtu
let shadow_promisc w ~nic = w.nics.(nic).shadow.s_promisc

let reset_measurement w =
  (* zero the whole registry and trace first, then the ledger (whose reset
     re-zeroes its registry mirrors — keeping both views aligned so the
     Measure cross-check can compare them at the end of the run) *)
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.reset_all ();
    Td_obs.Trace.clear ()
  end;
  Ledger.reset w.led;
  Support.reset_counts w.sup;
  Array.iter
    (fun p ->
      p.wire.Td_nic.Wire.frames <- 0;
      p.wire.Td_nic.Wire.bytes <- 0)
    w.nics;
  w.rx_frames <- 0;
  w.rx_bytes <- 0;
  iter_slots w (fun _ s -> s.gs_rx_count <- 0);
  w.rx_last <- "";
  Queue.clear w.rx_queue;
  w.rx_drops <- 0;
  w.tx_drops <- 0;
  w.twin_tx_pushes <- 0;
  w.recoveries <- 0;
  w.replayed <- 0;
  Td_fault.Engine.reset_counters w.fault

(* ---- housekeeping ---- *)

(* retry once with injection masked after a recovery: the caller asked
   for a real result (stats, a config change), and the fresh instance
   should provide it; a second abort quarantines for good *)
let supervised_retry w ~nic attempt =
  match supervised w ~nic attempt with
  | Some out -> out
  | None -> (
      match
        Td_fault.Engine.suspend w.fault (fun () ->
            try Some (attempt ()) with Driver_aborted _ -> None)
      with
      | Some out -> out
      | None ->
          w.nics.(nic).quarantined <- true;
          raise (Nic_quarantined { nic }))

let run_watchdog w ~nic =
  if w.nics.(nic).quarantined then raise (Nic_quarantined { nic });
  check_hang w ~nic;
  if not w.nics.(nic).quarantined then
    ignore
      (supervised w ~nic (fun () ->
           run_dom0_driver w ~entry:w.dom0_driver.e_watchdog
             ~args:[ w.nics.(nic).nd.Netdev.addr ]))

let read_stats w ~nic =
  if w.nics.(nic).quarantined then raise (Nic_quarantined { nic });
  supervised_retry w ~nic (fun () ->
      let dest = Kmem.alloc w.km 32 in
      ignore
        (run_dom0_driver w ~entry:w.dom0_driver.e_get_stats
           ~args:[ w.nics.(nic).nd.Netdev.addr; dest ]);
      let out =
        Array.init 8 (fun i ->
            Addr_space.read w.dom0_space (dest + (4 * i)) Width.W32)
      in
      Kmem.free w.km dest 32;
      out)

let run_set_rx_mode w ~nic ~promisc =
  let p = w.nics.(nic) in
  if p.quarantined then raise (Nic_quarantined { nic });
  supervised_retry w ~nic (fun () ->
      ignore
        (run_dom0_driver w ~entry:w.dom0_driver.e_set_rx_mode
           ~args:[ p.nd.Netdev.addr; (if promisc then 1 else 0) ]));
  (* shadow capture on the live path: recovery re-applies this *)
  p.shadow.s_promisc <- promisc

let run_set_mtu w ~nic ~mtu =
  let p = w.nics.(nic) in
  if p.quarantined then raise (Nic_quarantined { nic });
  supervised_retry w ~nic (fun () ->
      ignore
        (run_dom0_driver w ~entry:w.dom0_driver.e_set_mtu
           ~args:[ p.nd.Netdev.addr; mtu ]));
  p.shadow.s_mtu <- mtu

let tick w =
  (* the timer service bounds how long a partial batch can stay staged;
     it is also the adaptive doorbell's window boundary (poll entry /
     idle-hysteresis fallback) *)
  iter_netios w Xen_netio.on_tick;
  Timer_wheel.tick w.timers

let shutdown w =
  (* guest quiesce: drain every channel completely — partially staged
     batches must not be dropped on teardown *)
  iter_netios w Xen_netio.teardown;
  deliver_pending w

let staged_frames w =
  fold_netios w (fun acc io -> acc + Xen_netio.staged io) 0

let netio_conserved w =
  fold_netios w (fun acc io -> acc && Xen_netio.conserved io) true

let netio_suppressed_hypercalls w =
  fold_netios w (fun acc io -> acc + Xen_netio.suppressed_hypercalls io) 0

let netio_suppressed_virqs w =
  fold_netios w (fun acc io -> acc + Xen_netio.suppressed_virqs io) 0

let netio_mode_switches w =
  fold_netios w (fun acc io -> acc + Xen_netio.mode_switches io) 0

let netio_tx_mode w ~nic =
  match netio_on w ~nic with
  | Some io -> Xen_netio.tx_mode io
  | None -> Xen_netio.Interrupt

let mask_dom0_interrupts w =
  Option.iter Domain.mask_interrupts w.dom0

let unmask_dom0_interrupts w =
  Option.iter Domain.unmask_interrupts w.dom0;
  deliver_pending w

(* ---- the domain registry: runtime create / destroy / traffic ---- *)

let create_guest ?nic w =
  if not (needs_guest w.cfg) then
    raise
      (Config_error
         {
           domain = Config.name w.cfg;
           reason =
             "create_guest requires a guest-carrying configuration \
              (Xen_domU or Xen_twin)";
         });
  let h = Option.get w.hyp in
  let g = Array.length w.slots in
  if g > 255 then
    raise
      (Config_error
         {
           domain = guest_name g;
           reason = "domain registry full (256 slots, never reused)";
         });
  (match nic with
  | Some n when n < 0 || n >= Array.length w.nics ->
      raise
        (Config_error
           {
             domain = guest_name g;
             reason = Printf.sprintf "create_guest: no such NIC %d" n;
           })
  | Some _ | None -> ());
  let space = guest_space w.phys g in
  let dom = guest_domain h ~space g in
  Scheduler.add w.sched dom;
  let s = fresh_slot ~dom ~space ~nics:(Array.length w.nics) g in
  w.slots <- Array.append w.slots [| Some s |];
  index_macs w g s;
  (match w.cfg with
  | Config.Xen_domU when Array.length w.nics > 0 ->
      (* one netfront channel, striped over the NICs unless pinned; the
         fdb routes all the guest's vif MACs to its backend port *)
      let nic =
        match nic with Some n -> n | None -> g mod Array.length w.nics
      in
      let port = attach_channel w ~guest:g ~nic in
      Array.iter
        (fun mac -> Bridge.learn w.vswitch ~mac:(Bridge.mac_key mac) port)
        s.gs_macs
  | _ -> ());
  g

let create ?nics ?(guests = 1) ?upcall_set ?pool_entries ?costs
    ?spill_everything ?rewrite_style ?cache_probes ?map_pairs
    ?(tuning = Config.default_tuning) cfg =
  if guests < 1 then invalid_arg "World.create: guests must be >= 1";
  if guests > 256 then invalid_arg "World.create: at most 256 guests";
  (* the device has one ring pair: multi-queue runs are Mq's, one
     single-queue world per queue *)
  if tuning.Config.queues <> 1 then
    invalid_arg
      (Printf.sprintf
         "World.create: tuning.queues must be 1 (got %d); use Mq.create for \
          multi-queue runs"
         tuning.Config.queues);
  let fault =
    Td_fault.Engine.make
      (Option.value tuning.Config.fault_plan ~default:Td_fault.zero_plan)
  in
  (* boot is deterministic: construction and init charge the world's
     quota engine (grant-table and map-window acquires during channel
     setup) but run with its fault engine suspended, so they draw
     nothing *)
  Td_fault.Engine.suspend fault (fun () ->
      let w =
        init
          (create ?nics ?upcall_set ?pool_entries ?costs ?spill_everything
             ?rewrite_style ?cache_probes ?map_pairs ~tuning ~fault cfg)
      in
      (* boot guests 1 .. guests-1 are runtime guests created at boot *)
      if needs_guest cfg then
        for _ = 2 to guests do
          ignore (create_guest w)
        done;
      w)

let destroy_guest w ~guest:g =
  let s = slot_exn w g ~op:"World.destroy_guest" in
  (* frames queued on the twin path still belong to the guest: deliver
     them while the slot is alive, before the channels come down *)
  (match w.hyp with
  | Some h -> deliver_guest_queue w h s.gs_dom g s.gs_rx_pending
  | None -> ());
  (* close drains staged batches (conservation) then unmaps the doorbell
     and revokes every grant — nothing of the guest's stays in dom0 *)
  Array.iter (fun (_, io) -> Xen_netio.close io) s.gs_netios;
  Array.iter
    (fun (n, _) -> Bridge.remove_port w.vswitch (Printf.sprintf "vif%d.%d" g n))
    s.gs_netios;
  Array.iter
    (fun mac ->
      let mac = Bridge.mac_key mac in
      Bridge.forget w.vswitch ~mac;
      Hashtbl.remove w.gmac_index mac)
    s.gs_macs;
  Scheduler.remove w.sched s.gs_dom;
  (match w.hyp with Some h -> Hypervisor.remove_domain h s.gs_dom | None -> ());
  Option.iter (fun q -> Quota.forget q ~domain:(Domain.name s.gs_dom)) w.quota;
  Ledger.retire_domain w.led ~domain:(Domain.name s.gs_dom);
  Addr_space.release s.gs_space;
  w.slots.(g) <- None

let transmit_from ?nic w ~guest:g ~payload =
  let s = slot_exn w g ~op:"World.transmit_from" in
  (match w.cfg with
  | Config.Xen_domU -> ()
  | _ ->
      raise
        (Config_error
           {
             domain = Domain.name s.gs_dom;
             reason = "transmit_from requires the Xen_domU configuration";
           }));
  let pick =
    match nic with
    | Some n ->
        Array.fold_left
          (fun acc ((m, _) as e) ->
            match acc with
            | Some _ -> acc
            | None -> if m = n then Some e else None)
          None s.gs_netios
    | None -> if Array.length s.gs_netios > 0 then Some s.gs_netios.(0) else None
  in
  match pick with
  | None ->
      Guest_fault.fail ~domain:(Domain.name s.gs_dom) ~op:"World.transmit_from"
        "guest %d has no netfront channel%s" g
        (match nic with
        | Some n -> Printf.sprintf " on NIC %d" n
        | None -> "")
  | Some (n, io) -> (
      if w.nics.(n).quarantined then raise (Nic_quarantined { nic = n });
      charge_domU_cat w w.costs.Sys_costs.kernel_tx_path;
      charge_dom0_cat w w.costs.Sys_costs.dom0_tx_kernel;
      match Xen_netio.guest_transmit io ~hdr:s.gs_tx_hdrs.(n) payload with
      | () -> true
      | exception Quota.Quota_exceeded _ ->
          (* throttled tenant: the frame dies at the frontend edge *)
          w.tx_drops <- w.tx_drops + 1;
          if Td_obs.Control.enabled () then
            Td_obs.Metrics.bump "world.tx_throttled";
          false)

(* ---- per-world engine observability ---- *)

let fault_engine w = w.fault
let fault_injected w = Td_fault.Engine.injected w.fault

let quota_throttled w =
  match w.quota with Some q -> Quota.throttled q | None -> 0

let doorbell_pages_mapped w =
  let base, limit = Xen_netio.doorbell_window in
  let n = ref 0 in
  for vpage = Layout.page_of base to Layout.page_of limit - 1 do
    if Addr_space.is_mapped w.dom0_space ~vpage then incr n
  done;
  !n
