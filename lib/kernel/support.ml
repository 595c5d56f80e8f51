open Td_cpu

let fast_path_names =
  [
    "netdev_alloc_skb";
    "dev_kfree_skb_any";
    "netif_rx";
    "dma_map_single";
    "dma_map_page";
    "dma_unmap_single";
    "dma_unmap_page";
    "spin_trylock";
    "spin_unlock_irqrestore";
    "eth_type_trans";
  ]

let is_fast_path name = List.mem name fast_path_names

type routine = {
  name : string;
  fast_path : bool;
  dom0_fn : Native.fn;
  hyp_fn : Native.fn option;
  mutable dom0_calls : int;
  mutable hyp_calls : int;
  mutable upcall_calls : int;
}

type hyp_ctx = {
  hyp : Td_xen.Hypervisor.t;
  dom0 : Td_xen.Domain.t;
  svm : Td_svm.Runtime.t;
  pool : Skb_pool.t;
  mutable hyp_netif_rx : int -> unit;
}

type t = {
  space : Td_mem.Addr_space.t;
  kmem : Kmem.t;
  alloc_sizes : int Td_sim.Int_tbl.t;  (** kmalloc'd addr -> size, for kfree *)
  routines : (string, routine) Hashtbl.t;
  mutable order : string list;  (** registration order, reversed *)
  mutable netif_rx : int -> unit;  (** takes the sk_buff's address *)
  mutable hyp_ctx : hyp_ctx option;
  upcall_stats : Td_xen.Upcall.stats;
  eth_hdr : Bytes.t;  (** [eth_type_trans]'s header buffer *)
}

let eth_hlen = 14

let kmem t = t.kmem
let set_netif_rx t fn = t.netif_rx <- fn
let routine_names t = List.rev t.order
let routine_count t = Hashtbl.length t.routines

let find t name =
  match Hashtbl.find_opt t.routines name with
  | Some r -> r
  | None -> invalid_arg ("Support: unknown routine " ^ name)

let dom0_calls t name = (find t name).dom0_calls
let hyp_calls t name = (find t name).hyp_calls
let upcalls t name = (find t name).upcall_calls

let total_upcalls t =
  Hashtbl.fold (fun _ r acc -> acc + r.upcall_calls) t.routines 0

let reset_counts t =
  Hashtbl.iter
    (fun _ r ->
      r.dom0_calls <- 0;
      r.hyp_calls <- 0;
      r.upcall_calls <- 0)
    t.routines

let called_routines t =
  List.filter
    (fun n ->
      let r = find t n in
      r.dom0_calls + r.hyp_calls + r.upcall_calls > 0)
    (routine_names t)

(* ---- implementation helpers ---- *)

let arg = State.stack_arg
let ret st v = State.set st Td_misa.Reg.EAX v

(* ---- the ten fast-path routines ---- *)

(* Hypervisor implementations "make use of the stlb translation table
   explicitly while accessing driver data in dom0 address space" (§4.3):
   we exercise the translation (installing persistent mappings) and then
   operate on the shared structures. *)

let touch_via_stlb ctx addr = ignore (Td_svm.Runtime.translate ctx.svm addr)

let impl_netdev_alloc_skb t st =
  (* args: netdev, size *)
  ret st (Skb.alloc_at t.kmem t.space ~size:(Int.max 64 (arg st 1) + 64))

let hyp_netdev_alloc_skb _t ctx st =
  match Skb_pool.alloc ctx.pool with
  | Some { Skb.addr; _ } ->
      touch_via_stlb ctx addr;
      ret st addr
  | None -> ret st 0

let impl_dev_kfree_skb_any t st =
  Skb.free_at t.kmem t.space (arg st 0);
  ret st 0

let hyp_dev_kfree_skb_any t ctx st =
  let addr = arg st 0 in
  touch_via_stlb ctx addr;
  if Skb_pool.owns ctx.pool addr then Skb_pool.release ctx.pool addr
  else Skb.free_at t.kmem t.space addr;
  ret st 0

let impl_netif_rx t st =
  t.netif_rx (arg st 0);
  ret st 0

let hyp_netif_rx_impl t ctx st =
  let skb = arg st 0 in
  touch_via_stlb ctx (Skb.data_at t.space skb);
  ctx.hyp_netif_rx skb;
  ret st 0

let impl_dma_map_single _t st = ret st (arg st 0)
let impl_dma_map_page _t st = ret st (arg st 0 + arg st 1)
let impl_dma_unmap_single _t st = ret st 0
let impl_dma_unmap_page _t st = ret st 0

let impl_spin_trylock t st =
  ret st (if Spinlock.trylock t.space (arg st 0) then 1 else 0)

let impl_spin_unlock_irqrestore t st =
  Spinlock.unlock t.space (arg st 0);
  ret st 0

(* the header is read into the registry's own 14-byte buffer, exactly
   as a fresh [read_block] would read it *)
let impl_eth_type_trans t st =
  let addr = arg st 0 in
  let hdr = t.eth_hdr in
  Td_mem.Addr_space.read_into t.space (Skb.data_at t.space addr) hdr ~pos:0
    ~len:eth_hlen;
  let proto = (Char.code (Bytes.get hdr 12) lsl 8) lor Char.code (Bytes.get hdr 13) in
  Skb.pull_at t.space addr eth_hlen;
  Skb.set_protocol_at t.space addr proto;
  ret st proto

let hyp_eth_type_trans t ctx st =
  touch_via_stlb ctx (Skb.data_at t.space (arg st 0));
  impl_eth_type_trans t st

(* ---- the long tail of support routines ---- *)

let impl_kmalloc t st =
  let size = Int.max 1 (arg st 0) in
  let addr = Kmem.alloc t.kmem size in
  Td_sim.Int_tbl.replace t.alloc_sizes addr size;
  ret st addr

let impl_kfree t st =
  let addr = arg st 0 in
  (match Td_sim.Int_tbl.find t.alloc_sizes addr with
  | size ->
      Td_sim.Int_tbl.remove t.alloc_sizes addr;
      Kmem.free t.kmem addr size
  | exception Not_found -> ());
  ret st 0

let impl_memcpy t st =
  let dst = arg st 0 and src = arg st 1 and n = arg st 2 in
  Td_mem.Addr_space.write_block t.space dst
    (Td_mem.Addr_space.read_block t.space src n);
  ret st dst

let impl_memset t st =
  let dst = arg st 0 and c = arg st 1 and n = arg st 2 in
  Td_mem.Addr_space.write_block t.space dst (Bytes.make n (Char.chr (c land 0xff)));
  ret st dst

let impl_readl t st = ret st (Td_mem.Addr_space.read t.space (arg st 0) Td_misa.Width.W32)

let impl_writel t st =
  Td_mem.Addr_space.write t.space (arg st 1) Td_misa.Width.W32 (arg st 0);
  ret st 0

let impl_skb_put t st =
  let space = t.space and skb = arg st 0 and n = arg st 1 in
  let len = Skb.len_at space skb in
  let tail = Skb.data_at space skb + len in
  (* the length argument can originate in a guest-writable descriptor
     ring: contain it as a typed, accounted guest fault, not a crash *)
  if n < 0 || tail + n > Skb.end_at space skb then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name space)
      ~op:"skb_put" "overflow: %d bytes at 0x%x exceeds end 0x%x" n tail
      (Skb.end_at space skb);
  Skb.set_len_at space skb (len + n);
  ret st tail

let impl_skb_reserve t st =
  let skb = arg st 0 in
  Skb.set_data_at t.space skb (Skb.data_at t.space skb + arg st 1);
  ret st 0

let impl_skb_pull t st =
  let skb = arg st 0 in
  Skb.pull_at t.space skb (arg st 1);
  ret st (Skb.data_at t.space skb)

let impl_netif_stop_queue t st =
  Netdev.stop_queue (Netdev.of_addr t.space (arg st 0));
  ret st 0

let impl_netif_wake_queue t st =
  Netdev.wake_queue (Netdev.of_addr t.space (arg st 0));
  ret st 0

let impl_netif_queue_stopped t st =
  ret st (if Netdev.queue_stopped (Netdev.of_addr t.space (arg st 0)) then 1 else 0)

let impl_spin_lock t st =
  ignore (Spinlock.trylock t.space (arg st 0));
  ret st 0

let impl_spin_lock_init t st =
  Spinlock.init t.space (arg st 0);
  ret st 0

let impl_identity0 _t st = ret st (arg st 0)
let impl_zero _t st = ret st 0
let impl_one _t st = ret st 1

let impl_dma_alloc_coherent t st =
  let size = Int.max 1 (arg st 0) in
  let addr = Kmem.alloc t.kmem size in
  Td_sim.Int_tbl.replace t.alloc_sizes addr size;
  ret st addr

(* names of routines that behave as "return 0 and count" — configuration,
   PCI plumbing, timers, logging, scheduling; the things the VM instance
   keeps handling so the hypervisor never needs them (§3.1) *)
let zero_tail =
  [
    "pci_enable_device"; "pci_set_master"; "pci_request_regions";
    "pci_release_regions"; "pci_read_config_dword"; "pci_write_config_dword";
    "pci_set_dma_mask"; "pci_disable_device"; "pci_save_state";
    "pci_restore_state"; "request_irq"; "free_irq"; "register_netdev";
    "unregister_netdev"; "free_netdev"; "mod_timer"; "del_timer";
    "del_timer_sync"; "msleep"; "mdelay"; "udelay"; "schedule_work";
    "cancel_work_sync"; "printk"; "dev_err"; "dev_warn"; "dev_info";
    "local_irq_save"; "local_irq_restore"; "spin_lock_irqsave";
    "netif_carrier_on"; "netif_carrier_off"; "netif_start_queue";
    "mutex_init"; "mutex_lock"; "mutex_unlock"; "init_waitqueue_head";
    "wake_up"; "wait_event_timeout"; "queue_delayed_work";
    "cancel_delayed_work"; "flush_scheduled_work"; "synchronize_irq";
    "free_irq_vector"; "napi_enable"; "napi_disable"; "napi_schedule";
    "dma_free_coherent"; "iounmap"; "vfree"; "put_page"; "get_page";
    "atomic_inc"; "atomic_dec"; "set_bit"; "clear_bit"; "smp_mb";
    "prefetch"; "dump_stack"; "ethtool_op_get_link"; "eth_validate_addr";
    "copy_to_user"; "copy_from_user"; "capable"; "schedule";
    "cond_resched"; "might_sleep"; "rtnl_lock"; "rtnl_unlock";
  ]

let identity_tail =
  [ "cpu_to_le32"; "le32_to_cpu"; "cpu_to_le16"; "le16_to_cpu";
    "virt_to_phys"; "phys_to_virt"; "page_address"; "ioremap" ]

(* ---- registry construction ---- *)

let create ~space ~kmem =
  let t =
    {
      space;
      kmem;
      alloc_sizes = Td_sim.Int_tbl.create 64;
      routines = Hashtbl.create 128;
      order = [];
      netif_rx = (fun _ -> ());
      hyp_ctx = None;
      upcall_stats = Td_xen.Upcall.fresh_stats ();
      eth_hdr = Bytes.create eth_hlen;
    }
  in
  let add ?hyp name fn =
    if Hashtbl.mem t.routines name then invalid_arg ("Support: duplicate " ^ name);
    Hashtbl.replace t.routines name
      {
        name;
        fast_path = is_fast_path name;
        dom0_fn = fn t;
        hyp_fn = Option.map (fun f -> f t) hyp;
        dom0_calls = 0;
        hyp_calls = 0;
        upcall_calls = 0;
      };
    t.order <- name :: t.order
  in
  let hyp_wrap f t st =
    match t.hyp_ctx with
    | Some ctx -> f t ctx st
    | None ->
        (* a twin routine ran before attach_hyp_ctx: abort this driver
           instance with a typed fault instead of killing the run *)
        Td_xen.Guest_fault.fail ~op:"support.hyp_ctx"
          "hypervisor context not initialised"
  in
  (* Table 1 *)
  add "netdev_alloc_skb" impl_netdev_alloc_skb
    ~hyp:(hyp_wrap hyp_netdev_alloc_skb);
  add "dev_kfree_skb_any" impl_dev_kfree_skb_any
    ~hyp:(hyp_wrap hyp_dev_kfree_skb_any);
  add "netif_rx" impl_netif_rx ~hyp:(hyp_wrap hyp_netif_rx_impl);
  add "dma_map_single" impl_dma_map_single ~hyp:(fun t -> impl_dma_map_single t);
  add "dma_map_page" impl_dma_map_page ~hyp:(fun t -> impl_dma_map_page t);
  add "dma_unmap_single" impl_dma_unmap_single
    ~hyp:(fun t -> impl_dma_unmap_single t);
  add "dma_unmap_page" impl_dma_unmap_page ~hyp:(fun t -> impl_dma_unmap_page t);
  add "spin_trylock" impl_spin_trylock ~hyp:(fun t -> impl_spin_trylock t);
  add "spin_unlock_irqrestore" impl_spin_unlock_irqrestore
    ~hyp:(fun t -> impl_spin_unlock_irqrestore t);
  add "eth_type_trans" impl_eth_type_trans ~hyp:(hyp_wrap hyp_eth_type_trans);
  (* the long tail *)
  add "kmalloc" impl_kmalloc;
  add "kzalloc" impl_kmalloc;
  add "kfree" impl_kfree;
  add "dma_alloc_coherent" impl_dma_alloc_coherent;
  add "memcpy" impl_memcpy;
  add "memset" impl_memset;
  add "readl" impl_readl;
  add "writel" impl_writel;
  add "skb_put" impl_skb_put;
  add "skb_reserve" impl_skb_reserve;
  add "skb_pull" impl_skb_pull;
  add "netif_stop_queue" impl_netif_stop_queue;
  add "netif_wake_queue" impl_netif_wake_queue;
  add "netif_queue_stopped" impl_netif_queue_stopped;
  add "spin_lock" impl_spin_lock;
  add "spin_unlock" (fun t -> impl_spin_unlock_irqrestore t);
  add "spin_lock_init" impl_spin_lock_init;
  add "test_bit" (fun t -> impl_zero t);
  add "jiffies" (fun t -> impl_one t);
  List.iter (fun n -> add n impl_zero) zero_tail;
  List.iter (fun n -> add n impl_identity0) identity_tail;
  t

(* ---- native registration & symbol tables ---- *)

let register_dom0_natives t natives =
  Hashtbl.iter
    (fun name r ->
      let counted st =
        r.dom0_calls <- r.dom0_calls + 1;
        r.dom0_fn st
      in
      ignore (Native.register natives (name ^ "@dom0") counted))
    t.routines

let dom0_symtab t natives name =
  if Hashtbl.mem t.routines name then
    Native.address_of natives (name ^ "@dom0")
  else None

let register_hyp_natives ?quota ?fault t natives ~ctx ~native_set =
  t.hyp_ctx <- Some ctx;
  List.iter
    (fun n ->
      if not (is_fast_path n) then
        invalid_arg ("Support: " ^ n ^ " has no hypervisor implementation"))
    native_set;
  Hashtbl.iter
    (fun name r ->
      let fn =
        match r.hyp_fn with
        | Some hyp_fn when List.mem name native_set ->
            fun st ->
              r.hyp_calls <- r.hyp_calls + 1;
              hyp_fn st
        | Some _ | None ->
            let stub =
              Td_xen.Upcall.make_stub ?quota ?fault ~hyp:ctx.hyp
                ~dom0:ctx.dom0 ~name ~impl:r.dom0_fn t.upcall_stats
            in
            fun st ->
              r.upcall_calls <- r.upcall_calls + 1;
              stub st
      in
      ignore (Native.register natives (name ^ "@hyp") fn))
    t.routines

let set_hyp_netif_rx t fn =
  match t.hyp_ctx with
  | Some ctx -> ctx.hyp_netif_rx <- fn
  | None -> invalid_arg "Support.set_hyp_netif_rx: no hypervisor context"

let hyp_symtab t natives name =
  if Hashtbl.mem t.routines name then Native.address_of natives (name ^ "@hyp")
  else None
