(* Tests for the kernel substrate: allocator, sk_buffs, pools, netdev,
   spinlocks, timers, support registry. *)

open Td_kernel

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let make () =
  let m = Harness.make_machine () in
  let km = Kmem.create m.Harness.dom0 in
  (m, km)

(* --- kmem --- *)

let test_kmem_classes () =
  let _, km = make () in
  let a = Kmem.alloc km 10 in
  let b = Kmem.alloc km 10 in
  check bool_c "distinct" true (a <> b);
  check bool_c "32-byte class spacing possible" true (abs (b - a) >= 32);
  Kmem.free km a 10;
  let c = Kmem.alloc km 10 in
  check int_c "free list reuse" a c

let test_kmem_zeroed () =
  let m, km = make () in
  let a = Kmem.alloc km 64 in
  Td_mem.Addr_space.write m.Harness.dom0 a Td_misa.Width.W32 0xFFFF;
  Kmem.free km a 64;
  let b = Kmem.alloc km 64 in
  check int_c "same block" a b;
  check int_c "zeroed on alloc" 0 (Td_mem.Addr_space.read m.Harness.dom0 b Td_misa.Width.W32)

let test_kmem_large () =
  let _, km = make () in
  let a = Kmem.alloc km 10000 in
  check int_c "page aligned" 0 (Td_mem.Layout.offset_of a);
  check bool_c "live accounting" true (Kmem.allocated_bytes km >= 10000)

(* A free the allocator did not hand out is refused, typed, and changes
   nothing: a zeroed sk_buff's [free 0 0] used to put address 0 on the
   32-B stack, and the next small allocation returned it. *)
let test_kmem_rejects_bad_free () =
  let _, km = make () in
  let a = Kmem.alloc km 64 in
  let live = Kmem.allocated_bytes km in
  let refused addr bytes =
    match Kmem.free km addr bytes with
    | exception Kmem.Bad_free _ -> true
    | () -> false
  in
  check bool_c "zeroed sk_buff: address 0, size 0" true (refused 0 0);
  check bool_c "address below the heap" true (refused 0x24 32);
  check bool_c "non-positive size" true (refused a 0);
  check bool_c "misaligned for its class" true (refused (a + 8) 64);
  check bool_c "never allocated" true (refused (a + 64) 64);
  check int_c "refusals change nothing" live (Kmem.allocated_bytes km);
  Kmem.free km a 64;
  check bool_c "already free" true (refused a 64);
  let b = Kmem.alloc km 16 in
  check bool_c "the next small allocation is a heap address" true (b <> 0);
  check int_c "and the freed block is reused once" a (Kmem.alloc km 64);
  let big = Kmem.alloc km 10000 in
  Kmem.free km big 10000;
  check bool_c "large block freed twice" true (refused big 10000)

(* --- skb --- *)

let test_skb_lifecycle () =
  let m, km = make () in
  let space = m.Harness.dom0 in
  let skb = Skb.alloc_at km space ~size:256 in
  let contents () = Bytes.to_string (Skb.contents_at space skb) in
  check int_c "len 0" 0 (Skb.len_at space skb);
  check int_c "data at head" (Skb.head_at space skb) (Skb.data_at space skb);
  check int_c "capacity" 256 (Skb.capacity_at space skb);
  Skb.put_string_at space skb "abcdef" ~off:0 ~len:6;
  check int_c "len" 6 (Skb.len_at space skb);
  check bool_c "contents" true (contents () = "abcdef");
  Skb.pull_at space skb 2;
  check bool_c "pulled" true (contents () = "cdef");
  (* out-of-range lengths are guest-reachable input: typed, counted
     Guest_fault attributed to the buffer's address space, not Failure *)
  let dom0_faults () = Td_obs.Metrics.counter_value "xen.guest_faults.dom0" in
  Td_obs.Control.with_enabled (fun () ->
      let faults0 = dom0_faults () in
      check bool_c "overflow rejected" true
        (match
           Skb.put_string_at space skb (String.make 300 'x') ~off:0 ~len:300
         with
        | exception Td_xen.Guest_fault.Fault { op = "Skb.put"; _ } -> true
        | _ -> false);
      check bool_c "pull underflow rejected" true
        (match Skb.pull_at space skb 100 with
        | exception Td_xen.Guest_fault.Fault { op = "Skb.pull"; _ } -> true
        | _ -> false);
      check int_c "faults attributed to dom0" (faults0 + 2) (dom0_faults ()))

(* Netback's in-place fill: bytes copied within the buffer's own space,
   the overflow check before any byte moves, and a source fault leaving
   the buffer untouched. *)
let test_skb_put_from () =
  let m, km = make () in
  let space = m.Harness.dom0 in
  (* a lone page: the next one is unmapped *)
  let src = 0xC080_0000 in
  ignore (Td_mem.Addr_space.alloc_page space ~vpage:(Td_mem.Layout.page_of src));
  Td_mem.Addr_space.write_string space src "0123456789" ~off:0 ~len:10;
  let skb = Skb.alloc_at km space ~size:16 in
  Skb.put_from_at space skb ~src ~len:6;
  check bool_c "copied" true
    (Bytes.to_string (Skb.contents_at space skb) = "012345");
  check bool_c "overflow rejected" true
    (match Skb.put_from_at space skb ~src ~len:11 with
    | exception Td_xen.Guest_fault.Fault { op = "Skb.put"; _ } -> true
    | _ -> false);
  (* the source runs off the end of its page into an unmapped one *)
  let edge = src + Td_mem.Layout.page_size - 4 in
  check bool_c "source fault" true
    (match Skb.put_from_at space skb ~src:edge ~len:8 with
    | exception Td_mem.Addr_space.Page_fault _ -> true
    | _ -> false);
  check int_c "len unchanged" 6 (Skb.len_at space skb);
  check bool_c "tail untouched" true
    (Bytes.to_string
       (Td_mem.Addr_space.read_block space (Skb.data_at space skb + 6) 4)
    = "\000\000\000\000")

let test_skb_refcount () =
  let m, km = make () in
  let live0 = Kmem.allocated_bytes km in
  let space = m.Harness.dom0 in
  let skb = Skb.alloc_at km space ~size:128 in
  Skb.get_ref_at space skb;
  Skb.free_at km space skb;
  check bool_c "still allocated (ref held)" true
    (Kmem.allocated_bytes km > live0);
  Skb.free_at km space skb;
  check int_c "released at zero" live0 (Kmem.allocated_bytes km)

let test_skb_frag_fields () =
  let m, km = make () in
  let space = m.Harness.dom0 in
  let skb = Skb.alloc_at km space ~size:128 in
  check int_c "no frag" 0 (Skb.frag_page_at space skb);
  Skb.set_frag_at space skb ~page:0xC1230000 ~len:1404;
  check int_c "frag page" 0xC1230000 (Skb.frag_page_at space skb);
  check int_c "total len includes frag"
    (Skb.len_at space skb + 1404)
    (Skb.total_len_at space skb)

(* --- pool --- *)

let test_pool_refcount_trick () =
  let m, km = make () in
  let pool = Skb_pool.create km m.Harness.dom0 ~entries:2 ~buf_size:256 in
  check int_c "available" 2 (Skb_pool.available pool);
  let { Skb.space; addr = a } = Option.get (Skb_pool.alloc pool) in
  (* a dom0-style free must NOT return the buffer to the dom0 allocator:
     the pool's base reference keeps it alive *)
  let live = Kmem.allocated_bytes km in
  Skb.free_at km space a;
  check int_c "buffer survives dom0 free" live (Kmem.allocated_bytes km);
  Skb.get_ref_at space a;
  Skb_pool.release pool a;
  check int_c "back in pool" 2 (Skb_pool.available pool)

let test_pool_exhaustion () =
  let m, km = make () in
  let pool = Skb_pool.create km m.Harness.dom0 ~entries:1 ~buf_size:128 in
  let a = Skb_pool.alloc pool in
  check bool_c "first alloc works" true (a <> None);
  check bool_c "second fails" true (Skb_pool.alloc pool = None);
  check int_c "exhaustion counted" 1 (Skb_pool.exhaustions pool);
  Skb_pool.release pool (Option.get a).Skb.addr;
  check bool_c "usable again" true (Skb_pool.alloc pool <> None)

let test_pool_release_resets () =
  let m, km = make () in
  let pool = Skb_pool.create km m.Harness.dom0 ~entries:1 ~buf_size:256 in
  let { Skb.space; addr = a } = Option.get (Skb_pool.alloc pool) in
  Skb.put_string_at space a "stale data" ~off:0 ~len:10;
  Skb.pull_at space a 3;
  Skb.set_frag_at space a ~page:42 ~len:10;
  Skb_pool.release pool a;
  let b = (Option.get (Skb_pool.alloc pool)).Skb.addr in
  check int_c "same skb" a b;
  check int_c "len reset" 0 (Skb.len_at space b);
  check int_c "data reset" (Skb.head_at space b) (Skb.data_at space b);
  check int_c "frag reset" 0 (Skb.frag_page_at space b)

let test_pool_foreign_rejected () =
  let m, km = make () in
  let pool = Skb_pool.create km m.Harness.dom0 ~entries:1 ~buf_size:128 in
  let foreign = Skb.alloc_at km m.Harness.dom0 ~size:128 in
  check bool_c "foreign release rejected" true
    (match Skb_pool.release pool foreign with
    | exception Td_xen.Guest_fault.Fault { op = "Skb_pool.release"; _ } -> true
    | _ -> false);
  check bool_c "frag buffer exists for pool skbs" true
    (Skb_pool.iter pool (fun skb ->
         assert (Skb_pool.frag_buffer pool skb.Skb.addr > 0));
     true)

let test_pool_double_release_rejected () =
  let m, km = make () in
  let pool = Skb_pool.create km m.Harness.dom0 ~entries:2 ~buf_size:128 in
  let skb =
    match Skb_pool.alloc pool with Some s -> s | None -> Alcotest.fail "empty"
  in
  Skb_pool.release pool skb.Skb.addr;
  check int_c "pool full again" 2 (Skb_pool.available pool);
  check bool_c "second release rejected" true
    (match Skb_pool.release pool skb.Skb.addr with
    | exception Td_xen.Guest_fault.Fault { op = "Skb_pool.release"; _ } -> true
    | _ -> false);
  check int_c "free stack unchanged" 2 (Skb_pool.available pool);
  check bool_c "never-allocated release rejected" true
    (Skb_pool.iter pool (fun s ->
         match Skb_pool.release pool s.Skb.addr with
         | exception Td_xen.Guest_fault.Fault _ -> ()
         | () -> Alcotest.fail "released a free sk_buff");
     true)

(* --- netdev / spinlock / timers --- *)

let test_netdev () =
  let m, km = make () in
  let nd = Netdev.alloc km m.Harness.dom0 ~mmio_base:0xC0F00000 ~mac:"\x02\x00\x00\x00\x00\x01" in
  check int_c "mmio" 0xC0F00000 (Netdev.mmio_base nd);
  check bool_c "mac" true (Netdev.mac nd = "\x02\x00\x00\x00\x00\x01");
  check int_c "default mtu" 1500 (Netdev.mtu nd);
  check bool_c "queue running" false (Netdev.queue_stopped nd);
  Netdev.stop_queue nd;
  check bool_c "stopped" true (Netdev.queue_stopped nd);
  Netdev.wake_queue nd;
  check bool_c "woken" false (Netdev.queue_stopped nd);
  Netdev.set_priv nd 0xC1234567;
  check int_c "priv" 0xC1234567 (Netdev.priv nd)

let test_spinlock () =
  let m, _ = make () in
  let addr = Td_mem.Addr_space.heap_alloc m.Harness.dom0 4 in
  Spinlock.init m.Harness.dom0 addr;
  check bool_c "acquire" true (Spinlock.trylock m.Harness.dom0 addr);
  check bool_c "contended" false (Spinlock.trylock m.Harness.dom0 addr);
  Spinlock.unlock m.Harness.dom0 addr;
  check bool_c "reacquire" true (Spinlock.trylock m.Harness.dom0 addr)

let test_timer_wheel () =
  let tw = Timer_wheel.create () in
  let fired = ref 0 in
  Timer_wheel.add tw ~period:3 ~name:"watchdog" (fun () -> incr fired);
  for _ = 1 to 7 do
    Timer_wheel.tick tw
  done;
  check int_c "fired at 3 and 6" 2 !fired;
  check int_c "count query" 2 (Timer_wheel.fired tw ~name:"watchdog");
  Timer_wheel.cancel tw ~name:"watchdog";
  for _ = 1 to 5 do
    Timer_wheel.tick tw
  done;
  check int_c "cancelled" 2 !fired;
  (* a callback that cancels a timer due in the same tick stops it *)
  let late = ref 0 in
  Timer_wheel.add tw ~period:1 ~name:"first" (fun () ->
      Timer_wheel.cancel tw ~name:"second");
  Timer_wheel.add tw ~period:1 ~name:"second" (fun () -> incr late);
  Timer_wheel.tick tw;
  check int_c "cancelled in the same tick" 0 !late;
  check int_c "first fired" 1 (Timer_wheel.fired tw ~name:"first")

(* --- bridge --- *)

let test_bridge_remove_port_keeps_fdb_order () =
  let m, km = make () in
  let br = Bridge.create km m.Harness.dom0 in
  let ports =
    Array.init 4 (fun i ->
        { Bridge.port_name = Printf.sprintf "vif%d" i; tx = (fun _ -> ()) })
  in
  Array.iter (Bridge.add_port br) ports;
  (* more MACs than the initial buckets: buckets hold chains, and the
     table has resized *)
  for k = 0 to 199 do
    Bridge.learn br ~mac:(0x0201_0000_0000 + (k * 7919)) ports.(k mod 4)
  done;
  let before = Bridge.fdb br in
  Bridge.remove_port br "vif2";
  check bool_c "surviving entries in their old order" true
    (Bridge.fdb br = List.filter (fun (_, p) -> p <> "vif2") before);
  check int_c "vif2's entries gone" 150 (List.length (Bridge.fdb br))

let test_bridge_learning () =
  let m, km = make () in
  let space = m.Harness.dom0 in
  let br = Bridge.create km space in
  let got_a = ref [] and got_b = ref [] in
  let record got skb =
    got := Bytes.to_string (Skb.contents_at space skb) :: !got
  in
  let pa = { Bridge.port_name = "a"; tx = record got_a } in
  let pb = { Bridge.port_name = "b"; tx = record got_b } in
  Bridge.add_port br pa;
  Bridge.add_port br pb;
  let mac_a = "\x02\x00\x00\x00\x00\x0A" and mac_b = "\x02\x00\x00\x00\x00\x0B" in
  (* the bridge forwards sk_buffs, keyed by the MACs read from memory *)
  let forward frame =
    let skb = Harness.skb_of_string km space frame in
    let mac off = Bridge.read_mac space (Skb.data_at space skb + off) in
    Bridge.forward br ~dst:(mac 0) ~src:(mac 6) skb
  in
  (* unknown destination floods (but not back to the learned source) *)
  Bridge.learn br ~mac:(Bridge.mac_key mac_a) pa;
  forward (mac_b ^ mac_a ^ "\x08\x00payload");
  check int_c "flooded to b" 1 (List.length !got_b);
  check int_c "not reflected to a" 0 (List.length !got_a);
  (* forward never learns: teach b and forward directly *)
  Bridge.learn br ~mac:(Bridge.mac_key mac_b) pb;
  forward (mac_b ^ mac_a ^ "\x08\x00more");
  check int_c "unicast to b" 2 (List.length !got_b);
  check bool_c "b got both frames intact" true
    (!got_b = [ mac_b ^ mac_a ^ "\x08\x00more"; mac_b ^ mac_a ^ "\x08\x00payload" ]);
  check bool_c "counted" true (Bridge.forwarded br = 1 && Bridge.flooded br = 1);
  (* each flooded port owns one reference; with no port to flood to, the
     bridge frees the sk_buff *)
  let refs = ref [] in
  let pc =
    {
      Bridge.port_name = "c";
      tx = (fun skb -> refs := Skb.refcnt_at space skb :: !refs);
    }
  in
  Bridge.add_port br pc;
  let mac_x = "\x02\x00\x00\x00\x00\x0F" in
  forward (mac_x ^ mac_a ^ "\x08\x00flood");
  check int_c "flooded to b" 3 (List.length !got_b);
  check (Alcotest.list int_c) "c sees two references" [ 2 ] !refs;
  let live = Kmem.allocated_bytes km in
  let lone = Bridge.create km space in
  Bridge.add_port lone pa;
  Bridge.learn lone ~mac:(Bridge.mac_key mac_a) pa;
  let skb = Skb.alloc_at km space ~size:256 in
  Bridge.forward lone ~dst:(Bridge.mac_key mac_x) ~src:(Bridge.mac_key mac_a)
    skb;
  check int_c "no port: freed" live (Kmem.allocated_bytes km)

(* --- support registry --- *)

let test_support_registry_basics () =
  let m, km = make () in
  let sup = Support.create ~space:m.Harness.dom0 ~kmem:km in
  check bool_c "about 97 routines" true (Support.routine_count sup >= 90);
  check int_c "ten fast-path routines" 10 (List.length Support.fast_path_names);
  List.iter
    (fun n -> check bool_c n true (Support.is_fast_path n))
    Support.fast_path_names;
  check bool_c "kmalloc is not fast-path" false (Support.is_fast_path "kmalloc")

let test_support_dom0_call_counting () =
  let m, km = make () in
  let sup = Support.create ~space:m.Harness.dom0 ~kmem:km in
  Support.register_dom0_natives sup m.Harness.natives;
  let st = Harness.dom0_cpu m in
  (* call kmalloc(100) through the native interface *)
  let addr = Option.get (Support.dom0_symtab sup m.Harness.natives "kmalloc") in
  Td_cpu.State.push st 0;
  Td_cpu.State.push st 100;
  Td_cpu.State.push st 0xDEAD (* fake return address *);
  (Option.get (Td_cpu.Native.lookup m.Harness.natives addr)) st;
  check int_c "counted" 1 (Support.dom0_calls sup "kmalloc");
  check bool_c "returned an address" true (Td_cpu.State.get st Td_misa.Reg.EAX > 0);
  check bool_c "tracked as called" true
    (List.mem "kmalloc" (Support.called_routines sup));
  Support.reset_counts sup;
  check int_c "reset" 0 (Support.dom0_calls sup "kmalloc")

let suite =
  [
    Alcotest.test_case "kmem classes" `Quick test_kmem_classes;
    Alcotest.test_case "kmem zeroed" `Quick test_kmem_zeroed;
    Alcotest.test_case "kmem large" `Quick test_kmem_large;
    Alcotest.test_case "kmem rejects bad frees" `Quick
      test_kmem_rejects_bad_free;
    Alcotest.test_case "skb lifecycle" `Quick test_skb_lifecycle;
    Alcotest.test_case "skb refcount" `Quick test_skb_refcount;
    Alcotest.test_case "skb frag fields" `Quick test_skb_frag_fields;
    Alcotest.test_case "pool refcount trick" `Quick test_pool_refcount_trick;
    Alcotest.test_case "pool exhaustion" `Quick test_pool_exhaustion;
    Alcotest.test_case "pool release resets" `Quick test_pool_release_resets;
    Alcotest.test_case "pool foreign rejected" `Quick test_pool_foreign_rejected;
    Alcotest.test_case "pool double release rejected" `Quick
      test_pool_double_release_rejected;
    Alcotest.test_case "netdev" `Quick test_netdev;
    Alcotest.test_case "spinlock" `Quick test_spinlock;
    Alcotest.test_case "timer wheel" `Quick test_timer_wheel;
    Alcotest.test_case "bridge learning" `Quick test_bridge_learning;
    Alcotest.test_case "bridge remove_port keeps fdb order" `Quick
      test_bridge_remove_port_keeps_fdb_order;
    Alcotest.test_case "support registry" `Quick test_support_registry_basics;
    Alcotest.test_case "support call counting" `Quick
      test_support_dom0_call_counting;
    Alcotest.test_case "skb put_from" `Quick test_skb_put_from;
  ]
