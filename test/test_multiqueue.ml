(* Tests for the multi-queue NIC model and the sharded simulation:
   RSS hash determinism, device-level steering onto per-queue rings
   with per-queue interrupt vectors, per-queue doorbell word
   independence, the rx-delivery and grant-copy-byte quotas, globally
   unique code-registry generation stamps (reload in one shard must
   never invalidate — or alias — another shard's block cache), and the
   QCheck property that sequential and sharded execution produce
   identical merged ledgers. *)

open Td_nic
open Twindrivers

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool
let string_c = Alcotest.string

(* ---- RSS demux ---- *)

let tuple f =
  {
    Rss.src_ip = 0x0a000002;
    dst_ip = 0x0a000001;
    src_port = 1024 + f;
    dst_port = 80;
  }

let test_rss_determinism () =
  let a = Rss.of_seed 0x2A8F and b = Rss.of_seed 0x2A8F in
  for f = 0 to 63 do
    check int_c "same seed, same hash" (Rss.hash a (tuple f))
      (Rss.hash b (tuple f))
  done;
  let c = Rss.of_seed 0x1111 in
  check bool_c "different seed changes the key" true (Rss.key a <> Rss.key c);
  check int_c "single queue always steers to 0" 0
    (Rss.queue_of_hash (Rss.hash a (tuple 7)) ~queues:1)

let test_rss_covers_all_queues () =
  let t = Rss.of_seed 0x2A8F in
  let hit = Array.make 8 0 in
  for f = 0 to 255 do
    let q = Rss.queue_of_hash (Rss.hash t (tuple f)) ~queues:8 in
    check bool_c "queue in range" true (q >= 0 && q < 8);
    hit.(q) <- hit.(q) + 1
  done;
  Array.iteri
    (fun q n ->
      check bool_c (Printf.sprintf "queue %d sees traffic" q) true (n > 0))
    hit

let test_rss_frame_payload_agree () =
  (* the device parses frames (ethernet header first), the Mq demux
     parses bare payloads — both must recover the same 4-tuple *)
  let t = Rss.of_seed 0x2A8F in
  let mac = "\x02\x00\x00\x00\x00\x07" in
  for f = 0 to 31 do
    let payload = Rss.ipv4_udp_payload (tuple f) in
    let frame = mac ^ mac ^ "\x08\x00" ^ payload in
    check int_c "frame and payload steer alike"
      (Rss.queue_of_payload t ~queues:8 payload)
      (Rss.queue_of_frame t ~queues:8 frame)
  done

(* ---- multi-queue e1000: per-queue rings and vectors ---- *)

type mq_rig = {
  space : Td_mem.Addr_space.t;
  dev : E1000_dev.t;
  mmio : int;
  sent : string list ref;
  irqs : int ref;  (* legacy INTx (queue 0) *)
  vectors : int array;  (* MSI-X firings per vector *)
}

let entries = 8

let make_mq_rig ~queues () =
  let phys = Td_mem.Phys_mem.create () in
  let space = Td_mem.Addr_space.create ~name:"dom0" phys in
  Td_mem.Addr_space.heap_init space ~base:Td_mem.Layout.dom0_heap_base
    ~limit:Td_mem.Layout.dom0_heap_limit;
  let sent = ref [] and irqs = ref 0 in
  let dev =
    E1000_dev.create ~ring_entries:entries ~queues ~rss_seed:0x2A8F ~dma:space
      ~mac:"\x02\x00\x00\x00\x00\x07"
      ~tx_frame:(fun b len -> sent := Bytes.sub_string b 0 len :: !sent)
      ()
  in
  let mmio = E1000_dev.mmio_vaddr 0 in
  E1000_dev.attach dev ~space ~vaddr:mmio;
  E1000_dev.set_irq_handler dev (fun () -> incr irqs);
  let vectors = Array.make Regs.max_queues 0 in
  for v = 1 to queues - 1 do
    E1000_dev.set_msix_handler dev ~vector:v (fun () ->
        vectors.(v) <- vectors.(v) + 1)
  done;
  let w32 off v =
    Td_mem.Addr_space.write space (mmio + off) Td_misa.Width.W32 v
  in
  (* program every queue's rings; queue 0 is the legacy register block *)
  for q = 0 to queues - 1 do
    let tx_ring =
      Td_mem.Addr_space.heap_alloc space (entries * Regs.desc_bytes)
    in
    let rx_ring =
      Td_mem.Addr_space.heap_alloc space (entries * Regs.desc_bytes)
    in
    w32 (Regs.tdbal_q q) tx_ring;
    w32 (Regs.tdlen_q q) (entries * Regs.desc_bytes);
    w32 (Regs.rdbal_q q) rx_ring;
    w32 (Regs.rdlen_q q) (entries * Regs.desc_bytes)
  done;
  w32 Regs.ims (Regs.icr_txdw lor Regs.icr_rxt0);
  { space; dev; mmio; sent; irqs; vectors }

let reg rig off =
  Td_mem.Addr_space.read rig.space (rig.mmio + off) Td_misa.Width.W32

let set_reg rig off v =
  Td_mem.Addr_space.write rig.space (rig.mmio + off) Td_misa.Width.W32 v

let prime_rx rig ~queue n =
  let ring = reg rig (Regs.rdbal_q queue) in
  for i = 0 to n - 1 do
    let b = Td_mem.Addr_space.heap_alloc rig.space 2048 in
    Td_mem.Addr_space.write rig.space
      (ring + (i * Regs.desc_bytes) + Regs.d_buf)
      Td_misa.Width.W32 b;
    Td_mem.Addr_space.write rig.space
      (ring + (i * Regs.desc_bytes) + Regs.d_sta)
      Td_misa.Width.W32 0
  done;
  set_reg rig (Regs.rdt_q queue) n

let test_device_rss_steering () =
  let queues = 4 in
  let rig = make_mq_rig ~queues () in
  for q = 0 to queues - 1 do
    prime_rx rig ~queue:q entries
  done;
  let mac = E1000_dev.mac rig.dev in
  let rss = Rss.of_seed 0x2A8F in
  let expected = Array.make queues 0 in
  for f = 0 to 31 do
    let frame = mac ^ mac ^ "\x08\x00" ^ Rss.ipv4_udp_payload (tuple f) in
    let q = E1000_dev.rx_queue_of rig.dev frame in
    check int_c "device steering matches the reference demux"
      (Rss.queue_of_frame rss ~queues frame)
      q;
    expected.(q) <- expected.(q) + 1;
    E1000_dev.receive_frame rig.dev frame
  done;
  check int_c "all frames delivered" 32 (E1000_dev.rx_count rig.dev);
  check int_c "none dropped" 0 (E1000_dev.dropped rig.dev);
  for q = 0 to queues - 1 do
    check int_c
      (Printf.sprintf "queue %d rx count" q)
      expected.(q)
      (E1000_dev.rxq_count rig.dev q)
  done;
  (* queue 0 raises legacy INTx; queues 1.. raise their own vector *)
  check int_c "legacy irqs = queue-0 frames" expected.(0) !(rig.irqs);
  for q = 1 to queues - 1 do
    check int_c
      (Printf.sprintf "vector %d firings" q)
      expected.(q) rig.vectors.(q)
  done

let test_per_queue_tx_ring () =
  let rig = make_mq_rig ~queues:4 () in
  let buf = Td_mem.Addr_space.heap_alloc rig.space 2048 in
  Td_mem.Addr_space.write_block rig.space buf (Bytes.of_string "q2-frame");
  let ring = reg rig (Regs.tdbal_q 2) in
  let set_desc field v =
    Td_mem.Addr_space.write rig.space (ring + field) Td_misa.Width.W32 v
  in
  set_desc Regs.d_buf buf;
  set_desc Regs.d_len 8;
  set_desc Regs.d_cmd (Regs.cmd_eop lor Regs.cmd_rs);
  set_reg rig (Regs.tdt_q 2) 1;
  check bool_c "frame emitted from queue 2" true (!(rig.sent) = [ "q2-frame" ]);
  check int_c "queue 2 tx count" 1 (E1000_dev.txq_count rig.dev 2);
  check int_c "vector 2 fired" 1 rig.vectors.(2);
  check int_c "no legacy irq" 0 !(rig.irqs);
  check int_c "queue 2 head advanced" 1 (reg rig (Regs.tdh_q 2))

(* ---- per-queue doorbell words and the rx quota (netio level) ---- *)

type netio_rig = {
  hyp : Td_xen.Hypervisor.t;
  dom0 : Td_xen.Domain.t;
  guest : Td_xen.Domain.t;
  km : Td_kernel.Kmem.t;
  netio : Td_kernel.Xen_netio.t;
}

let make_netio_rig ?batch ?queue ?doorbell ?quota () =
  let open Td_xen in
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
  let km = Td_kernel.Kmem.create m.Harness.dom0 in
  let netio =
    Td_kernel.Xen_netio.create ?batch ?queue ?doorbell ?quota ~hyp ~dom0 ~guest
      ~kmem:km
      ~driver_tx:(fun _ -> ())
      ()
  in
  { hyp; dom0; guest; km; netio }

let deliver rig =
  let open Td_kernel in
  let skb = Skb.alloc rig.km (Td_xen.Domain.space rig.dom0) ~size:256 in
  Skb.put skb (Bytes.of_string "frame");
  Xen_netio.deliver_to_guest rig.netio skb

let test_per_queue_doorbell_words () =
  let open Td_kernel in
  let doorbell =
    { Xen_netio.poll_entry_kicks = 1; idle_hysteresis = 8; poll_budget = 8 }
  in
  let rig = make_netio_rig ~queue:1 ~doorbell () in
  let io = rig.netio in
  check int_c "channel carries its queue index" 1 (Xen_netio.queue io);
  Td_xen.Hypervisor.switch_to rig.hyp rig.guest;
  Xen_netio.set_guest_rx io (fun _ -> ());
  Xen_netio.post_rx_buffers io 8;
  (* one kick per direction crosses the entry threshold at the tick *)
  Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'a');
  deliver rig;
  Xen_netio.on_tick io;
  check bool_c "tx entered polling" true
    (Xen_netio.tx_mode io = Xen_netio.Polling);
  (* polling-mode traffic rings the queue-1 word pair *)
  Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'b');
  deliver rig;
  let page = Option.get (Xen_netio.doorbell_vaddr io) in
  let gspace = Td_xen.Domain.space rig.guest in
  let word off = Td_mem.Addr_space.read gspace (page + off) Td_misa.Width.W32 in
  (* queue 1 owns bytes 8..15 of the page; queue 0's historical words
     at 0/4 must never move *)
  check bool_c "queue-1 tx word advanced" true (word 8 > 0);
  check bool_c "queue-1 rx word advanced" true (word 12 > 0);
  check int_c "queue-0 tx word untouched" 0 (word 0);
  check int_c "queue-0 rx word untouched" 0 (word 4);
  check bool_c "out-of-range queue rejected" true
    (match make_netio_rig ~queue:600 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rx_quota_throttles_delivery () =
  let open Td_kernel in
  (* frozen quota clock: the bucket holds exactly [burst] tokens and
     never refills, so the outcome is deterministic *)
  let quota =
    Td_xen.Quota.make
      { Td_xen.Quota.unlimited with Td_xen.Quota.rx_per_s = 1.; burst = 2. }
  in
  let rig = make_netio_rig ~quota () in
  let io = rig.netio in
  let got = ref 0 in
  Xen_netio.set_guest_rx io (fun _ -> incr got);
  Xen_netio.post_rx_buffers io 8;
  for _ = 1 to 5 do
    deliver rig
  done;
  check int_c "burst-sized prefix delivered" 2 (Xen_netio.rx_count io);
  check int_c "guest saw the delivered frames" 2 !got;
  check int_c "remainder throttled, not errored" 3 (Xen_netio.rx_throttled io);
  check int_c "throttle is not the no-buffer drop path" 0
    (Xen_netio.rx_dropped io);
  check int_c "quota recorded the denials" 3 (Td_xen.Quota.throttled quota)

let test_grant_copy_byte_quota () =
  let open Td_xen in
  let m = Harness.make_machine () in
  let ledger = Ledger.create () in
  let cpu = Harness.dom0_cpu m in
  let hyp = Hypervisor.create ~ledger ~xen_space:m.Harness.hyp ~cpu () in
  let gspace = Td_mem.Addr_space.create ~name:"guest" m.Harness.phys in
  Td_mem.Addr_space.heap_init gspace ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let guest =
    Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace
  in
  Hypervisor.add_domain hyp guest;
  let quota =
    Quota.make
      {
        Quota.unlimited with
        Quota.grant_copy_bytes_per_s = 1.;
        grant_copy_burst_bytes = 100.;
      }
  in
  let gt = Grant_table.create ~quota ~owner:guest () in
  let gpage = Td_mem.Addr_space.heap_alloc gspace 4096 in
  let frame =
    Option.get
      (Td_mem.Addr_space.frame_of_vpage gspace
         ~vpage:(Td_mem.Layout.page_of gpage))
  in
  let r = Grant_table.grant gt ~frame in
  (* 64 bytes fit the 100-byte bucket; the next 64 do not — the draw is
     all-or-nothing, so the second copy is denied in full *)
  Grant_table.copy_to gt ~hyp r ~offset:0 ~src:(Bytes.make 64 'x');
  check bool_c "second copy denied" true
    (match Grant_table.copy_to gt ~hyp r ~offset:0 ~src:(Bytes.make 64 'y') with
    | exception Quota.Quota_exceeded { domain; _ } -> domain = "guest"
    | () -> false);
  check bool_c "copy_from drains the same bucket" true
    (match Grant_table.copy_from gt ~hyp r ~offset:0 ~len:64 with
    | exception Quota.Quota_exceeded _ -> true
    | _ -> false);
  (* a draw that fits the remaining 36 tokens still succeeds *)
  check bool_c "small copy still admitted" true
    (Bytes.length (Grant_table.copy_from gt ~hyp r ~offset:0 ~len:16) = 16)

(* ---- per-shard code registries ---- *)

let registry_image v =
  let open Td_misa in
  let b = Builder.create (Printf.sprintf "img%d" v) in
  Builder.label b "entry";
  Builder.movl b (Builder.imm v) (Builder.reg Reg.EAX);
  Builder.ret b;
  Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)

let test_registry_stamps_globally_unique () =
  let open Td_cpu in
  let r1 = Code_registry.create () and r2 = Code_registry.create () in
  check bool_c "fresh registries never share a stamp" true
    (Code_registry.generation r1 <> Code_registry.generation r2);
  (* identical operation sequences on both — the pre-fix aliasing case *)
  Code_registry.register r1 (registry_image 1);
  Code_registry.register r2 (registry_image 1);
  check bool_c "stamps distinct after equal op counts" true
    (Code_registry.generation r1 <> Code_registry.generation r2);
  let g2_before = Code_registry.generation r2 in
  Code_registry.replace r1 (registry_image 2);
  check bool_c "reload bumps only its own registry" true
    (Code_registry.generation r2 = g2_before
    && Code_registry.generation r1 <> g2_before)

let test_reload_isolated_across_shards () =
  let open Td_cpu in
  let open Td_misa in
  (* two (registry, interpreter) pairs, as two shards would hold *)
  let make () =
    let m = Harness.make_machine () in
    let p = registry_image 1 in
    Code_registry.register m.Harness.registry p;
    let st = Harness.dom0_cpu m in
    let interp = Harness.interp_of m st in
    (m, interp, Program.addr_of_label p "entry")
  in
  let m1, i1, e1 = make () in
  let _m2, i2, e2 = make () in
  check int_c "shard 1 runs image 1" 1 (Interp.call i1 ~entry:e1 ~args:[]);
  check int_c "shard 2 runs image 1" 1 (Interp.call i2 ~entry:e2 ~args:[]);
  (* both caches are now synced to their registries (the first call's
     sync from the bc_gen=0 sentinel counts as one invalidation) *)
  let inv2 = Interp.invalidations i2 in
  (* reload in shard 1 only *)
  Code_registry.replace m1.Harness.registry (registry_image 2);
  check int_c "shard 1 executes the new image" 2
    (Interp.call i1 ~entry:e1 ~args:[]);
  check int_c "shard 2 still executes its own image" 1
    (Interp.call i2 ~entry:e2 ~args:[]);
  check int_c "shard 2's block cache was not flushed by shard 1's reload"
    inv2 (Interp.invalidations i2)

(* ---- Mq: sequential vs sharded bit-identity ---- *)

let digest_of_ledger led =
  let open Td_xen in
  let b = Buffer.create 128 in
  List.iter
    (fun (c, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s=%d;" (Ledger.category_name c) v))
    (Ledger.snapshot led);
  List.iter
    (fun (d, v) -> Buffer.add_string b (Printf.sprintf "%s=%d;" d v))
    (Ledger.domain_snapshot led);
  List.iter
    (fun (tag, dir) ->
      let p =
        match Ledger.latency_percentile led dir 99. with
        | None -> "-"
        | Some v -> Printf.sprintf "%.0f" v
      in
      Buffer.add_string b
        (Printf.sprintf "%s:%d/%s;" tag (Ledger.latency_count led dir) p))
    [ ("tx", `Tx); ("rx", `Rx) ];
  Buffer.contents b

let mq_run_digest ~shards ports =
  let queues = 3 in
  let tuning = { Config.default_tuning with Config.queues; shards } in
  let mq = Mq.create ~nics:1 ~tuning Config.Xen_domU in
  let payloads =
    List.map
      (fun p ->
        Rss.ipv4_udp_payload ~len:128
          {
            Rss.src_ip = 0x0a000002;
            dst_ip = 0x0a000001;
            src_port = p land 0xFFFF;
            dst_port = 80;
          })
      ports
  in
  let buckets = Array.make queues [] in
  List.iter
    (fun p ->
      let q = Mq.queue_of_payload mq p in
      buckets.(q) <- p :: buckets.(q))
    payloads;
  let buckets = Array.map List.rev buckets in
  ignore
    (Mq.run mq ~job:(fun ~queue w ->
         List.iteri
           (fun i p ->
             ignore (World.transmit w ~nic:0 ~payload:p);
             if i mod 8 = 7 then World.pump w)
           buckets.(queue);
         World.pump w;
         World.tick w;
         World.shutdown w));
  (digest_of_ledger (Mq.merged_ledger mq), Mq.wire_tx_frames mq)

let mq_seq_vs_sharded_prop =
  QCheck.Test.make
    ~name:"sequential and sharded runs merge to identical ledgers" ~count:4
    (QCheck.make
       QCheck.Gen.(list_size (int_range 24 72) (int_range 0 0xFFFF))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun ports ->
      let seq_digest, seq_frames = mq_run_digest ~shards:1 ports in
      let par_digest, par_frames = mq_run_digest ~shards:3 ports in
      seq_frames = List.length ports
      && par_frames = seq_frames
      && String.equal seq_digest par_digest)

(* Regression for the historical refusal: quotas and a fault plan used
   to be process-global singletons, so Mq.create rejected shards > 1
   with either armed. Engines are per-world now — the same armed
   configuration must run on 4 shards and merge to a ledger
   bit-identical to the sequential run. *)
let mq_armed_run_digest ~shards =
  let queues = 4 in
  let tuning =
    {
      Config.default_tuning with
      Config.queues;
      shards;
      quota = Some Td_xen.Quota.default_limits;
      fault_plan = Some (Td_fault.uniform_plan ~seed:11 0.002);
      recovery = Config.Restart_replay;
    }
  in
  let mq = Mq.create ~nics:1 ~tuning Config.Xen_domU in
  let payloads =
    List.init 96 (fun i ->
        Rss.ipv4_udp_payload ~len:128
          {
            Rss.src_ip = 0x0a000002;
            dst_ip = 0x0a000001;
            src_port = 1000 + (i * 37 mod 1999);
            dst_port = 80;
          })
  in
  let buckets = Array.make queues [] in
  List.iter
    (fun p ->
      let q = Mq.queue_of_payload mq p in
      buckets.(q) <- p :: buckets.(q))
    payloads;
  let buckets = Array.map List.rev buckets in
  ignore
    (Mq.run mq ~job:(fun ~queue w ->
         List.iteri
           (fun i p ->
             ignore (World.transmit w ~nic:0 ~payload:p);
             if i mod 8 = 7 then World.pump w)
           buckets.(queue);
         World.pump w;
         World.tick w;
         World.shutdown w));
  (digest_of_ledger (Mq.merged_ledger mq), Mq.wire_tx_frames mq)

let test_mq_shards_with_quota_and_faults () =
  let seq_digest, seq_frames = mq_armed_run_digest ~shards:1 in
  let par_digest, par_frames = mq_armed_run_digest ~shards:4 in
  check bool_c "sequential run made progress" true (seq_frames > 0);
  check int_c "same wire frames" seq_frames par_frames;
  check string_c "bit-identical merged ledgers" seq_digest par_digest

let suite =
  [
    Alcotest.test_case "rss: determinism" `Quick test_rss_determinism;
    Alcotest.test_case "rss: covers all queues" `Quick
      test_rss_covers_all_queues;
    Alcotest.test_case "rss: frame and payload parse agree" `Quick
      test_rss_frame_payload_agree;
    Alcotest.test_case "device: rss steering + per-queue vectors" `Quick
      test_device_rss_steering;
    Alcotest.test_case "device: per-queue tx ring" `Quick
      test_per_queue_tx_ring;
    Alcotest.test_case "netio: per-queue doorbell words" `Quick
      test_per_queue_doorbell_words;
    Alcotest.test_case "netio: rx quota throttles delivery" `Quick
      test_rx_quota_throttles_delivery;
    Alcotest.test_case "xen: grant-copy byte quota" `Quick
      test_grant_copy_byte_quota;
    Alcotest.test_case "registry: stamps globally unique" `Quick
      test_registry_stamps_globally_unique;
    Alcotest.test_case "registry: reload isolated across shards" `Quick
      test_reload_isolated_across_shards;
    QCheck_alcotest.to_alcotest mq_seq_vs_sharded_prop;
    Alcotest.test_case "mq: 4 shards with quotas + fault plan" `Quick
      test_mq_shards_with_quota_and_faults;
  ]
