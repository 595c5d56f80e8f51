(* Tests for the multi-queue simulation ({!Mq}): RSS hash determinism,
   the fixed doorbell word offsets (tx at 0, rx at 4), the rx-delivery
   and grant-copy-byte quotas, [Mq.create]'s queue-count bounds, that
   each shard's code registry is its own (an image registered in one
   shard never shows in another, and registered code is never
   overwritten), that a
   context's queue index carries no state (every context equals a plain
   world), and the QCheck property that sequential and sharded
   execution produce identical merged ledgers. *)

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

(* ---- doorbell words and the rx quota (netio level) ---- *)

type netio_rig = {
  hyp : Td_xen.Hypervisor.t;
  dom0 : Td_xen.Domain.t;
  guest : Td_xen.Domain.t;
  km : Td_kernel.Kmem.t;
  netio : Td_kernel.Xen_netio.t;
}

let make_netio_rig ?notify ?quota () =
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
    Td_kernel.Xen_netio.create ?notify ?quota ~hyp ~dom0 ~guest
      ~kmem:km
      ~driver_tx:(fun _ -> ())
      ()
  in
  { hyp; dom0; guest; km; netio }

let deliver rig =
  let open Td_kernel in
  Xen_netio.deliver_to_guest rig.netio
    (Harness.skb_of_string rig.km (Td_xen.Domain.space rig.dom0) "frame")

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
  Xen_netio.set_guest_rx io (fun _ _ -> incr got);
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

let test_doorbell_words_fixed_offsets () =
  let open Td_kernel in
  let notify =
    Xen_netio.Adaptive { batch = 1; entry_kicks = 1; poll_budget = 8 }
  in
  let rig = make_netio_rig ~notify () in
  let io = rig.netio in
  Td_xen.Hypervisor.switch_to rig.hyp rig.guest;
  Xen_netio.set_guest_rx io (fun _ _ -> ());
  Xen_netio.post_rx_buffers io 8;
  (* one kick per direction crosses the entry threshold at the tick *)
  Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'a');
  deliver rig;
  Xen_netio.on_tick io;
  check bool_c "tx entered polling" true
    (Xen_netio.tx_mode io = Xen_netio.Polling);
  (* polling-mode traffic rings the tx word at 0 and the rx word at 4;
     nothing else on the page moves *)
  Xen_netio.guest_transmit io ~hdr:"" (String.make 64 'b');
  deliver rig;
  let page = Option.get (Xen_netio.doorbell_vaddr io) in
  let gspace = Td_xen.Domain.space rig.guest in
  let word off = Td_mem.Addr_space.read gspace (page + off) Td_misa.Width.W32 in
  check bool_c "tx word at offset 0 advanced" true (word 0 > 0);
  check bool_c "rx word at offset 4 advanced" true (word 4 > 0);
  check int_c "word at offset 8 untouched" 0 (word 8);
  check int_c "word at offset 12 untouched" 0 (word 12)

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

(* Two (registry, interpreter) pairs, as two shards hold, each with its
   own image at the same code address. *)
let shard_running v =
  let m = Harness.make_machine () in
  let p = registry_image v in
  Td_cpu.Code_registry.register m.Harness.registry p;
  let interp = Harness.interp_of m (Harness.dom0_cpu m) in
  (m, interp, Td_misa.Program.addr_of_label p "entry")

let test_registries_independent_across_shards () =
  let open Td_cpu in
  let _m1, i1, e1 = shard_running 1 in
  let _m2, i2, e2 = shard_running 2 in
  check int_c "same code address in both shards" e1 e2;
  check int_c "shard 1 runs its own image" 1 (Interp.call i1 ~entry:e1 ~args:[]);
  check int_c "shard 2 runs its own image" 2 (Interp.call i2 ~entry:e2 ~args:[]);
  check int_c "shard 1 unaffected by shard 2's run" 1
    (Interp.call i1 ~entry:e1 ~args:[])

let test_registered_code_never_overwritten () =
  let open Td_cpu in
  let m, interp, entry = shard_running 1 in
  check int_c "boot image runs" 1 (Interp.call interp ~entry ~args:[]);
  let overwrote =
    match Code_registry.register m.Harness.registry (registry_image 2) with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  check bool_c "overlapping image rejected" false overwrote;
  check int_c "boot image still runs" 1 (Interp.call interp ~entry ~args:[])

(* ---- Mq: sequential vs sharded bit-identity ---- *)

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
  (Td_xen.Ledger.digest (Mq.merged_ledger mq), Mq.wire_tx_frames mq)

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
  (Td_xen.Ledger.digest (Mq.merged_ledger mq), Mq.wire_tx_frames mq)

let test_mq_shards_with_quota_and_faults () =
  let seq_digest, seq_frames = mq_armed_run_digest ~shards:1 in
  let par_digest, par_frames = mq_armed_run_digest ~shards:4 in
  check bool_c "sequential run made progress" true (seq_frames > 0);
  check int_c "same wire frames" seq_frames par_frames;
  check string_c "bit-identical merged ledgers" seq_digest par_digest

(* ---- Mq.create bounds and the queue index ---- *)

let test_mq_create_rejects_queue_counts () =
  let rejected queues =
    let tuning = { Config.default_tuning with Config.queues } in
    match Mq.create ~nics:1 ~tuning Config.Xen_domU with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool_c "0 queues rejected" true (rejected 0);
  check bool_c "9 queues rejected" true (rejected 9);
  check bool_c "1 queue accepted" false (rejected 1)


(* Every context is a complete world with its own simulated memory, so
   the queue it serves changes nothing inside it: driven with the same
   traffic, each context's ledger equals a plain world's. *)
let test_contexts_equal_plain_world cfg () =
  let drive w =
    let payload = String.make Measure.mtu_payload 'm' in
    for i = 0 to 511 do
      ignore (World.transmit w ~nic:0 ~payload);
      if i mod 8 = 7 then World.pump w
    done;
    World.pump w
  in
  let ledger_rows w =
    let led = World.ledger w in
    ( Td_xen.Ledger.snapshot led,
      Td_xen.Ledger.domain_snapshot led,
      Td_xen.Ledger.grand_total led )
  in
  let plain = World.create ~nics:1 ~guests:1 cfg in
  drive plain;
  let expected = ledger_rows plain in
  let tuning = { Config.default_tuning with Config.queues = 8 } in
  let mq = Mq.create ~nics:1 ~tuning cfg in
  let got = Mq.run mq ~job:(fun ~queue:_ w -> drive w; ledger_rows w) in
  Array.iteri
    (fun q (cats, doms, total) ->
      let e_cats, e_doms, e_total = expected in
      check bool_c (Printf.sprintf "context %d categories" q) true
        (cats = e_cats);
      check bool_c (Printf.sprintf "context %d domain rows" q) true
        (doms = e_doms);
      check int_c (Printf.sprintf "context %d grand total" q) e_total total)
    got;
  check int_c "every context transmitted" (8 * 512) (Mq.wire_tx_frames mq)

let suite =
  [
    Alcotest.test_case "rss: determinism" `Quick test_rss_determinism;
    Alcotest.test_case "rss: covers all queues" `Quick
      test_rss_covers_all_queues;
    Alcotest.test_case "netio: rx quota throttles delivery" `Quick
      test_rx_quota_throttles_delivery;
    Alcotest.test_case "netio: doorbell words at offsets 0 and 4" `Quick
      test_doorbell_words_fixed_offsets;
    Alcotest.test_case "xen: grant-copy byte quota" `Quick
      test_grant_copy_byte_quota;
    Alcotest.test_case "registry: shards hold independent images" `Quick
      test_registries_independent_across_shards;
    Alcotest.test_case "registry: registered code never overwritten" `Quick
      test_registered_code_never_overwritten;
    QCheck_alcotest.to_alcotest mq_seq_vs_sharded_prop;
    Alcotest.test_case "mq: create rejects queues outside 1..8" `Quick
      test_mq_create_rejects_queue_counts;
    Alcotest.test_case "mq: twin contexts equal a plain world" `Quick
      (test_contexts_equal_plain_world Config.Xen_twin);
    Alcotest.test_case "mq: domU contexts equal a plain world" `Quick
      (test_contexts_equal_plain_world Config.Xen_domU);
    Alcotest.test_case "mq: 4 shards with quotas + fault plan" `Quick
      test_mq_shards_with_quota_and_faults;
  ]
