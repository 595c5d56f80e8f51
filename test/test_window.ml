(* Map-window reclaim, straddle poisoning, multi-frame delivery,
   notification-batch equivalence and inline stlb-hit accounting. *)

open Td_mem
open Td_misa
open Td_svm

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let small_window_runtime m ~window_pages =
  let rt =
    Runtime.create_hypervisor ~window_pages ~dom0:m.Harness.dom0
      ~hyp:m.Harness.hyp ()
  in
  Runtime.register_natives rt m.Harness.natives;
  rt

(* a working set several times the window size soaks steadily: cold pairs
   are reclaimed and every translation still reads the right bytes *)
let test_soak_reclaim () =
  let m = Harness.make_machine () in
  let window_pages = 64 in
  let rt = small_window_runtime m ~window_pages in
  let pages = 256 in
  let base = Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size) in
  for i = 0 to pages - 1 do
    Addr_space.write m.Harness.dom0
      (base + (i * Layout.page_size) + 16)
      Width.W32 (0xA000 + i)
  done;
  for _round = 1 to 3 do
    for i = 0 to pages - 1 do
      let t = Runtime.translate rt (base + (i * Layout.page_size) + 16) in
      check int_c "value survives reclaim" (0xA000 + i)
        (Addr_space.read m.Harness.hyp t Width.W32)
    done
  done;
  check bool_c "reclaims happened" true (Runtime.window_reclaims rt > 0);
  check bool_c "window stays bounded" true
    (Runtime.window_pages_in_use rt <= window_pages);
  (* with observability off, a miss that reclaims allocates nothing (the
     last page is left out: its successor may need a poison device) *)
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  let reclaims = Runtime.window_reclaims rt in
  let before = Gc.minor_words () in
  for i = 0 to pages - 2 do
    ignore (Runtime.translate rt (base + (i * Layout.page_size)))
  done;
  let words = Gc.minor_words () -. before in
  if was_on then Td_obs.Control.enable ();
  check bool_c "every translation reclaimed" true
    (Runtime.window_reclaims rt - reclaims = pages - 1);
  check bool_c (Printf.sprintf "%.0f minor words < 100" words) true
    (words < 100.)

let test_soak_keeps_pinned_pages () =
  let m = Harness.make_machine () in
  let rt = small_window_runtime m ~window_pages:64 in
  let pinned = Addr_space.heap_alloc m.Harness.dom0 64 in
  Addr_space.write m.Harness.dom0 pinned Width.W32 0xBEEF;
  let mapped = Runtime.persistent_map rt pinned in
  let pages = 256 in
  let base = Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size) in
  for i = 0 to pages - 1 do
    ignore (Runtime.translate rt (base + (i * Layout.page_size)))
  done;
  check bool_c "soak reclaimed around the pin" true
    (Runtime.window_reclaims rt > 0);
  check int_c "pinned mapping unchanged" mapped (Runtime.translate rt pinned);
  check int_c "pinned data intact" 0xBEEF
    (Addr_space.read m.Harness.hyp mapped Width.W32)

let test_all_pinned_fails_loudly () =
  let m = Harness.make_machine () in
  let rt = small_window_runtime m ~window_pages:4 in
  (* two slots, both pinned: the next miss must fail with a clear error,
     not spin in the clock sweep *)
  let a = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  let b = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  ignore (Runtime.persistent_map rt a);
  ignore (Runtime.persistent_map rt b);
  let c = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  check bool_c "exhaustion raises" true
    (match Runtime.translate rt c with
    | exception Failure msg ->
        (* the message must name the pinning, not the old hard 16 MB cap *)
        String.length msg > 0
    | _ -> false)

(* A twin world pins its sk_buff pool in the map window at boot. A window
   the pool overflows or fills exactly is a typed configuration error,
   not a [Failure] on the first unpinned miss. A window with a pair to
   spare, and window_batch's smallest (512 pages, 96 entries), boot and
   still map an unpinned page. *)
let test_pool_must_fit_window () =
  let open Twindrivers in
  let create ~window ~entries =
    let tuning =
      { Config.default_tuning with Config.map_window_pages = window }
    in
    World.create ~nics:1 ~pool_entries:entries ~tuning Config.Xen_twin
  in
  let rejected ~window ~entries =
    match create ~window ~entries with
    | exception Invalid_argument msg ->
        Test_fault.contains ~sub:"map_window_pages" msg
        && Test_fault.contains ~sub:"pool_entries" msg
    | _ -> false
  in
  let maps_unpinned ~window ~entries =
    let w = create ~window ~entries in
    let rt = Option.get (World.svm w) in
    let va = Addr_space.heap_alloc (World.dom0_space w) Layout.page_size in
    ignore (Runtime.translate rt va);
    Runtime.slot_of_page rt va <> None
  in
  check bool_c "the default pool overflows 32 pages" true
    (rejected ~window:32 ~entries:1024);
  let pinned =
    Runtime.window_pages_in_use
      (Option.get
         (World.svm (create ~window:Layout.map_window_pages ~entries:8)))
  in
  check bool_c "a window the pool fills exactly" true
    (rejected ~window:pinned ~entries:8);
  check bool_c "one pair to spare" true
    (maps_unpinned ~window:(pinned + 2) ~entries:8);
  check bool_c "512 pages, 96 entries" true
    (maps_unpinned ~window:512 ~entries:96)

(* a mapped page whose dom0 successor does not exist must fault on a
   straddling access instead of silently reading a single-page mapping *)
let test_straddle_boundary_faults () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  (* one isolated page: the next dom0 page is unmapped *)
  let page = 0xC600_0000 in
  Addr_space.alloc_region m.Harness.dom0 ~vaddr:page ~pages:1;
  Addr_space.write m.Harness.dom0 (page + 0xFFC) Width.W32 0x11223344;
  let t = Runtime.translate rt (page + 0xFFC) in
  check int_c "last word of the page reads fine" 0x11223344
    (Addr_space.read m.Harness.hyp t Width.W32);
  check bool_c "straddling read faults" true
    (match Addr_space.read m.Harness.hyp (t + 2) Width.W32 with
    | exception Runtime.Fault _ -> true
    | _ -> false);
  check bool_c "straddling write faults" true
    (match Addr_space.write m.Harness.hyp (t + 2) Width.W32 0 with
    | exception Runtime.Fault _ -> true
    | _ -> false)

(* several frames arriving before one pump must all reach the consumer —
   the regression the rx queue fixes *)
let payload_tag i = Printf.sprintf "pkt-%02d-%s" i (String.make 56 'x')

let drain w =
  let rec go acc =
    match Twindrivers.World.rx_pop w with
    | None -> List.rev acc
    | Some p -> go (p :: acc)
  in
  go []

let test_multi_frame_pump cfg () =
  let open Twindrivers in
  let w = World.create ~nics:1 cfg in
  let n = 5 in
  for i = 0 to n - 1 do
    World.inject_rx w ~nic:0 ~payload:(payload_tag i)
  done;
  World.pump w;
  check int_c "all frames delivered" n (World.delivered_rx_frames w);
  check int_c "no queue drops" 0 (World.rx_drops w);
  let got = drain w in
  check int_c "all frames popped" n (List.length got);
  List.iteri
    (fun i p -> check Alcotest.string "payload in order" (payload_tag i) p)
    got

(* batching only changes when notifications fire, never the bytes: the
   received payload stream and the wire transmit stream must be identical
   between batch=1 and batch=8 *)
let run_traffic ~batch cfg =
  let open Twindrivers in
  let tuning = { Config.default_tuning with Config.notify_batch = batch } in
  let w = World.create ~nics:1 ~tuning cfg in
  for i = 0 to 10 do
    ignore (World.transmit w ~nic:0 ~payload:(payload_tag i));
    World.inject_rx w ~nic:0 ~payload:(payload_tag i);
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  (drain w, World.wire_tx_frames w, World.wire_tx_bytes w)

let test_batch_identical cfg () =
  let rx1, txf1, txb1 = run_traffic ~batch:1 cfg in
  let rx8, txf8, txb8 = run_traffic ~batch:8 cfg in
  check int_c "same wire frames" txf1 txf8;
  check int_c "same wire bytes" txb1 txb8;
  check (Alcotest.list Alcotest.string) "same rx payload stream" rx1 rx8

(* observability: reclaim, invalidation and the inline-probe hits are all
   visible as counters/trace events when enabled *)
let test_obs_counters () =
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      Td_obs.Metrics.reset_all ();
      Td_obs.Trace.clear ();
      let m = Harness.make_machine () in
      let rt = small_window_runtime m ~window_pages:64 in
      let va = Addr_space.heap_alloc m.Harness.dom0 64 in
      ignore (Runtime.translate rt va);
      Runtime.invalidate_page rt va;
      check bool_c "stlb.invalidate counted" true
        (Td_obs.Metrics.counter_value "stlb.invalidate" >= 1);
      check bool_c "stlb.invalidate traced" true
        (Td_obs.Trace.exists (function
          | Td_obs.Trace.Stlb_invalidate _ -> true
          | _ -> false));
      let pages = 256 in
      let base =
        Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size)
      in
      for i = 0 to pages - 1 do
        ignore (Runtime.translate rt (base + (i * Layout.page_size)))
      done;
      check bool_c "svm.window_reclaim counted" true
        (Td_obs.Metrics.counter_value "svm.window_reclaim" > 0);
      check bool_c "window_reclaim traced" true
        (Td_obs.Trace.exists (function
          | Td_obs.Trace.Window_reclaim _ -> true
          | _ -> false)))

(* the interpreter's probe sites credit inline fast-path hits, so a twin
   transmit run shows far more stlb.hit than the handful the host-side
   translate calls used to account for *)
let test_inline_hits_credited () =
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      let open Twindrivers in
      let w = World.create ~nics:1 Config.Xen_twin in
      World.reset_measurement w;
      let payload = String.make 1500 'x' in
      for i = 0 to 19 do
        ignore (World.transmit w ~nic:0 ~payload);
        if i mod 8 = 7 then World.pump w
      done;
      World.pump w;
      check bool_c "inline hits counted" true
        (Td_obs.Metrics.counter_value "stlb.hit" > 50))

(* --- probe sites: the default path against the block engine and a
   one-instruction-at-a-time watcher --- *)

let tx_cadence ?(nics = 1) w ~frames =
  let payload = String.make 1500 'x' in
  for i = 0 to frames - 1 do
    ignore (Twindrivers.World.transmit w ~nic:(i mod nics) ~payload);
    if i mod 8 = 7 then Twindrivers.World.pump w
  done;
  Twindrivers.World.pump w

(* never promote an entry: every block runs on the block engine *)
let never_compile w =
  Td_cpu.Interp.set_compile_threshold (Twindrivers.World.interp w) max_int

(* a one-instruction observer: every block is a single instruction *)
let observe_each_insn ?(f = fun _ _ -> ()) w =
  Td_cpu.Interp.observe_blocks (Twindrivers.World.interp w) (fun st prog idx ->
      f st prog.Program.code.(idx);
      idx)

(* the per-instruction watcher the probe table replaced, as the
   reference: it takes over the world's probe sites, watches one
   instruction at a time and credits each hit before the xor executes *)
let install_reference_watcher w =
  let interp = Twindrivers.World.interp w in
  let probes = Td_cpu.Interp.probes interp in
  Td_cpu.Interp.set_probes interp [];
  observe_each_insn w ~f:(fun st insn ->
      match insn with
      | Insn.Alu (Insn.Xor, Operand.Mem m, Operand.Reg r)
        when m.Operand.sym = None && m.Operand.base <> None -> (
          match List.assoc_opt m.Operand.disp probes with
          | Some on_hit -> on_hit (Td_cpu.State.get st r)
          | None -> ())
      | _ -> ())

let metrics_c = Alcotest.(list (pair string (float 0.)))
let ledger_c = Alcotest.(list (pair string int))

let ledger_rows w =
  List.map
    (fun (c, v) -> (Td_xen.Ledger.category_name c, v))
    (Td_xen.Ledger.snapshot (Twindrivers.World.ledger w))

(* stlb.hit — and every other metric and the ledger — is exactly what
   the old watcher counted, at the figs 5-8 transmit and receive
   cadences *)
let test_exact_hits_match_watcher () =
  let open Twindrivers in
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      let run ~reference dir =
        Td_obs.Metrics.reset_all ();
        Td_obs.Trace.clear ();
        let w = World.create ~nics:1 Config.Xen_twin in
        if reference then install_reference_watcher w;
        let r =
          if dir = "tx" then Measure.run_transmit ~packets:256 w
          else Measure.run_receive ~packets:256 w
        in
        (r.Measure.metrics, ledger_rows w)
      in
      List.iter
        (fun dir ->
          let m_fast, l_fast = run ~reference:false dir in
          let m_ref, l_ref = run ~reference:true dir in
          check bool_c (dir ^ ": inline hits counted") true
            (List.assoc "stlb.hit" m_fast > 1000.);
          check metrics_c (dir ^ ": metrics equal the watcher's") m_ref m_fast;
          check ledger_c (dir ^ ": ledger equals the watcher's") l_ref l_fast)
        [ "tx"; "rx" ])

(* a window smaller than the dom0 pages transmit touches (a small skb
   pool keeps the pinned pairs few) makes the clock reclaim fire. Which
   pair it evicts depends on every hit marking its pair referenced, so
   reclaims, ledger and wire traffic must match the block engine. *)
let test_reclaim_parity () =
  let open Twindrivers in
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      let run ~slow =
        Td_obs.Metrics.reset_all ();
        let tuning =
          { Config.default_tuning with Config.map_window_pages = 32 }
        in
        let w = World.create ~nics:2 ~pool_entries:8 ~tuning Config.Xen_twin in
        if slow then never_compile w;
        tx_cadence w ~nics:2 ~frames:256;
        ( Td_obs.Metrics.counter_value "svm.window_reclaim",
          ledger_rows w,
          (World.wire_tx_frames w, World.wire_tx_bytes w) )
      in
      let r_fast, l_fast, wire_fast = run ~slow:false in
      let r_slow, l_slow, wire_slow = run ~slow:true in
      check bool_c "the clock reclaimed" true (r_fast > 0);
      check int_c "same reclaims" r_slow r_fast;
      check ledger_c "same ledger" l_slow l_fast;
      check (Alcotest.pair int_c int_c) "same wire traffic" wire_slow wire_fast)

(* the default path is the fast path: a twin world runs compiled code,
   and so does one whose fault plan arms only a site outside the
   interpreter, with the ledger of the block engine; a plan arming
   [interp_bitflip] runs the block engine, which draws once per
   instruction exactly as a one-instruction observer's run does *)
let test_default_is_fast () =
  let open Twindrivers in
  let run ?plan ?(recovery = Config.Fail_stop) ?(slow = Fun.const ()) () =
    let tuning =
      { Config.default_tuning with Config.fault_plan = plan; recovery }
    in
    let w = World.create ~nics:1 ~tuning Config.Xen_twin in
    slow w;
    (* the plan is scoped around traffic, not around creation *)
    let hits0 = Td_cpu.Interp.compiled_hits (World.interp w) in
    tx_cadence w ~frames:256;
    ( Td_cpu.Interp.compiled_hits (World.interp w) - hits0,
      ledger_rows w,
      World.fault_injected w )
  in
  let hits, _, _ = run () in
  check bool_c "default world runs compiled" true (hits > 0);
  let lost_irq =
    { Td_fault.zero_plan with Td_fault.seed = 7; nic_lost_irq = 0.05 }
  in
  let hits, l_fast, inj_fast = run ~plan:lost_irq () in
  let _, l_slow, inj_slow = run ~plan:lost_irq ~slow:never_compile () in
  check bool_c "nic_lost_irq world runs compiled" true (hits > 0);
  check bool_c "interrupts were lost" true (inj_fast > 0);
  check int_c "same injections as the block engine" inj_slow inj_fast;
  check ledger_c "same ledger as the block engine" l_slow l_fast;
  let bitflip =
    { Td_fault.zero_plan with Td_fault.seed = 7; interp_bitflip = 1e-9 }
  in
  let hits, _, _ = run ~plan:bitflip () in
  check int_c "interp_bitflip world runs the block engine" 0 hits;
  (* a rate that flips bits and aborts the driver; recovery runs with
     injection suspended, so it may run compiled *)
  let bitflip = { bitflip with Td_fault.interp_bitflip = 2e-4 } in
  let recovery = Config.Restart_replay in
  let _, l_block, inj_block = run ~plan:bitflip ~recovery () in
  let _, l_each, inj_each =
    run ~plan:bitflip ~recovery ~slow:(fun w -> observe_each_insn w) ()
  in
  check bool_c "bits were flipped" true (inj_block > 0);
  check int_c "same injections as one-instruction blocks" inj_each inj_block;
  check ledger_c "same ledger as one-instruction blocks" l_each l_block

let suite =
  [
    Alcotest.test_case "soak: reclaim under pressure" `Quick test_soak_reclaim;
    Alcotest.test_case "soak: pinned pages survive" `Quick
      test_soak_keeps_pinned_pages;
    Alcotest.test_case "all-pinned window fails loudly" `Quick
      test_all_pinned_fails_loudly;
    Alcotest.test_case "pinned pool must fit the window" `Quick
      test_pool_must_fit_window;
    Alcotest.test_case "straddle at dom0 boundary faults" `Quick
      test_straddle_boundary_faults;
    Alcotest.test_case "multi-frame pump (Linux)" `Quick
      (test_multi_frame_pump Twindrivers.Config.Native_linux);
    Alcotest.test_case "multi-frame pump (domU-twin)" `Quick
      (test_multi_frame_pump Twindrivers.Config.Xen_twin);
    Alcotest.test_case "batch stream identical (domU)" `Quick
      (test_batch_identical Twindrivers.Config.Xen_domU);
    Alcotest.test_case "batch stream identical (domU-twin)" `Quick
      (test_batch_identical Twindrivers.Config.Xen_twin);
    Alcotest.test_case "reclaim/invalidate observability" `Quick
      test_obs_counters;
    Alcotest.test_case "inline stlb hits credited" `Quick
      test_inline_hits_credited;
    Alcotest.test_case "exact hits match the watcher" `Quick
      test_exact_hits_match_watcher;
    Alcotest.test_case "reclaim parity" `Quick test_reclaim_parity;
    Alcotest.test_case "default path is compiled" `Quick test_default_is_fast;
  ]
