(* Fault-injection engine and driver-supervisor tests: deterministic
   seeded injection, zero-plan bit-identity, abort containment,
   shadow-state restoration, port states, typed guest faults. *)

open Twindrivers

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let payload = "fault soak frame " ^ String.make 600 'f'

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a world armed with [plan] from creation; [unplanned] masks its engine
   around the stretches of traffic that must run without injection *)
let planned_tuning ?(tuning = Config.default_tuning) plan =
  { tuning with Config.fault_plan = Some plan }

let unplanned w f = Td_fault.Engine.suspend (World.fault_engine w) f

(* --- engine: same plan, same stream --- *)

let test_engine_deterministic () =
  let sample seed =
    let e =
      Td_fault.Engine.make
        { (Td_fault.uniform_plan ~seed 0.3) with interp_bitflip = 0.3 }
    in
    List.init 200 (fun _ -> Td_fault.Engine.fire e Td_fault.Interp_bitflip)
  in
  let a = sample 7 and b = sample 7 in
  check bool_c "same seed, same injection sequence" true (a = b);
  check bool_c "some fired" true (List.mem true a);
  check bool_c "some did not" true (List.mem false a);
  let c = sample 8 in
  check bool_c "different seed, different sequence" true (a <> c)

let test_engine_counters () =
  let e = Td_fault.Engine.make (Td_fault.uniform_plan ~seed:3 1.0) in
  ignore (Td_fault.Engine.fire e Td_fault.Nic_corrupt_rx);
  ignore (Td_fault.Engine.fire e Td_fault.Upcall_fail);
  check int_c "two injections counted" 2 (Td_fault.Engine.injected e);
  check int_c "per-site count" 1
    (Td_fault.Engine.injected_at e Td_fault.Nic_corrupt_rx);
  Td_fault.Engine.suspend e (fun () ->
      check bool_c "suspended engine never fires" false
        (Td_fault.Engine.fire e Td_fault.Nic_corrupt_rx));
  Td_fault.Engine.note_lost e 3;
  check int_c "lost frames ledger" 3 (Td_fault.Engine.lost_frames e);
  Td_fault.Engine.reset_counters e;
  check int_c "counters reset" 0 (Td_fault.Engine.injected e)

(* --- zero plan: bit-identical to no plan at all --- *)

let run_workload w =
  for i = 0 to 39 do
    ignore (World.transmit w ~nic:(i mod 2) ~payload);
    World.inject_rx w ~nic:(i mod 2) ~payload;
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  World.tick w;
  ( List.map (fun c -> Td_xen.Ledger.total (World.ledger w) c)
      Td_xen.Ledger.categories,
    World.wire_tx_frames w,
    World.wire_tx_bytes w,
    World.delivered_rx_frames w,
    World.delivered_rx_bytes w )

let test_zero_plan_bit_identical () =
  let baseline = run_workload (World.create ~nics:2 Config.Xen_twin) in
  let zw =
    World.create ~nics:2 ~tuning:(planned_tuning Td_fault.zero_plan)
      Config.Xen_twin
  in
  let zeroed = run_workload zw in
  check bool_c "ledger and wire identical under zero plan" true
    (baseline = zeroed);
  check int_c "zero plan injected nothing" 0 (World.fault_injected zw)

(* --- SVM wild access: abort contained, hypervisor survives --- *)

let wild_only = { Td_fault.zero_plan with Td_fault.svm_wild_access = 1.0 }

let test_wild_access_contained () =
  let w =
    World.create ~nics:2 ~tuning:(planned_tuning wild_only) Config.Xen_twin
  in
  check bool_c "transmit aborts" true
    (match World.transmit w ~nic:0 ~payload with
    | exception World.Driver_aborted reason ->
        (* the injected wild access surfaces as an SVM fault *)
        contains ~sub:"fault" reason || contains ~sub:"injected" reason
    | _ -> false);
  (* fail-stop: the port has failed, with typed errors *)
  check bool_c "port failed" true
    (match World.port_state w ~nic:0 with
    | World.Failed _ -> true
    | World.Serving | World.Recovering -> false);
  check bool_c "read_stats raises typed error" true
    (match World.read_stats w ~nic:0 with
    | exception World.Nic_quarantined { nic = 0 } -> true
    | _ -> false);
  check bool_c "run_watchdog raises typed error" true
    (match World.run_watchdog w ~nic:0 with
    | exception World.Nic_quarantined { nic = 0 } -> true
    | _ -> false);
  (* containment: the hypervisor and the other NIC keep working *)
  unplanned w (fun () ->
      check bool_c "other NIC unaffected" true
        (World.transmit w ~nic:1 ~payload);
      World.pump w);
  check bool_c "frames still reach the wire" true (World.wire_tx_frames w >= 1)

(* --- recovery: shadow state restored after restart --- *)

let test_recovery_restores_shadow () =
  let tuning =
    planned_tuning
      ~tuning:{ Config.default_tuning with Config.recovery = Config.Restart }
      wild_only
  in
  let w = World.create ~nics:2 ~tuning Config.Xen_twin in
  unplanned w (fun () ->
      World.run_set_mtu w ~nic:0 ~mtu:1400;
      World.run_set_rx_mode w ~nic:0 ~promisc:true);
  check int_c "shadow captured mtu" 1400 (World.shadow_mtu w ~nic:0);
  check bool_c "shadow captured promisc" true (World.shadow_promisc w ~nic:0);
  (* scribble the netdev's mtu as a corrupted instance would, then force
     an abort so the supervisor restarts and repairs from shadow *)
  Td_kernel.Netdev.set_mtu (World.netdev w ~nic:0) 9999;
  check bool_c "restart absorbs the abort" false
    (World.transmit w ~nic:0 ~payload);
  check bool_c "a recovery ran" true (World.recoveries w >= 1);
  check bool_c "all NICs serviceable again" true (World.all_serviceable w);
  check int_c "netdev mtu restored from shadow" 1400
    (Td_kernel.Netdev.mtu (World.netdev w ~nic:0));
  check bool_c "promisc restored via the driver" true
    (World.shadow_promisc w ~nic:0);
  (* the restarted instance still moves packets *)
  unplanned w (fun () ->
      check bool_c "transmit works after recovery" true
        (World.transmit w ~nic:0 ~payload);
      World.pump w);
  check bool_c "frame delivered" true (World.wire_tx_frames w >= 1)

let test_replay_policy_delivers () =
  let tuning =
    planned_tuning
      ~tuning:
        { Config.default_tuning with Config.recovery = Config.Restart_replay }
      wild_only
  in
  let w = World.create ~nics:1 ~tuning Config.Xen_twin in
  (* the abort recovers and the frame is replayed on the fresh twin *)
  check bool_c "replayed transmit succeeds" true
    (World.transmit w ~nic:0 ~payload);
  unplanned w (fun () -> World.pump w);
  check int_c "replayed frame reached the wire" 1 (World.wire_tx_frames w);
  check bool_c "replay counted" true (World.replayed_frames w >= 1);
  check bool_c "recovery counted" true (World.recoveries w >= 1)

(* --- seeded world soak: reproducible end-to-end --- *)

let test_soak_reproducible () =
  let run () =
    let p =
      Experiments.recovery_soak ~frames:300 ~seed:11
        ~policy:Config.Restart_replay ~rate:0.01 ()
    in
    ( p.Experiments.delivered,
      p.Experiments.injected,
      p.Experiments.recoveries,
      p.Experiments.replayed,
      p.Experiments.lost )
  in
  let a = run () and b = run () in
  check bool_c "same seed, same soak outcome" true (a = b);
  let d, i, r, _, _ = a in
  check bool_c "faults were injected" true (i > 0);
  check bool_c "recoveries happened" true (r > 0);
  check bool_c "most frames delivered" true (d > 200)

let test_soak_availability () =
  let p =
    Experiments.recovery_soak ~frames:500 ~seed:5
      ~policy:Config.Restart_replay ~rate:0.004 ()
  in
  check bool_c "availability >= 99%" true (p.Experiments.availability >= 0.99);
  check bool_c "all NICs serviceable at end" true (p.Experiments.failed = []);
  check bool_c "recoveries > 0" true (p.Experiments.recoveries > 0)

(* A world shaped like [Experiments.recovery_soak]'s (which has five
   NICs): a demoted spin_trylock keeps the upcall site hot on every
   transmit. *)
let soak_world ~nics ~policy plan =
  let tuning =
    planned_tuning ~tuning:{ Config.default_tuning with Config.recovery = policy }
      plan
  in
  World.create ~nics ~upcall_set:[ "spin_trylock" ] ~tuning Config.Xen_twin

(* The soak's cadence: a transmit per frame, with [rx] a received frame
   and a pump every 16th, a tick every 2nd. Returns the transmits that
   aborted and those that were refused. *)
let drive w ~frames ~rx =
  let nics = World.nic_count w in
  let aborted = ref 0 and refused = ref 0 in
  let contained f =
    try f () with World.Driver_aborted _ | World.Nic_quarantined _ -> ()
  in
  for i = 0 to frames - 1 do
    (match World.transmit w ~nic:(i mod nics) ~payload with
    | (_ : bool) -> ()
    | exception World.Driver_aborted _ -> incr aborted
    | exception World.Nic_quarantined _ -> incr refused);
    if rx && i mod 16 = 15 then begin
      contained (fun () -> World.inject_rx w ~nic:(i mod nics) ~payload);
      contained (fun () -> World.pump w)
    end;
    if i mod 2 = 1 then contained (fun () -> World.tick w)
  done;
  (!aborted, !refused)

(* Recovery frees everything the dead instance owned, so repeated
   restarts cannot grow dom0's heap — except one thing only a register
   held: the receive sk_buff the hypervisor's interrupt handler has
   swapped out of its shadow ring but not yet passed to netif_rx when an
   abort hits it. Transmit-side aborts (failed upcalls from the demoted
   spin_trylock) therefore leave the heap exactly where boot left it; the
   full soak plan grows it by at most that one sk_buff per recovery. *)
let test_recovery_heap_bound () =
  let grown plan ~rx ~frames =
    let w = soak_world ~nics:5 ~policy:Config.Restart_replay plan in
    let km = World.kmem w in
    let boot = Td_kernel.Kmem.allocated_bytes km in
    ignore (drive w ~frames ~rx);
    check bool_c "every port serving" true (World.all_serviceable w);
    (Td_kernel.Kmem.allocated_bytes km - boot, World.recoveries w)
  in
  let upcalls = { Td_fault.zero_plan with Td_fault.seed = 1; upcall_fail = 0.05 } in
  let bytes, recoveries = grown upcalls ~rx:false ~frames:400 in
  check bool_c "transmit aborts recovered" true (recoveries > 5);
  check int_c "transmit-side recoveries leak nothing" 0 bytes;
  let bytes, recoveries =
    grown (Experiments.soak_plan ~seed:1 0.004) ~rx:true ~frames:1000
  in
  (* the receive buffer (rx_buf_bytes + 64 B) rounds up to a 4 KiB class *)
  let one_skb = Td_kernel.Skb.struct_bytes + 4096 in
  check bool_c
    (Printf.sprintf "%d B after %d recoveries: at most one sk_buff each" bytes
       recoveries)
    true
    (recoveries > 0 && bytes <= recoveries * one_skb)

(* A fail-stop soak never recovers: every offered frame either reached
   the wire, aborted in the driver, or was refused by a failed port, and
   there is no mean recovery time to report. *)
let test_fail_stop_soak_accounts_every_frame () =
  let p =
    Experiments.recovery_soak ~frames:2000 ~seed:42 ~policy:Config.Fail_stop
      ~rate:0.002 ()
  in
  check int_c "delivered" 346 p.Experiments.delivered;
  check int_c "aborted" 2 p.Experiments.aborted;
  check int_c "refused" 1652 p.Experiments.refused;
  check int_c "delivered + aborted + refused = offered" p.Experiments.offered
    (p.Experiments.delivered + p.Experiments.aborted + p.Experiments.refused);
  check int_c "no recoveries" 0 p.Experiments.recoveries;
  check bool_c "no frames-to-recover" true
    (p.Experiments.frames_to_recover = None)

(* Under either restart policy an abort costs one recovery, never the
   port: whatever the seed and rate, every port ends Serving, and every
   offered transmit reached the wire, was lost (dropped, or stranded in a
   reset ring), aborted or was refused — each exactly once. The plan arms
   every site but register bit flips: a flipped register can make the
   driver report a send it never made, or point the TX tail past stale
   descriptors that the reset then counts as stranded, and no supervisor
   sees either. *)
let restart_soak_prop =
  QCheck.Test.make ~name:"restart soaks end serving and balance their frames"
    ~count:1
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 10_000) (float_bound_inclusive 0.01))
       ~print:(fun (seed, rate) -> Printf.sprintf "seed %d, rate %g" seed rate))
    (fun (seed, rate) ->
      let plan = { (Experiments.soak_plan ~seed rate) with interp_bitflip = 0. } in
      List.for_all
        (fun policy ->
          (* two NICs: every recovery rebuilds every port, and this
             keeps a rate-0.01 draw to a few seconds *)
          let w = soak_world ~nics:2 ~policy plan in
          let offered = 2000 in
          let aborted, refused = drive w ~frames:offered ~rx:true in
          let delivered = World.wire_tx_frames w
          and tx_lost = World.tx_lost_frames w in
          if
            offered <> delivered + tx_lost + aborted + refused
            || not (World.all_serviceable w)
          then
            QCheck.Test.fail_reportf
              "%s: offered %d, delivered %d, tx lost %d, aborted %d, refused \
               %d, all serving %b"
              (Config.recovery_name policy)
              offered delivered tx_lost aborted refused
              (World.all_serviceable w);
          true)
        [ Config.Restart; Config.Restart_replay ])

(* --- execution faults are typed and recoverable --- *)

(* A corrupted function pointer sends the driver to a misaligned code
   address. That must surface as the typed [Interp.Fault] the supervisor
   contains as an abort — not the bare [Invalid_argument] that
   [Program.index_of_addr] raises internally — and the warm interpreter
   must go on running the same loaded image afterwards, as a recovered
   instance does. *)
let test_misaligned_jump_recovery_cycle () =
  let open Td_misa in
  let m = Harness.make_machine () in
  let base = Td_mem.Layout.vm_driver_code_base in
  let src =
    let b = Builder.create "drv" in
    Builder.label b "entry";
    Builder.jmp_ind b (Builder.imm (base + 2));
    Builder.label b "ok";
    Builder.movl b (Builder.imm 42) (Builder.reg Reg.EAX);
    Builder.ret b;
    Builder.finish b
  in
  let prog =
    Td_rewriter.Loader.load ~name:"drv" ~source:src ~base
      ~symbols:Td_rewriter.Loader.empty ~registry:m.Harness.registry
  in
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  let typed_fault () =
    match
      Td_cpu.Interp.call interp ~entry:(Program.addr_of_label prog "entry")
        ~args:[]
    with
    | exception Td_cpu.Interp.Fault _ -> true
    | exception Invalid_argument _ -> false
    | _ -> false
  in
  check bool_c "misaligned jump is a typed interpreter fault" true
    (typed_fault ());
  check int_c "the same image runs on after the fault" 42
    (Td_cpu.Interp.call interp ~entry:(Program.addr_of_label prog "ok")
       ~args:[]);
  check bool_c "and faults the same way again" true (typed_fault ())

(* Recovery keeps the images the world booted with: after a forced
   abort and restart, the registry still holds the boot program of the
   hypervisor instance (physically), and the warm interpreter's
   superblocks survive, so the next transmit compiles nothing and runs
   compiled. *)
let test_recovery_keeps_boot_image () =
  let tuning =
    planned_tuning
      ~tuning:{ Config.default_tuning with Config.recovery = Config.Restart }
      wild_only
  in
  let w = World.create ~nics:1 ~tuning Config.Xen_twin in
  let interp = World.interp w in
  let hyp_prog () =
    Td_cpu.Code_registry.find
      (Td_cpu.Interp.registry interp)
      Td_mem.Layout.hyp_driver_code_base
  in
  let boot = hyp_prog () in
  check bool_c "the hypervisor instance is registered" true (boot <> None);
  unplanned w (fun () ->
      for _ = 1 to 32 do
        ignore (World.transmit w ~nic:0 ~payload)
      done;
      World.pump w);
  (* the warm stlb serves every access inline: empty it, so the next
     access misses into the runtime, where the plan fires *)
  Option.iter Td_svm.Runtime.flush (World.svm w);
  check bool_c "restart absorbs the abort" false
    (World.transmit w ~nic:0 ~payload);
  check int_c "one recovery ran" 1 (World.recoveries w);
  check bool_c "the boot program is still registered" true
    (match (boot, hyp_prog ()) with
    | Some a, Some b -> a == b
    | _ -> false);
  let compiled = Td_cpu.Interp.compiled_blocks interp in
  let hits = Td_cpu.Interp.compiled_hits interp in
  unplanned w (fun () ->
      check bool_c "transmit works after recovery" true
        (World.transmit w ~nic:0 ~payload));
  check int_c "the next transmit compiles no superblock" compiled
    (Td_cpu.Interp.compiled_blocks interp);
  check bool_c "and runs compiled" true
    (Td_cpu.Interp.compiled_hits interp > hits)

(* --- typed guest faults --- *)

let bare_hypervisor () =
  let phys = Td_mem.Phys_mem.create () in
  let xen_space = Td_mem.Addr_space.create ~name:"xen" phys in
  let dom0_space = Td_mem.Addr_space.create ~name:"dom0" phys in
  let cpu = Td_cpu.State.create ~hyp_space:xen_space dom0_space in
  let h =
    Td_xen.Hypervisor.create
      ~ledger:(Td_xen.Ledger.create ())
      ~xen_space ~cpu ()
  in
  (h, dom0_space)

let test_guest_fault_bad_grant () =
  let h, space = bare_hypervisor () in
  let owner =
    Td_xen.Domain.create ~id:9 ~name:"g" ~kind:Td_xen.Domain.Guest ~space
  in
  let gt = Td_xen.Grant_table.create ~owner () in
  (* a bad grant reference is a typed fault — not a crash *)
  check bool_c "bad ref typed fault" true
    (match Td_xen.Grant_table.copy_from gt ~hyp:h 999 ~offset:0 ~len:1 with
    | exception Td_xen.Guest_fault.Fault { op = "Grant_table.copy_from"; _ } ->
        true
    | _ -> false);
  (* inside a driver invocation the supervisor contains it as an abort,
     and the world that contained it counts it: here a scribbled MMIO
     base makes the driver's next register write misaligned *)
  let tuning = { Config.default_tuning with Config.recovery = Config.Restart } in
  let w = World.create ~nics:1 ~tuning Config.Xen_dom0 in
  let other = World.create ~nics:1 Config.Xen_dom0 in
  let adapter = World.adapter w ~nic:0 in
  let mmio = Td_driver.Adapter.field adapter Td_driver.Adapter.o_mmio in
  Td_driver.Adapter.set_field adapter Td_driver.Adapter.o_mmio (mmio + 2);
  check bool_c "the frame is lost, not raised" false
    (World.transmit w ~nic:0 ~payload);
  check int_c "contained fault counted by its world" 1 (World.guest_faults w);
  check int_c "the other world counted none" 0 (World.guest_faults other);
  check int_c "and restarted the driver" 1 (World.recoveries w);
  check bool_c "the port recovered" true (World.all_serviceable w)

let test_no_domains_names_operation () =
  let h, space = bare_hypervisor () in
  let dom =
    Td_xen.Domain.create ~id:1 ~name:"d" ~kind:Td_xen.Domain.Guest ~space
  in
  (* dom was never added: the typed error must say which operation tripped *)
  check bool_c "error names the operation" true
    (match Td_xen.Hypervisor.run_in h dom (fun () -> ()) with
    | exception Td_xen.Hypervisor.No_domains { op } -> op = "run_in"
    | _ -> false)

(* --- per-world engines: boot rules and isolation --- *)

(* boot runs with the fault engine suspended: even a plan that fires at
   every opportunity draws nothing while the world is built *)
let test_boot_draws_nothing () =
  List.iter
    (fun cfg ->
      let w =
        World.create ~nics:2
          ~tuning:(planned_tuning (Td_fault.uniform_plan 1.0))
          cfg
      in
      check int_c
        (Config.name cfg ^ ": no injection at boot")
        0 (World.fault_injected w))
    [ Config.Xen_twin; Config.Xen_domU ]

(* ... but boot does charge the quota engine: four channels' grant
   pages exceed the default grant-entry cap *)
let test_boot_charges_quota () =
  let tuning =
    { Config.default_tuning with Config.quota = Some Td_xen.Quota.default_limits }
  in
  check bool_c "4-NIC domU boot exceeds grant entries" true
    (match World.create ~nics:4 ~tuning Config.Xen_domU with
    | exception Td_xen.Quota.Quota_exceeded { domain = "guest0"; resource } ->
        resource = Td_xen.Quota.resource_name Td_xen.Quota.Grant_entries
    | _ -> false)

let isolated_world ~seed ~notifications_per_s =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = Config.Restart_replay;
      quota =
        Some { Td_xen.Quota.default_limits with Td_xen.Quota.notifications_per_s };
      fault_plan =
        Some
          {
            Td_fault.zero_plan with
            Td_fault.seed;
            nic_lost_irq = 0.05;
            nic_corrupt_rx = 0.02;
          };
    }
  in
  World.create ~nics:1 ~tuning Config.Xen_domU

(* one frame of traffic: a transmit, and on every fourth frame a
   received frame and a pump *)
let isolation_frame w i =
  let payload = String.make 600 'i' in
  let contained f =
    try f () with World.Driver_aborted _ | World.Nic_quarantined _ -> ()
  in
  contained (fun () -> ignore (World.transmit w ~nic:0 ~payload));
  if i mod 4 = 3 then begin
    contained (fun () -> World.inject_rx w ~nic:0 ~payload);
    contained (fun () -> World.pump w)
  end

let engine_totals w =
  ( World.fault_injected w,
    World.quota_throttled w,
    Td_xen.Ledger.grand_total (World.ledger w) )

(* two worlds driven frame by frame on one OCaml domain give exactly
   what each gives alone: no fault stream, token bucket or counter is
   shared *)
let test_worlds_share_no_engine_state () =
  let frames = 2000 in
  let a_cfg = (5, 2_000.) and b_cfg = (9, 50_000.) in
  let make (seed, notifications_per_s) =
    isolated_world ~seed ~notifications_per_s
  in
  let alone cfg =
    let w = make cfg in
    for i = 0 to frames - 1 do
      isolation_frame w i
    done;
    engine_totals w
  in
  let a_alone = alone a_cfg and b_alone = alone b_cfg in
  let a = make a_cfg and b = make b_cfg in
  for i = 0 to frames - 1 do
    isolation_frame a i;
    isolation_frame b i
  done;
  let totals = Alcotest.(triple int int int) in
  check totals "A interleaved = A alone" a_alone (engine_totals a);
  check totals "B interleaved = B alone" b_alone (engine_totals b);
  (* the worlds really differ, so a shared engine would show *)
  let ai, at, _ = a_alone and bi, bt, _ = b_alone in
  check bool_c "both inject" true (ai > 0 && bi > 0);
  check bool_c "different throttling" true (at <> bt)

let suite =
  [
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine counters" `Quick test_engine_counters;
    Alcotest.test_case "zero plan bit-identical" `Quick
      test_zero_plan_bit_identical;
    Alcotest.test_case "wild access contained" `Quick
      test_wild_access_contained;
    Alcotest.test_case "recovery restores shadow" `Quick
      test_recovery_restores_shadow;
    Alcotest.test_case "replay delivers the frame" `Quick
      test_replay_policy_delivers;
    Alcotest.test_case "soak reproducible" `Quick test_soak_reproducible;
    Alcotest.test_case "soak availability" `Quick test_soak_availability;
    Alcotest.test_case "recovery keeps the boot image" `Quick
      test_recovery_keeps_boot_image;
    Alcotest.test_case "misaligned jump recovery cycle" `Quick
      test_misaligned_jump_recovery_cycle;
    Alcotest.test_case "guest fault: bad grant ref" `Quick
      test_guest_fault_bad_grant;
    Alcotest.test_case "no-domains error names op" `Quick
      test_no_domains_names_operation;
    Alcotest.test_case "boot draws no fault" `Quick test_boot_draws_nothing;
    Alcotest.test_case "boot charges the quota" `Quick test_boot_charges_quota;
    Alcotest.test_case "worlds share no engine state" `Quick
      test_worlds_share_no_engine_state;
    Alcotest.test_case "fail-stop soak accounts every frame" `Quick
      test_fail_stop_soak_accounts_every_frame;
    Alcotest.test_case "recovery heap growth is bounded" `Quick
      test_recovery_heap_bound;
    QCheck_alcotest.to_alcotest restart_soak_prop;
  ]
