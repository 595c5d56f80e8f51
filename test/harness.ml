(* Shared machine-construction helpers for the test suites. *)

open Td_misa
open Td_mem
open Td_cpu

type machine = {
  phys : Phys_mem.t;
  dom0 : Addr_space.t;
  hyp : Addr_space.t;
  registry : Code_registry.t;
  natives : Native.t;
}

let make_machine () =
  let phys = Phys_mem.create () in
  let dom0 = Addr_space.create ~name:"dom0" phys in
  let hyp = Addr_space.create ~name:"xen" phys in
  Addr_space.heap_init dom0 ~base:Layout.dom0_heap_base
    ~limit:Layout.dom0_heap_limit;
  (* hypervisor driver stack, with unmapped guard pages on either side *)
  Addr_space.alloc_region hyp
    ~vaddr:(Layout.hyp_stack_top - (Layout.hyp_stack_pages * Layout.page_size))
    ~pages:Layout.hyp_stack_pages;
  (* scratch slots for the rewriter *)
  Addr_space.alloc_region hyp ~vaddr:Layout.hyp_scratch_base ~pages:1;
  {
    phys;
    dom0;
    hyp;
    registry = Code_registry.create ();
    natives = Native.create ();
  }

(* dom0 kernel stack for running the VM instance *)
let dom0_stack m =
  let vaddr = Addr_space.heap_alloc m.dom0 (4 * Layout.page_size) in
  vaddr + (4 * Layout.page_size)

(* A CPU executing in dom0 context with the hypervisor overlay. *)
let dom0_cpu m =
  let st = State.create ~hyp_space:m.hyp m.dom0 in
  State.set st Reg.ESP (dom0_stack m);
  st

let interp_of m st = Interp.create st m.registry m.natives

(* Set up a hypervisor SVM runtime with its natives registered. *)
let hyp_runtime m =
  let rt = Td_svm.Runtime.create_hypervisor ~dom0:m.dom0 ~hyp:m.hyp () in
  Td_svm.Runtime.register_natives rt m.natives;
  rt

(* Identity runtime for the VM instance: stlb and scratch in dom0 heap. *)
let vm_runtime m =
  let stlb_vaddr = Addr_space.heap_alloc m.dom0 (4096 * 8) in
  let rt = Td_svm.Runtime.create_identity ~dom0:m.dom0 ~stlb_vaddr () in
  Td_svm.Runtime.register_natives rt m.natives;
  (rt, stlb_vaddr)

let hyp_symbols m rt =
  ignore m;
  Td_rewriter.Loader.svm_symbols ~runtime:rt ~natives:m.natives
    ~stlb_vaddr:Layout.stlb_base ~scratch_vaddr:Layout.hyp_scratch_base

let vm_symbols m rt stlb_vaddr scratch_vaddr =
  Td_rewriter.Loader.svm_symbols ~runtime:rt ~natives:m.natives ~stlb_vaddr
    ~scratch_vaddr

(* Run a routine in hypervisor context (own stack) from a guest space. *)
let hyp_cpu m ~guest =
  let st = State.create ~hyp_space:m.hyp guest in
  State.set st Reg.ESP Layout.hyp_stack_top;
  st

(* A row of the bound table (bench/gates) as an Alcotest check: a test
   that asserts a benchmark's bound calls the row instead of restating
   it. *)
let check_gate (o : Gates.outcome) =
  Alcotest.(check bool) (o.Gates.row ^ ": " ^ o.Gates.values) true o.Gates.ok

(* A fresh sk_buff in [space] holding [frame], by address. *)
let skb_of_string km space ?(size = 256) frame =
  let skb = Td_kernel.Skb.alloc_at km space ~size in
  Td_kernel.Skb.put_string_at space skb frame ~off:0 ~len:(String.length frame);
  skb
