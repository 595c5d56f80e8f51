(* End-to-end harness: derive a twin driver and run all three incarnations
   (original in dom0, rewritten VM instance in dom0, rewritten hypervisor
   instance from an arbitrary guest context) on identical initial state. *)

open Td_misa
open Td_mem
open Td_cpu

type incarnation = Original | Vm_identity | Hypervisor

type run_result = {
  eax : int;
  cycles : int;
  steps : int;
  buf : bytes;
  machine : Harness.machine;
  svm : Td_svm.Runtime.t option;
}

let buf_bytes = 2 * Layout.page_size

(* Build one machine, load the requested incarnation of [source] and
   initialise the buffer with [init]: the machine, the CPU the
   incarnation runs on, the loaded program, its SVM runtime and the
   buffer's address. *)
let load_incarnation ?cache_probes ?spill_everything ~source ~init which =
  let m = Harness.make_machine () in
  let buf = Addr_space.heap_alloc m.Harness.dom0 buf_bytes in
  Addr_space.write_block m.Harness.dom0 buf init;
  let data_syms name = if name = "buf" then Some buf else None in
  let st, prog, svm =
    match which with
    | Original ->
        let prog =
          Td_rewriter.Loader.load ~name:"drv" ~source
            ~base:Layout.vm_driver_code_base
            ~symbols:
              (Td_rewriter.Loader.overlay data_syms (fun n ->
                   Native.address_of m.Harness.natives n))
            ~registry:m.Harness.registry
        in
        (Harness.dom0_cpu m, prog, None)
    | Vm_identity ->
        let twin = Td_rewriter.Twin.derive ?cache_probes ?spill_everything source in
        let rt, stlb_vaddr = Harness.vm_runtime m in
        let scratch = Addr_space.heap_alloc m.Harness.dom0 64 in
        ignore
          (Native.register m.Harness.natives "__svm_call@vm" (fun st ->
               State.set st Reg.EAX (State.stack_arg st 0)));
        let syms =
          Td_rewriter.Loader.overlay data_syms
            (Td_rewriter.Loader.overlay
               (Harness.vm_symbols m rt stlb_vaddr scratch)
               (fun n ->
                 if n = Td_rewriter.Symbols.svm_call then
                   Native.address_of m.Harness.natives "__svm_call@vm"
                 else Native.address_of m.Harness.natives n))
        in
        let prog =
          Td_rewriter.Loader.load ~name:"drv.vm"
            ~source:twin.Td_rewriter.Twin.rewritten
            ~base:Layout.vm_driver_code_base ~symbols:syms
            ~registry:m.Harness.registry
        in
        (Harness.dom0_cpu m, prog, Some rt)
    | Hypervisor ->
        let twin = Td_rewriter.Twin.derive ?cache_probes ?spill_everything source in
        let rt = Harness.hyp_runtime m in
        let ct =
          Td_svm.Call_table.create ~vm_code_base:Layout.vm_driver_code_base
            ~vm_code_size:(4 * Program.instruction_count twin.Td_rewriter.Twin.rewritten)
            ~resolver:(fun _ -> None)
        in
        Td_svm.Call_table.register_native ct m.Harness.natives "__svm_call@hyp";
        let syms =
          Td_rewriter.Loader.overlay data_syms
            (Td_rewriter.Loader.overlay
               (Harness.hyp_symbols m rt)
               (fun n ->
                 if n = Td_rewriter.Symbols.svm_call then
                   Native.address_of m.Harness.natives "__svm_call@hyp"
                 else Native.address_of m.Harness.natives n))
        in
        let prog =
          Td_rewriter.Loader.load ~name:"drv.hyp"
            ~source:twin.Td_rewriter.Twin.rewritten
            ~base:Layout.hyp_driver_code_base ~symbols:syms
            ~registry:m.Harness.registry
        in
        (* run from a guest context: an address space with nothing of dom0
           mapped — every data access must go through SVM *)
        let guest = Addr_space.create ~name:"guest" m.Harness.phys in
        (Harness.hyp_cpu m ~guest, prog, Some rt)
  in
  (m, st, prog, svm, buf)

(* Load the requested incarnation of [source], set registers with
   [regs st buf_addr], execute [entry] and return observable state. *)
let run_incarnation ?(max_steps = 2_000_000) ?cache_probes ?spill_everything
    ?(post_load = fun _ _ ~buf:_ -> ()) ~source ~init ~regs ~entry which =
  let m, st, prog, svm, buf =
    load_incarnation ?cache_probes ?spill_everything ~source ~init which
  in
  post_load m prog ~buf;
  regs st buf;
  let interp = Harness.interp_of m st in
  let eax =
    Interp.call ~max_steps interp ~entry:(Program.addr_of_label prog entry)
      ~args:[]
  in
  {
    eax;
    cycles = st.State.cycles;
    steps = st.State.steps;
    buf = Addr_space.read_block m.Harness.dom0 buf buf_bytes;
    machine = m;
    svm;
  }

let run_all ?max_steps ?cache_probes ?post_load ~source ~init ~regs ~entry ()
    =
  ( run_incarnation ?max_steps ?cache_probes ?post_load ~source ~init ~regs
      ~entry Original,
    run_incarnation ?max_steps ?cache_probes ?post_load ~source ~init ~regs
      ~entry Vm_identity,
    run_incarnation ?max_steps ?cache_probes ?post_load ~source ~init ~regs
      ~entry Hypervisor )

(* VM-instance code address of a label, regardless of where the program was
   loaded: stored function pointers always hold VM addresses (shared data,
   single instance). *)
let vm_address_of_label prog label =
  Program.addr_of_label prog label - prog.Program.base
  + Layout.vm_driver_code_base

let equivalent (a : run_result) (b : run_result) =
  a.eax = b.eax && Bytes.equal a.buf b.buf

(* Everything one call leaves observable: the result or the exception and
   where it was raised, every register, the flags, the simulated cycles
   and steps, the TLB and cache counters and the buffer. *)
type call_snapshot = {
  outcome : string;
  regs : int list;
  flags : bool * bool * bool * bool;
  sim : int * int;
  models : int * int * int * int;
  data : bytes;
}

(* Run [entry] of one incarnation [calls] times on the interpreter with
   compile threshold [threshold] (1: compiled from the third call on;
   [max_int]: the block engine only), calling [between i rt st] before
   call [i] (from 0) to disturb the SVM runtime or the machine.
   [on_probe], when given, is registered as the inline probe's hit
   callback (the xor word of the incarnation's stlb). *)
let run_hot ?spill_everything ?on_probe ~threshold ~calls ~between ~source
    ~init ~regs ~entry which =
  let m, st, prog, svm, buf =
    load_incarnation ?spill_everything ~source ~init which
  in
  regs st buf;
  let interp = Harness.interp_of m st in
  Interp.set_compile_threshold interp threshold;
  (match (on_probe, svm) with
  | Some f, Some rt ->
      Interp.set_probes interp
        [ (Td_svm.Stlb.vaddr (Td_svm.Runtime.stlb rt) + 4, f) ]
  | _ -> ());
  let entry = Program.addr_of_label prog entry in
  let snap = ref [] in
  for i = 0 to calls - 1 do
    between i svm st;
    let outcome =
      match Interp.call interp ~entry ~args:[] with
      | v -> Printf.sprintf "ok %#x" v
      | exception e ->
          Printf.sprintf "%s at %#x" (Printexc.to_string e) st.State.pc
    in
    snap :=
      {
        outcome;
        regs = List.map (State.get st) (Reg.ESP :: Reg.general);
        flags = (st.State.zf, st.State.sf, st.State.cf, st.State.ovf);
        sim = (st.State.cycles, st.State.steps);
        models =
          ( Tlb.hits st.State.tlb,
            Tlb.misses st.State.tlb,
            Cache.hits st.State.cache,
            Cache.misses st.State.cache );
        data = Addr_space.read_block m.Harness.dom0 buf buf_bytes;
      }
      :: !snap
  done;
  (List.rev !snap, interp)
