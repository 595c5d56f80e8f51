(* Tests for the MISA interpreter: instruction semantics, calls, natives,
   cost accounting, timeouts. *)

open Td_misa
open Td_cpu

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* Run a routine built with [f] in a dom0 CPU; returns (EAX, state). *)
let run ?(args = []) ?(setup = fun _ -> ()) f =
  let m = Harness.make_machine () in
  let b = Builder.create "t" in
  Builder.label b "entry";
  f b m;
  let src = Builder.finish b in
  let symbols name = Native.address_of m.Harness.natives name in
  let prog =
    Program.assemble ~symbols:(fun n -> symbols n)
      ~base:Td_mem.Layout.vm_driver_code_base src
  in
  Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  setup st;
  let interp = Harness.interp_of m st in
  let r = Interp.call interp ~entry:(Program.addr_of_label prog "entry") ~args in
  (r, st, m)

let ret_of ?args ?setup f =
  let r, _, _ = run ?args ?setup f in
  r

let test_mov_imm () =
  check int_c "mov imm" 17
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 17) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_arith () =
  check int_c "add/sub chain" 30
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 50) (Builder.reg Reg.EAX);
         Builder.movl b (Builder.imm 25) (Builder.reg Reg.EBX);
         Builder.subl b (Builder.reg Reg.EBX) (Builder.reg Reg.EAX);
         Builder.addl b (Builder.imm 5) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_wraparound () =
  check int_c "32-bit wrap" 0
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 0xFFFFFFFF) (Builder.reg Reg.EAX);
         Builder.addl b (Builder.imm 1) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_logic_shifts () =
  check int_c "logic" 0xF0
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 0xFF) (Builder.reg Reg.EAX);
         Builder.andl b (Builder.imm 0xF0) (Builder.reg Reg.EAX);
         Builder.ret b));
  check int_c "shl" 40
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 5) (Builder.reg Reg.EAX);
         Builder.shll b (Builder.imm 3) (Builder.reg Reg.EAX);
         Builder.ret b));
  check int_c "shr" 5
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 40) (Builder.reg Reg.EAX);
         Builder.shrl b (Builder.imm 3) (Builder.reg Reg.EAX);
         Builder.ret b));
  check int_c "sar negative" 0xFFFFFFFF
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 0x80000000) (Builder.reg Reg.EAX);
         Builder.sarl b (Builder.imm 31) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_conditions_signed_unsigned () =
  (* -1 (unsigned 0xFFFFFFFF) vs 1: signed less, unsigned above *)
  let result jcc_cond =
    ret_of (fun b _ ->
        Builder.movl b (Builder.imm 0xFFFFFFFF) (Builder.reg Reg.EBX);
        Builder.cmpl b (Builder.imm 1) (Builder.reg Reg.EBX);
        Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
        Builder.jcc b jcc_cond "yes";
        Builder.ret b;
        Builder.label b "yes";
        Builder.movl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  check int_c "signed: -1 < 1" 1 (result Cond.L);
  check int_c "unsigned: 0xffffffff > 1" 1 (result Cond.A);
  check int_c "not equal" 1 (result Cond.NE);
  check int_c "not ge" 0 (result Cond.GE)

let test_loop_with_counter () =
  (* sum 1..10 via loop *)
  check int_c "loop sum" 55
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
         Builder.movl b (Builder.imm 10) (Builder.reg Reg.ECX);
         Builder.label b "loop";
         Builder.addl b (Builder.reg Reg.ECX) (Builder.reg Reg.EAX);
         Builder.decl b (Builder.reg Reg.ECX);
         Builder.jne b "loop";
         Builder.ret b))

let test_memory_ops () =
  let _, st, m =
    run (fun b m ->
        let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
        Builder.movl b (Builder.imm buf) (Builder.reg Reg.EBX);
        Builder.movl b (Builder.imm 0x1234) (Builder.mem ~base:Reg.EBX 8);
        Builder.movl b (Builder.mem ~base:Reg.EBX 8) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.imm 1) (Builder.mem ~base:Reg.EBX 8);
        Builder.ret b)
  in
  ignore m;
  check int_c "loaded" 0x1234 (State.get st Reg.EAX)

let test_narrow_widths () =
  let r =
    ret_of (fun b m ->
        let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
        Builder.movl b (Builder.imm buf) (Builder.reg Reg.EBX);
        Builder.movl b (Builder.imm 0xAABBCCDD) (Builder.mem ~base:Reg.EBX 0);
        Builder.movzxb b (Builder.mem ~base:Reg.EBX 1) Reg.EAX;
        Builder.ret b)
  in
  check int_c "movzx byte 1" 0xCC r

let test_partial_register_write () =
  check int_c "movb preserves upper bits" 0x12345678
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 0x123456FF) (Builder.reg Reg.EAX);
         Builder.movb b (Builder.imm 0x78) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_push_pop () =
  check int_c "push/pop transfers" 77
    (ret_of (fun b _ ->
         Builder.movl b (Builder.imm 77) (Builder.reg Reg.EBX);
         Builder.pushl b (Builder.reg Reg.EBX);
         Builder.popl b (Builder.reg Reg.EAX);
         Builder.ret b))

let test_call_ret_stack_args () =
  check int_c "function call with stack args" 12
    (ret_of (fun b _ ->
         (* entry: push 5; push 7; call add2; add esp, 8; ret *)
         Builder.pushl b (Builder.imm 5);
         Builder.pushl b (Builder.imm 7);
         Builder.call b "add2";
         Builder.addl b (Builder.imm 8) (Builder.reg Reg.ESP);
         Builder.ret b;
         Builder.label b "add2";
         Builder.movl b (Builder.mem ~base:Reg.ESP 4) (Builder.reg Reg.EAX);
         Builder.addl b (Builder.mem ~base:Reg.ESP 8) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_args_via_interp_call () =
  let r, _, _ =
    run
      ~args:[ 100; 23 ]
      (fun b _ ->
        Builder.movl b (Builder.mem ~base:Reg.ESP 4) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.mem ~base:Reg.ESP 8) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  check int_c "interp args" 123 r

let test_native_call () =
  check int_c "native doubles arg" 42
    (ret_of (fun b m ->
         ignore
           (Native.register m.Harness.natives "double" (fun st ->
                State.set st Reg.EAX (2 * State.stack_arg st 0)));
         Builder.pushl b (Builder.imm 21);
         Builder.call b "double";
         Builder.addl b (Builder.imm 4) (Builder.reg Reg.ESP);
         Builder.ret b))

let test_string_rep_movs () =
  let _, st, m =
    run (fun b m ->
        let src = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
        let dst = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
        Td_mem.Addr_space.write_block m.Harness.dom0 src (Bytes.of_string "hello, twin drivers!");
        Builder.movl b (Builder.imm src) (Builder.reg Reg.ESI);
        Builder.movl b (Builder.imm dst) (Builder.reg Reg.EDI);
        Builder.movl b (Builder.imm 20) (Builder.reg Reg.ECX);
        Builder.rep_movsb b;
        Builder.movl b (Builder.imm dst) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let dst = State.get st Reg.EAX in
  check bool_c "copied" true
    (Bytes.to_string (Td_mem.Addr_space.read_block m.Harness.dom0 dst 20)
    = "hello, twin drivers!");
  check int_c "ecx zero" 0 (State.get st Reg.ECX)

let test_pushf_popf () =
  check int_c "flags preserved" 1
    (ret_of (fun b _ ->
         (* set ZF via xor, save, clobber, restore *)
         Builder.xorl b (Builder.reg Reg.EBX) (Builder.reg Reg.EBX);
         Builder.ins b Insn.Pushf;
         Builder.cmpl b (Builder.imm 1) (Builder.reg Reg.EBX);
         Builder.ins b Insn.Popf;
         Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
         Builder.je b "z";
         Builder.ret b;
         Builder.label b "z";
         Builder.movl b (Builder.imm 1) (Builder.reg Reg.EAX);
         Builder.ret b))

let test_timeout () =
  let m = Harness.make_machine () in
  let b = Builder.create "spin" in
  Builder.label b "entry";
  Builder.label b "loop";
  Builder.jmp b "loop";
  let prog =
    Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)
  in
  Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  check bool_c "runaway driver times out" true
    (match
       Interp.call ~max_steps:1000 interp
         ~entry:(Program.addr_of_label prog "entry")
         ~args:[]
     with
    | exception Interp.Timeout _ -> true
    | _ -> false)

let test_fault_on_unmapped_code () =
  let m = Harness.make_machine () in
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  check bool_c "fault" true
    (match Interp.call interp ~entry:0x12345678 ~args:[] with
    | exception Interp.Fault _ -> true
    | _ -> false)

let test_cycles_accumulate () =
  let _, st, _ =
    run (fun b _ ->
        Builder.movl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  check bool_c "cycles counted" true (st.State.cycles > 0);
  check bool_c "steps counted" true (st.State.steps >= 3)

let test_tlb_flush_on_switch () =
  let m = Harness.make_machine () in
  let st = Harness.dom0_cpu m in
  let va = Td_mem.Addr_space.heap_alloc m.Harness.dom0 16 in
  ignore (State.read_mem st va Width.W32);
  ignore (Tlb.access st.State.tlb (Td_mem.Layout.page_of va));
  check bool_c "tlb warm" true (Tlb.access st.State.tlb (Td_mem.Layout.page_of va));
  State.switch_space st m.Harness.dom0;
  check bool_c "tlb cold after switch" false
    (Tlb.access st.State.tlb (Td_mem.Layout.page_of va))

(* pushf encoding: ZF=1, SF=2, CF=4, OF=8 *)
let flags_after f =
  ret_of (fun b m ->
      f b m;
      Builder.ins b Insn.Pushf;
      Builder.popl b (Builder.reg Reg.EAX);
      Builder.ret b)

let test_imul_overflow_flags () =
  let fl =
    flags_after (fun b _ ->
        Builder.movl b (Builder.imm 0x10000) (Builder.reg Reg.EBX);
        Builder.imull b (Builder.imm 0x10000) Reg.EBX)
  in
  check bool_c "cf set on signed overflow" true (fl land 4 <> 0);
  check bool_c "of set on signed overflow" true (fl land 8 <> 0);
  let fl =
    flags_after (fun b _ ->
        Builder.movl b (Builder.imm 1000) (Builder.reg Reg.EBX);
        Builder.imull b (Builder.imm 1000) Reg.EBX)
  in
  check bool_c "cf clear when product fits" false (fl land 4 <> 0);
  check bool_c "of clear when product fits" false (fl land 8 <> 0);
  (* -2 * 2^30 = -2^31: the most negative int32 still fits *)
  let fl =
    flags_after (fun b _ ->
        Builder.movl b (Builder.imm 0x40000000) (Builder.reg Reg.EBX);
        Builder.imull b (Builder.imm 0xFFFFFFFE) Reg.EBX)
  in
  check bool_c "min-int32 product fits" false (fl land (4 lor 8) <> 0)

let test_rep_consumes_call_budget () =
  (* a corrupted huge ECX must trip the per-call watchdog, not spin it *)
  let m = Harness.make_machine () in
  let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 8192 in
  let b = Builder.create "rep" in
  Builder.label b "entry";
  Builder.movl b (Builder.imm buf) (Builder.reg Reg.EDI);
  Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
  Builder.movl b (Builder.imm 10_000_000) (Builder.reg Reg.ECX);
  Builder.rep_stosl b;
  Builder.ret b;
  let prog =
    Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)
  in
  Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  check bool_c "huge rep ECX trips the timeout" true
    (match
       Interp.call ~max_steps:500 interp
         ~entry:(Program.addr_of_label prog "entry")
         ~args:[]
     with
    | exception Interp.Timeout _ -> true
    | _ -> false)

(* a driver jumping to a misaligned or out-of-range address must surface
   as [Interp.Fault] (so recovery policies apply), never as the
   [Invalid_argument] that [Program.index_of_addr] raises internally *)
let test_fault_on_bad_jump () =
  let faults ?hook target =
    let m = Harness.make_machine () in
    let b = Builder.create "mis" in
    Builder.label b "entry";
    Builder.jmp_ind b (Builder.imm target);
    let prog =
      Program.assemble ~base:Td_mem.Layout.vm_driver_code_base
        (Builder.finish b)
    in
    Code_registry.register m.Harness.registry prog;
    let st = Harness.dom0_cpu m in
    let interp = Harness.interp_of m st in
    Option.iter (Interp.add_hook interp) hook;
    match
      Interp.call interp
        ~entry:(Program.addr_of_label prog "entry")
        ~args:[]
    with
    | exception Interp.Fault _ -> true
    | exception Invalid_argument _ -> false
    | _ -> false
  in
  let misaligned = Td_mem.Layout.vm_driver_code_base + 2 in
  let out_of_range = Td_mem.Layout.vm_driver_code_base + 0x1000 in
  let hook _ _ = () in
  check bool_c "misaligned, fast path" true (faults misaligned);
  check bool_c "misaligned, per-step path" true (faults ~hook misaligned);
  check bool_c "out of range, fast path" true (faults out_of_range);
  check bool_c "out of range, per-step path" true (faults ~hook out_of_range)

let test_block_cache_invalidation_on_replace () =
  let m = Harness.make_machine () in
  let base = Td_mem.Layout.vm_driver_code_base in
  let image v =
    let b = Builder.create (Printf.sprintf "img%d" v) in
    Builder.label b "entry";
    Builder.movl b (Builder.imm v) (Builder.reg Reg.EAX);
    Builder.ret b;
    Program.assemble ~base (Builder.finish b)
  in
  let p1 = image 1 in
  Code_registry.register m.Harness.registry p1;
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  let entry = Program.addr_of_label p1 "entry" in
  check int_c "first image" 1 (Interp.call interp ~entry ~args:[]);
  Code_registry.replace m.Harness.registry (image 2);
  check int_c "replacement executes, not the cached block" 2
    (Interp.call interp ~entry ~args:[]);
  check bool_c "block cache was flushed" true (Interp.invalidations interp >= 1)

let test_engine_modes_identical_results () =
  let run_mode ?hook threshold =
    let m = Harness.make_machine () in
    let b = Builder.create "sum" in
    Builder.label b "entry";
    Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
    Builder.movl b (Builder.imm 10) (Builder.reg Reg.ECX);
    Builder.label b "loop";
    Builder.addl b (Builder.reg Reg.ECX) (Builder.reg Reg.EAX);
    Builder.decl b (Builder.reg Reg.ECX);
    Builder.jne b "loop";
    Builder.ret b;
    let prog =
      Program.assemble ~base:Td_mem.Layout.vm_driver_code_base
        (Builder.finish b)
    in
    Code_registry.register m.Harness.registry prog;
    let st = Harness.dom0_cpu m in
    let interp = Interp.create ?hook st m.Harness.registry m.Harness.natives in
    Interp.set_compile_threshold interp threshold;
    let r =
      Interp.call interp ~entry:(Program.addr_of_label prog "entry") ~args:[]
    in
    (r, st.State.cycles, st.State.steps)
  in
  (* a [max_int] threshold never promotes: the basic-block engine only *)
  let block = run_mode max_int in
  let hooked = run_mode ~hook:(fun _ _ -> ()) 1 in
  let compiled = run_mode 1 in
  check bool_c "per-step does not change simulated results" true
    (block = hooked);
  check bool_c "compiled does not change simulated results" true
    (block = compiled)

(* Regression: a block promoted to a compiled superblock in the same pump
   as a [Code_registry.replace] (the supervised-reload path) must never
   execute its stale closure — the generation check flushes the compiled
   cache together with the block cache before any compiled dispatch. *)
let test_compiled_invalidation_on_replace () =
  let m = Harness.make_machine () in
  let base = Td_mem.Layout.vm_driver_code_base in
  let image v =
    let b = Builder.create (Printf.sprintf "img%d" v) in
    Builder.label b "entry";
    Builder.movl b (Builder.imm v) (Builder.reg Reg.EAX);
    Builder.ret b;
    Program.assemble ~base (Builder.finish b)
  in
  let p1 = image 1 in
  Code_registry.register m.Harness.registry p1;
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  Interp.set_compile_threshold interp 1;
  let entry = Program.addr_of_label p1 "entry" in
  (* warm: count hot, promote, then dispatch the compiled closure *)
  for _ = 1 to 3 do
    check int_c "first image" 1 (Interp.call interp ~entry ~args:[])
  done;
  check bool_c "entry was promoted" true (Interp.compiled_blocks interp >= 1);
  check bool_c "compiled closure ran" true (Interp.compiled_hits interp >= 1);
  Code_registry.replace m.Harness.registry (image 2);
  check int_c "replacement executes, not the stale closure" 2
    (Interp.call interp ~entry ~args:[]);
  check bool_c "compiled cache was flushed" true
    (Interp.invalidations interp >= 1)

(* The in-block stlb-redundancy elimination must fire (two accesses
   through the same base register to the same page) and must not change
   the result or the simulated cycles vs the per-step engine. *)
let test_compiled_stlb_elision () =
  let run_mode ?hook () =
    let m = Harness.make_machine () in
    let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
    let b = Builder.create "mem" in
    Builder.label b "entry";
    Builder.movl b (Builder.imm buf) (Builder.reg Reg.EDX);
    Builder.movl b (Builder.imm 40) (Builder.mem ~base:Reg.EDX 0);
    Builder.movl b (Builder.imm 2) (Builder.mem ~base:Reg.EDX 4);
    Builder.movl b (Builder.mem ~base:Reg.EDX 0) (Builder.reg Reg.EAX);
    Builder.addl b (Builder.mem ~base:Reg.EDX 4) (Builder.reg Reg.EAX);
    Builder.ret b;
    let prog =
      Program.assemble ~base:Td_mem.Layout.vm_driver_code_base
        (Builder.finish b)
    in
    Code_registry.register m.Harness.registry prog;
    let st = Harness.dom0_cpu m in
    let interp = Harness.interp_of m st in
    Option.iter (Interp.add_hook interp) hook;
    Interp.set_compile_threshold interp 1;
    let entry = Program.addr_of_label prog "entry" in
    let r = ref 0 in
    for _ = 1 to 3 do
      r := Interp.call interp ~entry ~args:[]
    done;
    (!r, st.State.cycles, st.State.steps, Interp.stlb_elided interp)
  in
  let rc, cc, sc, elided = run_mode () in
  let rp, cp, sp, elided_ps = run_mode ~hook:(fun _ _ -> ()) () in
  check int_c "compiled result" 42 rc;
  check int_c "per-step result" 42 rp;
  check bool_c "cycles identical" true (cc = cp);
  check bool_c "steps identical" true (sc = sp);
  check bool_c "compiled run elided stlb translations" true (elided > 0);
  check int_c "per-step run elides nothing" 0 elided_ps

let suite =
  [
    Alcotest.test_case "mov imm" `Quick test_mov_imm;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "wraparound" `Quick test_wraparound;
    Alcotest.test_case "logic/shifts" `Quick test_logic_shifts;
    Alcotest.test_case "signed/unsigned conditions" `Quick
      test_conditions_signed_unsigned;
    Alcotest.test_case "loop" `Quick test_loop_with_counter;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "narrow widths" `Quick test_narrow_widths;
    Alcotest.test_case "partial register write" `Quick
      test_partial_register_write;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "call/ret stack args" `Quick test_call_ret_stack_args;
    Alcotest.test_case "interp call args" `Quick test_args_via_interp_call;
    Alcotest.test_case "native call" `Quick test_native_call;
    Alcotest.test_case "rep movs" `Quick test_string_rep_movs;
    Alcotest.test_case "pushf/popf" `Quick test_pushf_popf;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "fault unmapped code" `Quick test_fault_on_unmapped_code;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate;
    Alcotest.test_case "tlb flush on switch" `Quick test_tlb_flush_on_switch;
    Alcotest.test_case "imul overflow flags" `Quick test_imul_overflow_flags;
    Alcotest.test_case "rep consumes call budget" `Quick
      test_rep_consumes_call_budget;
    Alcotest.test_case "fault on bad jump" `Quick test_fault_on_bad_jump;
    Alcotest.test_case "block cache invalidation" `Quick
      test_block_cache_invalidation_on_replace;
    Alcotest.test_case "engine modes identical" `Quick
      test_engine_modes_identical_results;
    Alcotest.test_case "compiled cache invalidation" `Quick
      test_compiled_invalidation_on_replace;
    Alcotest.test_case "compiled stlb elision" `Quick
      test_compiled_stlb_elision;
  ]
