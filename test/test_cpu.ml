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

(* [Interp.call] gives each call its own budget and hands the caller's
   back on every exit: normal return, a timeout, a fault, and a native
   that re-enters the interpreter (an upcall). *)
let test_call_restores_fuel () =
  let m = Harness.make_machine () in
  let st = Harness.dom0_cpu m in
  let interp_ref = ref None in
  let interp () = Option.get !interp_ref in
  let b = Builder.create "t" in
  Builder.label b "spin";
  Builder.jmp b "spin";
  Builder.label b "seven";
  Builder.movl b (Builder.imm 7) (Builder.reg Reg.EAX);
  Builder.ret b;
  Builder.label b "upcall";
  Builder.call b "reenter";
  Builder.ret b;
  let prog = ref None in
  let addr l = Program.addr_of_label (Option.get !prog) l in
  (* inside the native, the outer call's budget must survive each nested
     call whatever way that call ends *)
  let inner_ok = ref [] in
  ignore
    (Native.register m.Harness.natives "reenter" (fun st ->
         let fuel = st.State.fuel and cap = st.State.fuel_cap in
         let same () = st.State.fuel = fuel && st.State.fuel_cap = cap in
         let r = Interp.call ~max_steps:50 (interp ()) ~entry:(addr "seven") ~args:[] in
         inner_ok := (r = 7 && same ()) :: !inner_ok;
         (match Interp.call ~max_steps:20 (interp ()) ~entry:(addr "spin") ~args:[] with
         | exception Interp.Timeout _ -> inner_ok := same () :: !inner_ok
         | _ -> inner_ok := false :: !inner_ok);
         (match Interp.call (interp ()) ~entry:0x12345678 ~args:[] with
         | exception Interp.Fault _ -> inner_ok := same () :: !inner_ok
         | _ -> inner_ok := false :: !inner_ok);
         State.set st Reg.EAX r));
  let symbols name = Native.address_of m.Harness.natives name in
  prog :=
    Some
      (Program.assemble ~symbols ~base:Td_mem.Layout.vm_driver_code_base
         (Builder.finish b));
  Code_registry.register m.Harness.registry (Option.get !prog);
  interp_ref := Some (Harness.interp_of m st);
  st.State.fuel <- 4242;
  st.State.fuel_cap <- 9999;
  let restored what =
    check int_c (what ^ ": fuel") 4242 st.State.fuel;
    check int_c (what ^ ": fuel_cap") 9999 st.State.fuel_cap
  in
  check bool_c "timeout raised" true
    (match Interp.call ~max_steps:100 (interp ()) ~entry:(addr "spin") ~args:[] with
    | exception Interp.Timeout 100 -> true
    | _ -> false);
  restored "after a timeout";
  check bool_c "fault raised" true
    (match Interp.call (interp ()) ~entry:0x12345678 ~args:[] with
    | exception Interp.Fault _ -> true
    | _ -> false);
  restored "after a fault";
  check int_c "upcall result" 7
    (Interp.call ~max_steps:1000 (interp ()) ~entry:(addr "upcall") ~args:[]);
  check (Alcotest.list bool_c) "outer budget kept across nested calls"
    [ true; true; true ] !inner_ok;
  restored "after a re-entrant native"

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
  let faults ?(observed = false) target =
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
    if observed then Interp.observe_blocks interp (fun _ _ idx -> idx);
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
  check bool_c "misaligned, fast path" true (faults misaligned);
  check bool_c "misaligned, one-instruction blocks" true
    (faults ~observed:true misaligned);
  check bool_c "out of range, fast path" true (faults out_of_range);
  check bool_c "out of range, one-instruction blocks" true
    (faults ~observed:true out_of_range)

let test_engine_modes_identical_results () =
  let run_mode threshold =
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
    let entry = Program.addr_of_label prog "entry" in
    let r =
      match threshold with
      | None ->
          Ref_interp.call ~natives:m.Harness.natives m.Harness.registry st
            ~entry ~args:[]
      | Some n ->
          let interp = Harness.interp_of m st in
          Interp.set_compile_threshold interp n;
          Interp.call interp ~entry ~args:[]
    in
    (r, st.State.cycles, st.State.steps)
  in
  let reference = run_mode None in
  (* a [max_int] threshold never promotes: the basic-block engine only *)
  let block = run_mode (Some max_int) in
  let compiled = run_mode (Some 1) in
  check bool_c "block engine matches the reference" true (block = reference);
  check bool_c "compiled does not change simulated results" true
    (reference = compiled)

(* Every memory operand of a compiled superblock has its own translation
   memo, and it outlives the run: the first compiled run walks the page
   table once per site, a second run walks nothing, a remap to the same
   frame between runs walks nothing either (the memo holds the vpage and
   the frame, not the entry's identity), and a remap to another frame
   costs exactly one walk at the one site on the remapped page. The
   results, cycles and steps stay the block engine's. Four sites touch a
   buffer page (through a base register, or through absolute operands),
   the fifth a second page, which is remapped to its own frame and then
   to a fresh (zero) frame. *)
let test_compiled_stlb_elision () =
  let run_mode ~abs threshold =
    let m = Harness.make_machine () in
    let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
    let other = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
    let at k = if abs then Builder.mem (buf + k) else Builder.mem ~base:Reg.EDX k in
    let b = Builder.create "mem" in
    Builder.label b "entry";
    Builder.movl b (Builder.imm buf) (Builder.reg Reg.EDX);
    Builder.movl b (Builder.imm 40) (at 0);
    Builder.movl b (Builder.imm 2) (at 4);
    Builder.movl b (at 0) (Builder.reg Reg.EAX);
    Builder.addl b (at 4) (Builder.reg Reg.EAX);
    Builder.addl b (Builder.mem other) (Builder.reg Reg.EAX);
    Builder.ret b;
    let prog =
      Program.assemble ~base:Td_mem.Layout.vm_driver_code_base
        (Builder.finish b)
    in
    Code_registry.register m.Harness.registry prog;
    let st = Harness.dom0_cpu m in
    let interp = Harness.interp_of m st in
    Interp.set_compile_threshold interp threshold;
    let entry = Program.addr_of_label prog "entry" in
    (* per call: result, cycles, steps, walks and elided accesses *)
    let call () =
      let w0 = Interp.page_walks interp and e0 = Interp.stlb_elided interp in
      let r = Interp.call interp ~entry ~args:[] in
      ( r,
        st.State.cycles,
        st.State.steps,
        Interp.page_walks interp - w0,
        Interp.stlb_elided interp - e0 )
    in
    let warm = List.init 4 (fun _ -> call ()) in
    let vpage = Td_mem.Layout.page_of other in
    (match Td_mem.Addr_space.frame_of_vpage m.Harness.dom0 ~vpage with
    | Some f -> Td_mem.Addr_space.map m.Harness.dom0 ~vpage f
    | None -> assert false);
    let same = call () in
    Td_mem.Addr_space.map m.Harness.dom0 ~vpage
      (Td_mem.Phys_mem.alloc_frame (Td_mem.Addr_space.phys m.Harness.dom0));
    warm @ [ same; call () ]
  in
  List.iter
    (fun abs ->
      let what = if abs then "absolute: " else "base register: " in
      let compiled = run_mode ~abs 1 and block = run_mode ~abs max_int in
      let sim = List.map (fun (r, c, s, _, _) -> (r, c, s)) in
      let memo = List.map (fun (_, _, _, w, e) -> (w, e)) in
      List.iter
        (fun (r, _, _) -> check int_c (what ^ "result") 42 r)
        (sim compiled);
      check bool_c (what ^ "cycles and steps identical") true
        (sim compiled = sim block);
      (* calls 1-2 run on the block engine while the entry is promoted;
         call 3 is the first compiled run *)
      check
        (Alcotest.list (Alcotest.pair int_c int_c))
        (what ^ "walks and elisions per call")
        [ (0, 0); (0, 0); (5, 0); (0, 5); (0, 5); (1, 4) ]
        (memo compiled);
      check bool_c (what ^ "block engine neither walks nor elides") true
        (List.for_all (fun we -> we = (0, 0)) (memo block)))
    [ false; true ]

(* A page-straddling access splits across both pages on every engine,
   and a straddling store whose second page is unmapped faults before
   touching the first, charged identically by both engines and the
   one-instruction-at-a-time reference. *)
let test_straddling_access () =
  let run_mode ~reference =
    let m = Harness.make_machine () in
    (* two lone pages: the third is unmapped *)
    let buf = 0xC080_0000 in
    Td_mem.Addr_space.alloc_region m.Harness.dom0 ~vaddr:buf ~pages:2;
    let edge = buf + (2 * Td_mem.Layout.page_size) - 2 in
    let b = Builder.create "straddle" in
    Builder.label b "entry";
    Builder.movl b (Builder.imm buf) (Builder.reg Reg.EBP);
    Builder.movl b (Builder.imm 0x11223344)
      (Builder.mem ~base:Reg.EBP (Td_mem.Layout.page_size - 2));
    Builder.movl b (Builder.mem ~base:Reg.EBP (Td_mem.Layout.page_size - 2))
      (Builder.reg Reg.EAX);
    Builder.movl b (Builder.imm 0x5566) (Builder.mem (edge - 2));
    Builder.movl b (Builder.reg Reg.EAX) (Builder.mem edge);
    Builder.ret b;
    let prog =
      Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)
    in
    Code_registry.register m.Harness.registry prog;
    let st = Harness.dom0_cpu m in
    let interp = Harness.interp_of m st in
    Interp.set_compile_threshold interp 1;
    let entry = Program.addr_of_label prog "entry" in
    let call () =
      if reference then
        Ref_interp.call ~natives:m.Harness.natives m.Harness.registry st ~entry
          ~args:[]
      else Interp.call interp ~entry ~args:[]
    in
    let faults =
      List.init 3 (fun _ ->
          match call () with
          | _ -> "none"
          | exception Td_mem.Addr_space.Page_fault { addr; _ } ->
              Printf.sprintf "%#x" (addr - buf))
    in
    ( faults,
      State.get st Reg.EAX,
      Semantics.load st (edge - 2) Width.W32 land 0xFFFF,
      st.State.cycles,
      st.State.steps )
  in
  let ((faults, eax, tail, _, _) as compiled) = run_mode ~reference:false in
  check bool_c "faults at the unmapped page" true
    (faults = List.init 3 (fun _ -> "0x2000"));
  check int_c "straddling load" 0x11223344 eax;
  check int_c "first page untouched" 0x5566 tail;
  check bool_c "reference identical" true (run_mode ~reference:true = compiled)

(* --- allocation guards: the memory-access path allocates nothing --- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_words name words =
  check bool_c (Printf.sprintf "%s: %.0f minor words < 100" name words) true
    (words < 100.)

(* A compiled loop of 10k iterations with register-based and absolute
   memory operands. *)
let test_compiled_trace_allocates_nothing () =
  let m = Harness.make_machine () in
  let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
  let scratch = Td_mem.Layout.hyp_scratch_base in
  let b = Builder.create "loop" in
  Builder.(
    label b "entry";
    movl b (imm 10_000) (reg Reg.ECX);
    movl b (imm 0) (reg Reg.EAX);
    movl b (imm buf) (reg Reg.EBP);
    label b "loop";
    movl b (reg Reg.ECX) (mem ~base:Reg.EBP 0);
    addl b (mem ~base:Reg.EBP 0) (reg Reg.EAX);
    movl b (reg Reg.EAX) (mem (scratch + 8));
    addl b (mem (scratch + 8)) (reg Reg.EDX);
    movl b (reg Reg.EDX) (mem (buf + 4));
    decl b (reg Reg.ECX);
    jne b "loop";
    ret b);
  let prog =
    Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)
  in
  Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  let entry = Program.addr_of_label prog "entry" in
  let call () = ignore (Interp.call ~max_steps:max_int interp ~entry ~args:[]) in
  call ();
  let hits = Interp.compiled_hits interp in
  let words = minor_words call in
  check bool_c "ran compiled" true (Interp.compiled_hits interp - hits >= 9_000);
  check_words "compiled trace" words

let test_semantics_access_allocates_nothing () =
  let m = Harness.make_machine () in
  let st = Harness.dom0_cpu m in
  let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 Td_mem.Layout.page_size in
  let scratch = Td_mem.Layout.hyp_scratch_base in
  let sum = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 0 to 9_999 do
          let a = (if i land 1 = 0 then buf else scratch) + ((i * 4) land 0xFFC) in
          Semantics.store st a Width.W32 i;
          sum := !sum + Semantics.load st a Width.W32
        done)
  in
  check int_c "loads saw the stores" (9_999 * 10_000 / 2) !sum;
  check_words "Semantics.load/store" words

let test_tlb_access_allocates_nothing () =
  let tlb = Tlb.create () in
  let hits = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 0 to 9_999 do
          (* 256 pages: every set fills once, then hits *)
          if Tlb.access tlb ((i * 7) land 0xFF) then incr hits
        done)
  in
  check int_c "hits counted" (Tlb.hits tlb) !hits;
  check bool_c "hits and misses" true (!hits > 0 && Tlb.misses tlb > 0);
  check_words "Tlb.access" words

let test_native_dispatch_allocates_nothing () =
  let m = Harness.make_machine () in
  let calls = ref 0 in
  let a = Native.register m.Harness.natives "count" (fun _ -> incr calls) in
  let st = Harness.dom0_cpu m in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          Semantics.do_call ~natives:m.Harness.natives st a
        done)
  in
  check int_c "every call ran" 10_000 !calls;
  check_words "native dispatch" words

(* --- native registry --- *)

let test_native_dispatch_faults () =
  let m = Harness.make_machine () in
  let natives = m.Harness.natives in
  let a = Native.register natives "a" (fun _ -> ()) in
  let _b = Native.register natives "b" (fun _ -> ()) in
  let st = Harness.dom0_cpu m in
  let faults addr =
    match Semantics.do_call ~natives st addr with
    | () -> false
    | exception Semantics.Fault msg ->
        String.starts_with ~prefix:"call to unregistered native" msg
  in
  List.iter
    (fun (what, addr) ->
      check bool_c (what ^ " faults") true (faults addr);
      check bool_c (what ^ " has no name") true
        (Native.name_of natives addr = None))
    [
      ("misaligned", a + 4);
      ("unregistered", a + 32);
      ("past the end", a + (16 * 100_000));
      ("top of the space", 0xFFFF_FFE0);
    ];
  check bool_c "registered call runs" true
    (match Semantics.do_call ~natives st a with () -> true)

let test_native_reregister_keeps_address () =
  let natives = Native.create () in
  let hit = ref "" in
  let x = Native.register natives "x" (fun _ -> hit := "old") in
  let y = Native.register natives "y" (fun _ -> ()) in
  let x' = Native.register natives "x" (fun _ -> hit := "new") in
  check int_c "same address" x x';
  check bool_c "distinct addresses" true (x <> y);
  check int_c "count unchanged" 2 (Native.count natives);
  check bool_c "name" true (Native.name_of natives x = Some "x");
  check bool_c "address_of" true (Native.address_of natives "x" = Some x);
  (Option.get (Native.lookup natives x))
    (State.create
       (Td_mem.Addr_space.create ~name:"s" (Td_mem.Phys_mem.create ~frames:4 ())));
  check Alcotest.string "new implementation" "new" !hit

(* More routines than the registry's initial array holds. *)
let test_native_registry_grows () =
  let natives = Native.create () in
  let addrs =
    List.init 200 (fun i ->
        Native.register natives (Printf.sprintf "n%d" i) (fun _ -> ()))
  in
  List.iteri
    (fun i addr ->
      check int_c "dense addresses" (Td_mem.Layout.native_base + (16 * i)) addr;
      check bool_c "name_of" true
        (Native.name_of natives addr = Some (Printf.sprintf "n%d" i)))
    addrs;
  check bool_c "lookup past the end" true
    (Native.lookup natives (Td_mem.Layout.native_base + (16 * 200)) = None)

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
    Alcotest.test_case "call restores the caller's fuel" `Quick
      test_call_restores_fuel;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate;
    Alcotest.test_case "tlb flush on switch" `Quick test_tlb_flush_on_switch;
    Alcotest.test_case "imul overflow flags" `Quick test_imul_overflow_flags;
    Alcotest.test_case "rep consumes call budget" `Quick
      test_rep_consumes_call_budget;
    Alcotest.test_case "fault on bad jump" `Quick test_fault_on_bad_jump;
    Alcotest.test_case "engine modes identical" `Quick
      test_engine_modes_identical_results;
    Alcotest.test_case "compiled stlb elision" `Quick
      test_compiled_stlb_elision;
    Alcotest.test_case "straddling access" `Quick test_straddling_access;
    Alcotest.test_case "compiled trace allocates nothing" `Quick
      test_compiled_trace_allocates_nothing;
    Alcotest.test_case "semantics access allocates nothing" `Quick
      test_semantics_access_allocates_nothing;
    Alcotest.test_case "tlb access allocates nothing" `Quick
      test_tlb_access_allocates_nothing;
    Alcotest.test_case "native dispatch allocates nothing" `Quick
      test_native_dispatch_allocates_nothing;
    Alcotest.test_case "native dispatch faults" `Quick
      test_native_dispatch_faults;
    Alcotest.test_case "native re-register keeps address" `Quick
      test_native_reregister_keeps_address;
    Alcotest.test_case "native registry grows" `Quick
      test_native_registry_grows;
  ]
