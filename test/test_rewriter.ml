(* Tests for liveness analysis, SVM rewriting, and three-way execution
   equivalence: original vs identity VM instance vs hypervisor instance. *)

open Td_misa
open Td_rewriter

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* --- liveness --- *)

let src_of f =
  let b = Builder.create "t" in
  f b;
  Builder.finish b

let test_liveness_basic () =
  (* movl $1, %eax ; movl %eax, %ebx ; ret — ECX/EDX free at insn 0 *)
  let src =
    src_of (fun b ->
        Builder.movl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.reg Reg.EAX) (Builder.reg Reg.EBX);
        Builder.ret b)
  in
  let live = Liveness.analyse src in
  let free0 = Liveness.free_regs live 0 in
  check bool_c "ecx free" true (List.mem Reg.ECX free0);
  check bool_c "edx free" true (List.mem Reg.EDX free0);
  (* callee-saved regs are live into ret, hence not free anywhere *)
  check bool_c "esi not free (callee-saved)" false (List.mem Reg.ESI free0)

let test_liveness_kill () =
  (* EAX written at 1 without being read at/after 0 -> dead at 0 *)
  let src =
    src_of (fun b ->
        Builder.nop b;
        Builder.movl b (Builder.imm 5) (Builder.reg Reg.EAX);
        Builder.hlt b)
  in
  let live = Liveness.analyse src in
  check bool_c "eax dead at nop" true (List.mem Reg.EAX (Liveness.free_regs live 0));
  (* at hlt, EAX is the result: live into instruction 2 *)
  check bool_c "eax live at hlt" false
    (List.mem Reg.EAX (Liveness.free_regs live 2))

let test_liveness_branch_join () =
  (* ECX live on one branch only: conservative at the split *)
  let src =
    src_of (fun b ->
        Builder.cmpl b (Builder.imm 0) (Builder.reg Reg.EAX);
        Builder.je b "skip";
        Builder.movl b (Builder.reg Reg.ECX) (Builder.reg Reg.EAX);
        Builder.label b "skip";
        Builder.hlt b)
  in
  let live = Liveness.analyse src in
  check bool_c "ecx live at branch" true (List.mem Reg.ECX (Liveness.live_in live 1))

let test_liveness_flags () =
  let src =
    src_of (fun b ->
        Builder.cmpl b (Builder.imm 0) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.ECX);
        Builder.je b "out";
        Builder.label b "out";
        Builder.hlt b)
  in
  let live = Liveness.analyse src in
  check bool_c "flags live across the mov" true (Liveness.flags_live_in live 1);
  check bool_c "flags dead before cmp" false (Liveness.flags_live_in live 0)

let test_liveness_call_cdecl () =
  (* cdecl callee reads no caller registers: caller-saved regs are free
     before the call when nothing later needs them *)
  let src =
    src_of (fun b ->
        Builder.nop b;
        Builder.call b "ext";
        Builder.hlt b)
  in
  let live = Liveness.analyse src in
  let free0 = Liveness.free_regs live 0 in
  check bool_c "ecx free before call" true (List.mem Reg.ECX free0);
  check bool_c "edx free before call" true (List.mem Reg.EDX free0);
  (* a register holding a value needed after the call must survive it *)
  let src2 =
    src_of (fun b ->
        Builder.nop b;
        Builder.call b "ext";
        Builder.movl b (Builder.reg Reg.EBX) (Builder.reg Reg.EAX);
        Builder.hlt b)
  in
  let live2 = Liveness.analyse src2 in
  check bool_c "ebx live across call" true
    (List.mem Reg.EBX (Liveness.live_in live2 0))

(* --- static rewrite properties --- *)

let test_fast_path_is_ten_instructions () =
  let src =
    src_of (fun b ->
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.hlt b)
  in
  let rewritten, stats = Rewrite.rewrite_source src in
  check int_c "one heap site" 1 stats.Rewrite.heap_sites;
  (* hit path length: count instructions from start until the final access,
     excluding slow-path block. With all scratch free and flags dead the
     sequence is exactly the paper's 10 instructions (9 + rewritten op). *)
  let items = rewritten.Program.items in
  let rec hit_path acc = function
    | Program.Ins (Insn.Jcc (Cond.NE, _)) :: rest -> hit_path (acc + 1) rest
    | Program.Ins (Insn.Mov (_, Operand.Mem { base = Some _; _ }, _)) :: _ ->
        acc + 1 (* the translated final access *)
    | Program.Ins _ :: rest -> hit_path (acc + 1) rest
    | Program.Label _ :: rest -> hit_path acc rest
    | [] -> acc
  in
  (* drop nothing: first instruction is the lea *)
  check int_c "ten instruction fast path"
    Svm_emit.fast_path_instructions (hit_path 0 items)

let test_stack_refs_not_rewritten () =
  let src =
    src_of (fun b ->
        Builder.movl b (Builder.mem ~base:Reg.ESP 4) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.mem ~base:Reg.EBP (-8)) (Builder.reg Reg.ECX);
        Builder.ret b)
  in
  let _, stats = Rewrite.rewrite_source src in
  check int_c "no heap sites" 0 stats.Rewrite.heap_sites;
  check int_c "output unchanged" stats.Rewrite.input_instructions
    stats.Rewrite.output_instructions

let test_lea_not_rewritten () =
  let src =
    src_of (fun b ->
        Builder.leal b (Operand.mem ~base:Reg.EBX 16) Reg.EAX;
        Builder.ret b)
  in
  let _, stats = Rewrite.rewrite_source src in
  check int_c "lea is address arithmetic, not access" 0 stats.Rewrite.heap_sites

let test_memory_fraction () =
  let src =
    src_of (fun b ->
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.nop b;
        Builder.ret b)
  in
  check bool_c "fraction" true
    (abs_float (Rewrite.memory_reference_fraction src -. 0.25) < 1e-9)

let test_reserved_symbol_rejected () =
  let src =
    src_of (fun b ->
        Builder.label b "__stlb";
        Builder.ret b)
  in
  check bool_c "reserved" true
    (match Rewrite.rewrite_source src with
    | exception Rewrite.Rewrite_error _ -> true
    | _ -> false)

let test_spill_everything_stats () =
  let src =
    src_of (fun b ->
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.hlt b)
  in
  let _, normal = Rewrite.rewrite_source src in
  let _, spilled = Rewrite.rewrite_source ~spill_everything:true src in
  check int_c "no spills with liveness" 0 normal.Rewrite.spill_sites;
  check int_c "spills without liveness" 1 spilled.Rewrite.spill_sites;
  check bool_c "spilling emits more code" true
    (spilled.Rewrite.output_instructions > normal.Rewrite.output_instructions)

(* --- end-to-end equivalence --- *)

let zero_init = Bytes.make Twin_harness.buf_bytes '\000'

let check_three_way ?max_steps ?(init = zero_init) ~regs ~entry source =
  let original, vm, hyp =
    Twin_harness.run_all ?max_steps ~source ~init ~regs ~entry ()
  in
  check bool_c "vm identity instance equivalent" true
    (Twin_harness.equivalent original vm);
  check bool_c "hypervisor instance equivalent" true
    (Twin_harness.equivalent original hyp);
  (original, vm, hyp)

let set_ebx st buf = Td_cpu.State.set st Reg.EBX buf

let test_e2e_loads_stores () =
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 11) (Builder.mem ~base:Reg.EBX 0);
        Builder.movl b (Builder.imm 22) (Builder.mem ~base:Reg.EBX 4);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.mem ~base:Reg.EBX 4) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.reg Reg.EAX) (Builder.mem ~base:Reg.EBX 8);
        Builder.ret b)
  in
  let original, _, hyp = check_three_way ~regs:set_ebx ~entry:"entry" source in
  check int_c "sum" 33 original.Twin_harness.eax;
  check int_c "hyp sum" 33 hyp.Twin_harness.eax

let test_e2e_loop_over_array () =
  (* sum 100 int32 slots via indexed addressing *)
  let init = Bytes.make Twin_harness.buf_bytes '\000' in
  for i = 0 to 99 do
    Bytes.set_int32_le init (4 * i) (Int32.of_int (i * 3))
  done;
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.xorl b (Builder.reg Reg.EAX) (Builder.reg Reg.EAX);
        Builder.xorl b (Builder.reg Reg.ECX) (Builder.reg Reg.ECX);
        Builder.label b "loop";
        Builder.addl b
          (Builder.mem ~base:Reg.EBX ~index:(Reg.ECX, Operand.S4) 0)
          (Builder.reg Reg.EAX);
        Builder.incl b (Builder.reg Reg.ECX);
        Builder.cmpl b (Builder.imm 100) (Builder.reg Reg.ECX);
        Builder.jne b "loop";
        Builder.ret b)
  in
  let original, _, _ =
    check_three_way ~init ~regs:set_ebx ~entry:"entry" source
  in
  check int_c "sum" (3 * 99 * 100 / 2) original.Twin_harness.eax

let test_e2e_flags_across_rewritten_mov () =
  (* cmp sets flags; a rewritten mov sits between cmp and jcc *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 7) (Builder.mem ~base:Reg.EBX 0);
        Builder.cmpl b (Builder.imm 7) (Builder.mem ~base:Reg.EBX 0);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.ECX);
        Builder.je b "eq";
        Builder.movl b (Builder.imm 0) (Builder.reg Reg.EAX);
        Builder.ret b;
        Builder.label b "eq";
        Builder.movl b (Builder.imm 1) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let original, _, _ = check_three_way ~regs:set_ebx ~entry:"entry" source in
  check int_c "flags survived" 1 original.Twin_harness.eax

let test_e2e_straddling_access () =
  (* write across the buffer's internal page boundary *)
  let off = Td_mem.Layout.page_size - 2 in
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 0x99AA77CC) (Builder.mem ~base:Reg.EBX off);
        Builder.movl b (Builder.mem ~base:Reg.EBX off) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let original, _, hyp = check_three_way ~regs:set_ebx ~entry:"entry" source in
  check int_c "straddle value" 0x99AA77CC original.Twin_harness.eax;
  check int_c "hyp straddle value" 0x99AA77CC hyp.Twin_harness.eax

let test_e2e_rep_movs_cross_page () =
  (* copy 5000 bytes (crosses a page) from buf[0] to buf[5000/aligned] *)
  let init = Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr (i land 0xff)) in
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.reg Reg.EBX) (Builder.reg Reg.ESI);
        Builder.leal b (Operand.mem ~base:Reg.EBX 3000) Reg.EDI;
        Builder.movl b (Builder.imm 5000) (Builder.reg Reg.ECX);
        Builder.rep_movsb b;
        Builder.movl b (Builder.reg Reg.EDI) (Builder.reg Reg.EAX);
        Builder.subl b (Builder.reg Reg.EBX) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let original, _, hyp =
    check_three_way ~init ~regs:set_ebx ~entry:"entry" source
  in
  check int_c "edi advanced" 8000 original.Twin_harness.eax;
  check int_c "hyp edi advanced" 8000 hyp.Twin_harness.eax

let test_e2e_rep_movsl_and_stosl () =
  let init = Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 7) land 0xff)) in
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        (* fill buf[0..1024) with a pattern, then copy words elsewhere *)
        Builder.movl b (Builder.reg Reg.EBX) (Builder.reg Reg.EDI);
        Builder.movl b (Builder.imm 0xABCD0123) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.imm 256) (Builder.reg Reg.ECX);
        Builder.rep_stosl b;
        Builder.movl b (Builder.reg Reg.EBX) (Builder.reg Reg.ESI);
        Builder.leal b (Operand.mem ~base:Reg.EBX 4096) Reg.EDI;
        Builder.movl b (Builder.imm 256) (Builder.reg Reg.ECX);
        Builder.rep_movsl b;
        Builder.movl b (Builder.mem ~base:Reg.EBX 4096) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let original, _, _ =
    check_three_way ~init ~regs:set_ebx ~entry:"entry" source
  in
  check int_c "pattern copied" 0xABCD0123 original.Twin_harness.eax

let test_e2e_indirect_call () =
  (* function pointer stored in driver data (a VM-instance code address, as
     all shared function pointers are); the driver loads it from the heap
     and calls through it. The rewriter must both translate the pointer
     load via SVM and the call target via the stlb_call table. *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.pushl b (Builder.reg Reg.EBX);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EDX);
        Builder.call_ind b (Builder.reg Reg.EDX);
        Builder.popl b (Builder.reg Reg.EBX);
        (* record the callee's result in memory too *)
        Builder.movl b (Builder.reg Reg.EAX) (Builder.mem ~base:Reg.EBX 16);
        Builder.ret b;
        Builder.label b "callee";
        Builder.movl b (Builder.imm 4242) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let post_load m prog ~buf =
    Td_mem.Addr_space.write m.Harness.dom0 buf Width.W32
      (Twin_harness.vm_address_of_label prog "callee")
  in
  let original, vm, hyp =
    Twin_harness.run_all ~post_load ~source ~init:zero_init ~regs:set_ebx
      ~entry:"entry" ()
  in
  check int_c "original" 4242 original.Twin_harness.eax;
  check int_c "vm instance" 4242 vm.Twin_harness.eax;
  check int_c "hyp instance" 4242 hyp.Twin_harness.eax;
  (* buffers can't be compared directly (they contain the incarnation-
     specific pointer), but the recorded result must match *)
  check int_c "stored result (hyp)" 4242
    (Bytes.get_int32_le hyp.Twin_harness.buf 16 |> Int32.to_int)

let test_e2e_safety_wild_pointer () =
  (* driver dereferences the stlb base: must fault in the hypervisor
     instance, not corrupt it; runs fine natively? no — the address is not
     mapped in dom0 either, so only run the hypervisor incarnation *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm Td_mem.Layout.stlb_base) (Builder.reg Reg.ECX);
        Builder.movl b (Builder.imm 0xBAD) (Builder.mem ~base:Reg.ECX 0);
        Builder.ret b)
  in
  let attempt () =
    Twin_harness.run_incarnation ~source ~init:zero_init
      ~regs:(fun _ _ -> ())
      ~entry:"entry" Twin_harness.Hypervisor
  in
  check bool_c "wild write faults" true
    (match attempt () with
    | exception Td_svm.Runtime.Fault _ -> true
    | _ -> false)

let test_e2e_guest_memory_protected () =
  (* an address in guest-kernel range is rejected even if it happens to be
     mapped somewhere *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm Td_mem.Layout.guest_heap_base) (Builder.reg Reg.ECX);
        Builder.movl b (Builder.mem ~base:Reg.ECX 0) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  check bool_c "guest read faults" true
    (match
       Twin_harness.run_incarnation ~source ~init:zero_init
         ~regs:(fun _ _ -> ())
         ~entry:"entry" Twin_harness.Hypervisor
     with
    | exception Td_svm.Runtime.Fault _ -> true
    | _ -> false)

let test_e2e_spill_everything_still_correct () =
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 5) (Builder.mem ~base:Reg.EBX 0);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  (* run hypervisor incarnation against a spill-everything rewrite by
     deriving manually *)
  let twin = Td_rewriter.Twin.derive ~spill_everything:true source in
  check bool_c "rewrite produced spills" true
    (twin.Td_rewriter.Twin.stats.Rewrite.spill_sites > 0);
  let original =
    Twin_harness.run_incarnation ~source ~init:zero_init ~regs:set_ebx
      ~entry:"entry" Twin_harness.Original
  in
  check int_c "original" 10 original.Twin_harness.eax

(* --- property: random straight-line programs are equivalence-preserved --- *)

let gen_straightline : Program.source QCheck.Gen.t =
  let open QCheck.Gen in
  (* registers used for computation; EBX stays the buffer base *)
  let regs = [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let reg = oneofl regs in
  let disp = map (fun n -> 4 * n) (int_range 0 200) in
  let mem = map (fun d -> Builder.mem ~base:Reg.EBX d) disp in
  let operand = frequency [ (2, map (fun r -> Builder.reg r) reg); (2, mem);
                            (1, map (fun n -> Builder.imm n) (int_range 0 10000)) ] in
  let alu = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ] in
  let insn =
    frequency
      [
        ( 4,
          map3
            (fun src r _ -> Insn.Mov (Width.W32, src, Builder.reg r))
            operand reg unit );
        ( 3,
          map3 (fun src r _ -> Insn.Mov (Width.W32, Builder.reg r, src))
            mem reg unit );
        ( 4,
          map3 (fun op src r -> Insn.Alu (op, src, Builder.reg r))
            alu operand reg );
        ( 2,
          map3 (fun op r m -> Insn.Alu (op, Builder.reg r, m)) alu reg mem );
        (1, map (fun m -> Insn.Inc m) mem);
        (1, map (fun m -> Insn.Dec m) mem);
        (1, map2 (fun n r -> Insn.Shift (Insn.Shr, Builder.imm (n land 7), Builder.reg r)) (int_range 0 7) reg);
      ]
  in
  let* body = list_size (int_range 1 40) insn in
  let items =
    Program.Label "entry"
    :: List.map (fun i -> Program.Ins i) body
    @ [ Program.Ins Insn.Ret ]
  in
  return (Program.source "rand" items)

let print_src src = Program.to_string_source src

(* richer generator: forward branches and calls to a helper routine, so
   flag preservation, label handling and cdecl liveness at call sites are
   all exercised by the equivalence property *)
let gen_branchy : Program.source QCheck.Gen.t =
  let open QCheck.Gen in
  let regs = [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let reg = oneofl regs in
  let mem = map (fun d -> Builder.mem ~base:Reg.EBX (4 * d)) (int_range 0 100) in
  let operand =
    frequency
      [ (2, map (fun r -> Builder.reg r) reg); (2, mem);
        (1, map (fun n -> Builder.imm n) (int_range 0 1000)) ]
  in
  let alu = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ] in
  let block tag =
    let* ops = list_size (int_range 1 6)
      (frequency
         [ (3, map2 (fun op src -> fun r -> Insn.Alu (op, src, Builder.reg r)) alu operand);
           (2, map (fun src -> fun r -> Insn.Mov (Width.W32, src, Builder.reg r)) operand);
           (1, map (fun m -> fun _ -> Insn.Inc m) mem);
         ])
    in
    let* rs = list_repeat (List.length ops) reg in
    let body = List.map2 (fun f r -> Program.Ins (f r)) ops rs in
    return (tag, body)
  in
  let* blocks = list_size (int_range 2 5) (block ()) in
  let* conds = list_repeat (List.length blocks) (oneofl [ Cond.E; Cond.NE; Cond.L; Cond.A ]) in
  let* cmp_vals = list_repeat (List.length blocks) (int_range 0 20) in
  (* each block: cmp mem, imm ; jcc over a call to the helper; block body *)
  let items = ref [ Program.Label "entry" ] in
  List.iteri
    (fun i ((), body) ->
      let skip = Printf.sprintf ".Lskip%d" i in
      items :=
        !items
        @ [
            Program.Ins
              (Insn.Cmp
                 (Builder.imm (List.nth cmp_vals i), Builder.mem ~base:Reg.EBX 0));
            Program.Ins (Insn.Jcc (List.nth conds i, Insn.Lbl skip));
            Program.Ins (Insn.Push (Builder.mem ~base:Reg.EBX 4));
            Program.Ins (Insn.Call (Insn.Lbl "helper"));
            Program.Ins (Insn.Alu (Insn.Add, Operand.Imm 4, Builder.reg Reg.ESP));
            Program.Ins
              (Insn.Mov (Width.W32, Builder.reg Reg.EAX, Builder.mem ~base:Reg.EBX (4 * (i + 2))));
            Program.Label skip;
          ]
        @ body)
    blocks;
  (* the helper deliberately clobbers the caller-saved registers, so the
     generated programs live under the same cdecl contract the liveness
     analysis assumes (compiled code never reads ECX/EDX across a call) *)
  items := !items @ [ Program.Ins Insn.Ret;
                      Program.Label "helper";
                      Program.Ins (Insn.Mov (Width.W32, Builder.mem ~base:Reg.ESP 4, Builder.reg Reg.EAX));
                      Program.Ins (Insn.Alu (Insn.Add, Builder.imm 17, Builder.reg Reg.EAX));
                      Program.Ins (Insn.Mov (Width.W32, Builder.imm 0xC10BBE5, Builder.reg Reg.ECX));
                      Program.Ins (Insn.Mov (Width.W32, Builder.imm 0xDEAD10C, Builder.reg Reg.EDX));
                      Program.Ins Insn.Ret ];
  return (Program.source "branchy" !items)

let branchy_equivalence_prop =
  QCheck.Test.make ~name:"branchy programs with calls: three-way equivalence"
    ~count:40
    (QCheck.make gen_branchy ~print:print_src)
    (fun source ->
      let init =
        Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 31) land 0xff))
      in
      let original, vm, hyp =
        Twin_harness.run_all ~source ~init ~regs:set_ebx ~entry:"entry" ()
      in
      Twin_harness.equivalent original vm
      && Twin_harness.equivalent original hyp)

let equivalence_prop =
  QCheck.Test.make ~name:"random programs: three-way equivalence" ~count:60
    (QCheck.make gen_straightline ~print:print_src)
    (fun source ->
      let init =
        Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 13) land 0xff))
      in
      let original, vm, hyp =
        Twin_harness.run_all ~source ~init ~regs:set_ebx ~entry:"entry" ()
      in
      Twin_harness.equivalent original vm
      && Twin_harness.equivalent original hyp)

let cached_equivalence_prop =
  QCheck.Test.make
    ~name:"probe caching preserves three-way equivalence" ~count:50
    (QCheck.make gen_straightline ~print:print_src)
    (fun source ->
      let init =
        Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 11) land 0xff))
      in
      let original, vm, hyp =
        Twin_harness.run_all ~cache_probes:true ~source ~init ~regs:set_ebx
          ~entry:"entry" ()
      in
      Twin_harness.equivalent original vm
      && Twin_harness.equivalent original hyp)

let test_probe_caching_effect () =
  (* consecutive field accesses through one base register: first access
     probes, the rest ride the cached translation *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 1) (Builder.mem ~base:Reg.EBX 0);
        Builder.movl b (Builder.imm 2) (Builder.mem ~base:Reg.EBX 4);
        Builder.movl b (Builder.imm 3) (Builder.mem ~base:Reg.EBX 8);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.mem ~base:Reg.EBX 4) (Builder.reg Reg.EAX);
        Builder.addl b (Builder.mem ~base:Reg.EBX 8) (Builder.reg Reg.EAX);
        Builder.ret b)
  in
  let plain = Twin.derive source in
  let cached = Twin.derive ~cache_probes:true source in
  check int_c "no reuse without the flag" 0
    plain.Twin.stats.Rewrite.cached_sites;
  check int_c "five of six accesses reuse the probe" 5
    cached.Twin.stats.Rewrite.cached_sites;
  check bool_c "much smaller code" true
    (cached.Twin.stats.Rewrite.output_instructions
    < plain.Twin.stats.Rewrite.output_instructions - 20);
  (* a backward or cross-page displacement must NOT reuse *)
  let backward =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 1) (Builder.mem ~base:Reg.EBX 64);
        Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
        Builder.movl b (Builder.mem ~base:Reg.EBX 8192) (Builder.reg Reg.ECX);
        Builder.ret b)
  in
  let tw = Twin.derive ~cache_probes:true backward in
  check int_c "unsafe displacements re-probe" 0
    tw.Twin.stats.Rewrite.cached_sites

let test_probe_caching_invalidation () =
  (* writing the base register kills the cached translation *)
  let source =
    src_of (fun b ->
        Builder.label b "entry";
        Builder.movl b (Builder.imm 1) (Builder.mem ~base:Reg.EBX 0);
        Builder.addl b (Builder.imm 4) (Builder.reg Reg.EBX);
        Builder.movl b (Builder.imm 2) (Builder.mem ~base:Reg.EBX 0);
        Builder.ret b)
  in
  let tw = Twin.derive ~cache_probes:true source in
  check int_c "write to base invalidates" 0 tw.Twin.stats.Rewrite.cached_sites

(* liveness soundness: clobbering every 'free' register before any
   instruction must not change the program's observable behaviour *)
let liveness_soundness_prop =
  QCheck.Test.make ~name:"liveness: free registers are really dead" ~count:40
    (QCheck.make gen_straightline ~print:print_src)
    (fun source ->
      let live = Liveness.analyse source in
      let init =
        Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 3) land 0xff))
      in
      let regs st buf = Td_cpu.State.set st Reg.EBX buf in
      let baseline =
        Twin_harness.run_incarnation ~source ~init ~regs ~entry:"entry"
          Twin_harness.Original
      in
      (* build a poisoned variant: before instruction k, every free
         register is overwritten with garbage *)
      let poisoned_items k =
        let idx = ref 0 in
        List.concat_map
          (function
            | Program.Label l -> [ Program.Label l ]
            | Program.Ins insn ->
                let here = !idx in
                incr idx;
                if here = k then
                  List.map
                    (fun r ->
                      Program.Ins
                        (Insn.Mov
                           (Width.W32, Builder.imm 0x0DD0BAD, Builder.reg r)))
                    (Liveness.free_regs live here)
                  @ [ Program.Ins insn ]
                else [ Program.Ins insn ])
          source.Program.items
      in
      let n = Program.instruction_count source in
      List.for_all
        (fun k ->
          let poisoned = Program.source "poisoned" (poisoned_items k) in
          let run =
            Twin_harness.run_incarnation ~source:poisoned ~init ~regs
              ~entry:"entry" Twin_harness.Original
          in
          Twin_harness.equivalent baseline run)
        (List.init (min n 10) (fun i -> i * max 1 (n / 10)))
      )

(* --- live flags across probes, spilled scratch, and the compiled probe --- *)

(* Programs whose flags are live across rewritten accesses: a flag
   setter, one to three accesses through EBX (each rewritten into an
   inline probe, wrapped in pushf/popf while the flags are live), then a
   reader of the flags — a forward jcc over a short body, or an adc/sbb
   folding the carry in. The accesses reach both pages of the buffer. A
   last access sits right before the ret, so the flags a rewritten
   program leaves are its probe's xor's. *)
let gen_flags_live : Program.source QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = oneofl [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let mem =
    map (fun d -> Builder.mem ~base:Reg.EBX (4 * d)) (int_range 0 2047)
  in
  let setter =
    oneof
      [
        map2
          (fun n r -> Insn.Cmp (Builder.imm n, Builder.reg r))
          (int_range 0 50) reg;
        map2 (fun a r -> Insn.Alu (Insn.Add, Builder.reg a, Builder.reg r)) reg reg;
        map2 (fun a r -> Insn.Test (Builder.reg a, Builder.reg r)) reg reg;
        map2 (fun m r -> Insn.Alu (Insn.Sub, m, Builder.reg r)) mem reg;
      ]
  in
  let access =
    oneof
      [
        map2 (fun m r -> Insn.Mov (Width.W32, m, Builder.reg r)) mem reg;
        map2 (fun m r -> Insn.Mov (Width.W32, Builder.reg r, m)) mem reg;
        map2 (fun m r -> Insn.Mov (Width.W32, Builder.imm (r * 7), m)) mem
          (int_range 0 1000);
      ]
  in
  let block i =
    let* set = setter in
    let* accs = list_size (int_range 1 3) access in
    let* reader = int_range 0 3 in
    let* r = reg in
    let* c = oneofl [ Cond.E; Cond.NE; Cond.B; Cond.AE; Cond.L; Cond.G ] in
    let skip = Printf.sprintf ".Lf%d" i in
    let read =
      match reader with
      | 0 -> [ Program.Ins (Insn.Alu (Insn.Adc, Builder.imm 0, Builder.reg r)) ]
      | 1 -> [ Program.Ins (Insn.Alu (Insn.Sbb, Builder.imm 1, Builder.reg r)) ]
      | _ ->
          [
            Program.Ins (Insn.Jcc (c, Insn.Lbl skip));
            Program.Ins (Insn.Inc (Builder.reg r));
            Program.Label skip;
          ]
    in
    return ((Program.Ins set :: List.map (fun a -> Program.Ins a) accs) @ read)
  in
  let* n = int_range 1 4 in
  let* blocks = flatten_l (List.init n block) in
  let* last = access in
  return
    (Program.source "flags"
       ((Program.Label "entry" :: List.concat blocks)
       @ [ Program.Ins last; Program.Ins Insn.Ret ]))

let flags_init =
  Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 29) land 0xff))

let flags_live_equivalence_prop =
  QCheck.Test.make
    ~name:"live flags across probes, spilled scratch: three-way equivalence"
    ~count:40
    (QCheck.make
       QCheck.Gen.(pair bool gen_flags_live)
       ~print:(fun (spill, src) ->
         Printf.sprintf "spill_everything=%b\n%s" spill (print_src src)))
    (fun (spill, source) ->
      let run which =
        Twin_harness.run_incarnation ~spill_everything:spill ~source
          ~init:flags_init ~regs:set_ebx ~entry:"entry" which
      in
      let original = run Twin_harness.Original in
      Twin_harness.equivalent original (run Twin_harness.Vm_identity)
      && Twin_harness.equivalent original (run Twin_harness.Hypervisor))

(* The compiled tier, which lowers each inline probe to one op, against
   the block engine on the rewritten code itself, call after call:
   results and faults with their pc, registers, flags, cycles, steps,
   TLB and cache counters and the buffer must all agree. The third call
   is the first compiled one; the SVM runtime is flushed before it, so
   compiled probes meet invalidated stlb entries and leave by the jne. *)
let flush_before_third i svm _st =
  if i = 2 then Option.iter Td_svm.Runtime.flush svm

let hot_runs ?on_probe ?(between = flush_before_third) ~spill source which =
  let run threshold =
    fst
      (Twin_harness.run_hot ~spill_everything:spill
         ?on_probe:(Option.map (fun f -> f ()) on_probe)
         ~threshold ~calls:5 ~between ~source ~init:flags_init ~regs:set_ebx
         ~entry:"entry" which)
  in
  (run 1, run max_int)

let fused_probe_prop =
  QCheck.Test.make
    ~name:"compiled probes match the block engine on rewritten code"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         triple bool bool (oneof [ gen_flags_live; gen_straightline ]))
       ~print:(fun (spill, hyp, src) ->
         Printf.sprintf "spill_everything=%b hypervisor=%b\n%s" spill hyp
           (print_src src)))
    (fun (spill, hyp, source) ->
      let compiled, block =
        hot_runs ~spill source
          (if hyp then Twin_harness.Hypervisor else Twin_harness.Vm_identity)
      in
      compiled = block)

let probe_source =
  src_of (fun b ->
      Builder.label b "entry";
      Builder.cmpl b (Builder.imm 3) (Builder.reg Reg.ECX);
      Builder.movl b (Builder.mem ~base:Reg.EBX 0) (Builder.reg Reg.EAX);
      Builder.addl b (Builder.mem ~base:Reg.EBX 4100) (Builder.reg Reg.EAX);
      Builder.movl b (Builder.reg Reg.EAX) (Builder.mem ~base:Reg.EBX 8);
      Builder.jcc b Cond.E "out";
      Builder.incl b (Builder.reg Reg.ECX);
      Builder.label b "out";
      Builder.movl b (Builder.mem ~base:Reg.EBX 12) (Builder.reg Reg.EDX);
      Builder.ret b)

let outcomes runs = List.map (fun s -> s.Twin_harness.outcome) runs

(* A fault at a compiled probe's tag load: with the stlb's pages
   unmapped before the fourth call, the first probe's cmp faults. The
   registers and the shr's flags written before the load, and the cycles
   and steps through the cmp, must be the block engine's. *)
let test_fused_probe_tag_fault () =
  List.iter
    (fun which ->
      let between i svm (st : Td_cpu.State.t) =
        match svm with
        | Some rt when i = 3 ->
            let stlb = Td_svm.Stlb.vaddr (Td_svm.Runtime.stlb rt) in
            let space = Td_cpu.State.space_for st stlb in
            for p = 0 to 7 do
              Td_mem.Addr_space.unmap space
                ~vpage:(Td_mem.Layout.page_of stlb + p)
            done
        | _ -> ()
      in
      let compiled, block = hot_runs ~between ~spill:false probe_source which in
      check bool_c "the fourth call faults at the tag load" true
        (match List.nth (outcomes compiled) 3 with
        | o -> String.length o > 10 && String.sub o 0 10 = "Td_mem.Add");
      check bool_c "compiled = block engine" true (compiled = block))
    [ Twin_harness.Vm_identity; Twin_harness.Hypervisor ]

(* An abort in the probe-hit callback: the callback raises at its
   seventh hit, inside a compiled run, after the tag load and before
   the xor load. *)
let test_fused_probe_callback_abort () =
  let on_probe () =
    let hits = ref 0 in
    fun _ ->
      incr hits;
      if !hits = 7 then raise Exit
  in
  List.iter
    (fun which ->
      let compiled, block =
        hot_runs ~on_probe ~between:(fun _ _ _ -> ()) ~spill:false probe_source
          which
      in
      check bool_c "one call aborts in the callback" true
        (List.exists
           (fun o -> String.length o >= 4 && String.sub o 0 4 = "Stdl")
           (outcomes compiled));
      check bool_c "compiled = block engine" true (compiled = block))
    [ Twin_harness.Vm_identity; Twin_harness.Hypervisor ]

let suite =
  [
    Alcotest.test_case "liveness basic" `Quick test_liveness_basic;
    Alcotest.test_case "liveness kill" `Quick test_liveness_kill;
    Alcotest.test_case "liveness branch join" `Quick test_liveness_branch_join;
    Alcotest.test_case "liveness flags" `Quick test_liveness_flags;
    Alcotest.test_case "liveness call cdecl" `Quick test_liveness_call_cdecl;
    Alcotest.test_case "fast path is 10 instructions" `Quick
      test_fast_path_is_ten_instructions;
    Alcotest.test_case "stack refs kept" `Quick test_stack_refs_not_rewritten;
    Alcotest.test_case "lea kept" `Quick test_lea_not_rewritten;
    Alcotest.test_case "memory fraction" `Quick test_memory_fraction;
    Alcotest.test_case "reserved symbols rejected" `Quick
      test_reserved_symbol_rejected;
    Alcotest.test_case "spill ablation stats" `Quick test_spill_everything_stats;
    Alcotest.test_case "e2e loads/stores" `Quick test_e2e_loads_stores;
    Alcotest.test_case "e2e loop over array" `Quick test_e2e_loop_over_array;
    Alcotest.test_case "e2e flags across rewritten mov" `Quick
      test_e2e_flags_across_rewritten_mov;
    Alcotest.test_case "e2e straddling access" `Quick test_e2e_straddling_access;
    Alcotest.test_case "e2e rep movs cross page" `Quick
      test_e2e_rep_movs_cross_page;
    Alcotest.test_case "e2e rep movsl/stosl" `Quick test_e2e_rep_movsl_and_stosl;
    Alcotest.test_case "e2e indirect call" `Quick
      test_e2e_indirect_call;
    Alcotest.test_case "e2e wild pointer faults" `Quick
      test_e2e_safety_wild_pointer;
    Alcotest.test_case "e2e guest memory protected" `Quick
      test_e2e_guest_memory_protected;
    Alcotest.test_case "e2e spill-everything correct" `Quick
      test_e2e_spill_everything_still_correct;
    QCheck_alcotest.to_alcotest equivalence_prop;
    QCheck_alcotest.to_alcotest branchy_equivalence_prop;
    QCheck_alcotest.to_alcotest liveness_soundness_prop;
    Alcotest.test_case "probe caching effect" `Quick test_probe_caching_effect;
    Alcotest.test_case "probe caching invalidation" `Quick
      test_probe_caching_invalidation;
    QCheck_alcotest.to_alcotest cached_equivalence_prop;
    QCheck_alcotest.to_alcotest flags_live_equivalence_prop;
    QCheck_alcotest.to_alcotest fused_probe_prop;
    Alcotest.test_case "compiled probe: tag-load fault" `Quick
      test_fused_probe_tag_fault;
    Alcotest.test_case "compiled probe: callback abort" `Quick
      test_fused_probe_callback_abort;
  ]
