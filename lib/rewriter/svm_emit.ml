open Td_misa

exception Rewrite_error of string

let fast_path_instructions = 10

let pick_scratch ~free ~used =
  let avoid = used in
  let preferred = List.filter (fun r -> not (List.mem r avoid)) free in
  let fallback =
    List.filter
      (fun r -> (not (List.mem r avoid)) && not (List.mem r preferred))
      Reg.general
  in
  match preferred @ fallback with
  | r1 :: r2 :: r3 :: _ ->
      let spilled =
        List.filter (fun r -> not (List.mem r free)) [ r1; r2; r3 ]
      in
      (r1, r2, r3, spilled)
  | _ ->
      raise
        (Rewrite_error
           "fewer than three scratch registers available for SVM fast path")

(* slot index for a spilled scratch register: position among (r1, r2, r3) *)
let slot_of r1 r2 r3 r =
  if Reg.equal r r1 then 0
  else if Reg.equal r r2 then 1
  else if Reg.equal r r3 then 2
  else invalid_arg "Svm_emit.slot_of"

let stlb_entry r1 extra =
  Operand.Mem (Operand.mem ~base:r1 ~sym:Symbols.stlb extra)

let rewrite_heap_access_helper ~free ~flags_live ~insn ~mem ~rebuild =
  let used =
    Reg.EAX :: (Insn.regs_read insn @ Insn.regs_written insn)
  in
  let r2, _, _, spilled = pick_scratch ~free ~used in
  let spill_r2 = List.exists (Reg.equal r2) spilled in
  let eax_slot = Symbols.scratch_slot 3 in
  let r2_slot = Symbols.scratch_slot 0 in
  let items = ref [] in
  let ins i = items := Program.Ins i :: !items in
  if flags_live then ins Insn.Pushf;
  ins (Insn.Mov (Width.W32, Operand.Reg Reg.EAX, eax_slot));
  if spill_r2 then ins (Insn.Mov (Width.W32, Operand.Reg r2, r2_slot));
  ins (Insn.Lea (mem, r2));
  ins (Insn.Push (Operand.Reg r2));
  ins (Insn.Call (Insn.Lbl Symbols.svm_translate));
  ins (Insn.Alu (Insn.Add, Operand.Imm 4, Operand.Reg Reg.ESP));
  ins (Insn.Mov (Width.W32, Operand.Reg Reg.EAX, Operand.Reg r2));
  ins (Insn.Mov (Width.W32, eax_slot, Operand.Reg Reg.EAX));
  if flags_live then ins Insn.Popf;
  ins (rebuild (Operand.Mem (Operand.mem ~base:r2 0)));
  if spill_r2 then ins (Insn.Mov (Width.W32, r2_slot, Operand.Reg r2));
  List.rev !items

let rewrite_heap_access_into ~fresh ~free ~flags_live ~insn ~mem ~rebuild
    ~avoid =
  let used = avoid @ Insn.regs_read insn @ Insn.regs_written insn in
  let r1, r2, r3, spilled = pick_scratch ~free ~used in
  let slot r = Symbols.scratch_slot (slot_of r1 r2 r3 r) in
  let l_go = fresh "go" and l_slow = fresh "slow" and l_end = fresh "end" in
  let items = ref [] in
  let ins i = items := Program.Ins i :: !items in
  let lbl l = items := Program.Label l :: !items in
  (* flags preservation wraps the probe, not the final access: the final
     access must be free to set flags (cmp/test/alu results feed later
     jcc instructions) *)
  if flags_live then ins Insn.Pushf;
  List.iter (fun r -> ins (Insn.Mov (Width.W32, Operand.Reg r, slot r))) spilled;
  (* Figure 4, lines 1-9 *)
  ins (Insn.Lea (mem, r1));
  ins (Insn.Mov (Width.W32, Operand.Reg r1, Operand.Reg r2));
  ins (Insn.Alu (Insn.And, Operand.Imm 0xFFFFF000, Operand.Reg r1));
  ins (Insn.Mov (Width.W32, Operand.Reg r1, Operand.Reg r3));
  ins (Insn.Alu (Insn.And, Operand.Imm 0xFFF000, Operand.Reg r1));
  ins (Insn.Shift (Insn.Shr, Operand.Imm 9, Operand.Reg r1));
  ins (Insn.Cmp (stlb_entry r1 0, Operand.Reg r3));
  ins (Insn.Jcc (Cond.NE, Insn.Lbl l_slow));
  ins (Insn.Alu (Insn.Xor, stlb_entry r1 4, Operand.Reg r2));
  lbl l_go;
  List.iter
    (fun r ->
      if not (Reg.equal r r2) then
        ins (Insn.Mov (Width.W32, slot r, Operand.Reg r)))
    spilled;
  if flags_live then ins Insn.Popf;
  (* line 10: the original access through the translated address *)
  ins (rebuild (Operand.Mem (Operand.mem ~base:r2 0)));
  if List.exists (Reg.equal r2) spilled then
    ins (Insn.Mov (Width.W32, slot r2, Operand.Reg r2));
  ins (Insn.Jmp (Insn.Lbl l_end));
  (* slow path: call the miss handler with the full address *)
  lbl l_slow;
  let eax_outside = not (List.exists (Reg.equal Reg.EAX) [ r1; r2; r3 ]) in
  if eax_outside then ins (Insn.Mov (Width.W32, Operand.Reg Reg.EAX, Operand.Reg r3));
  ins (Insn.Push (Operand.Reg r2));
  ins (Insn.Call (Insn.Lbl Symbols.svm_miss));
  ins (Insn.Mov (Width.W32, Operand.Reg Reg.EAX, Operand.Reg r2));
  ins (Insn.Alu (Insn.Add, Operand.Imm 4, Operand.Reg Reg.ESP));
  if eax_outside then ins (Insn.Mov (Width.W32, Operand.Reg r3, Operand.Reg Reg.EAX));
  ins (Insn.Jmp (Insn.Lbl l_go));
  lbl l_end;
  (* the translation survives in r2 only when r2 was not spill-restored *)
  let holds =
    if List.exists (Reg.equal r2) spilled then None else Some r2
  in
  (List.rev !items, holds)

let rewrite_heap_access ~fresh ~free ~flags_live ~insn ~mem ~rebuild =
  fst
    (rewrite_heap_access_into ~fresh ~free ~flags_live ~insn ~mem ~rebuild
       ~avoid:[])
