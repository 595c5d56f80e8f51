open Td_misa

(* scratch slot indices (after the three register-spill slots) *)
let slot_eax = 3
let slot_esi = 4
let slot_edi = 5

let width_shift = function Width.W8 -> 0 | Width.W16 -> 1 | Width.W32 -> 2

let uses_esi = function Insn.Movs | Insn.Lods -> true | Insn.Stos -> false
let uses_edi = function Insn.Movs | Insn.Stos -> true | Insn.Lods -> false

let rewrite ~fresh ~free ~flags_live ~op ~width ~rep =
  let k = width_shift width in
  let insn = Insn.Str (op, width, rep) in
  (* EAX is clobbered by the translate helper, so it can never be scratch *)
  let used = Reg.EAX :: (Insn.regs_read insn @ Insn.regs_written insn) in
  let r1, r2, r3, spilled = Svm_emit.pick_scratch ~free ~used in
  let slot_r r =
    if Reg.equal r r1 then Symbols.scratch_slot 0
    else if Reg.equal r r2 then Symbols.scratch_slot 1
    else Symbols.scratch_slot 2
  in
  let items = ref [] in
  let ins i = items := Program.Ins i :: !items in
  let lbl l = items := Program.Label l :: !items in
  let mov src dst = ins (Insn.Mov (Width.W32, src, dst)) in
  let rg r = Operand.Reg r in
  let translate r =
    (* r <- __svm_translate r ; clobbers EAX *)
    ins (Insn.Push (rg r));
    ins (Insn.Call (Insn.Lbl Symbols.svm_translate));
    ins (Insn.Alu (Insn.Add, Operand.Imm 4, rg Reg.ESP));
    mov (rg Reg.EAX) (rg r)
  in
  let room dst_reg tmp =
    (* tmp <- page_size - (dst_reg land page_mask), i.e. bytes to page end *)
    mov (rg dst_reg) (rg tmp);
    ins (Insn.Alu (Insn.And, Operand.Imm Td_mem.Layout.page_mask, rg tmp));
    ins (Insn.Neg (rg tmp));
    ins (Insn.Alu (Insn.Add, Operand.Imm Td_mem.Layout.page_size, rg tmp))
  in
  if flags_live then ins Insn.Pushf;
  List.iter (fun r -> mov (rg r) (slot_r r)) spilled;
  mov (rg Reg.EAX) (Symbols.scratch_slot slot_eax);
  if not rep then begin
    (* single element: translate the pointer(s), run the op, rebase the
       original pointers past the element *)
    if uses_esi op then begin
      mov (rg Reg.ESI) (Symbols.scratch_slot slot_esi);
      translate Reg.ESI
    end;
    if uses_edi op then begin
      mov (rg Reg.EDI) (Symbols.scratch_slot slot_edi);
      translate Reg.EDI
    end;
    if op = Insn.Stos then mov (Symbols.scratch_slot slot_eax) (rg Reg.EAX);
    ins (Insn.Str (op, width, false));
    if op = Insn.Lods then mov (rg Reg.EAX) (Symbols.scratch_slot slot_eax);
    if uses_esi op then begin
      mov (Symbols.scratch_slot slot_esi) (rg Reg.ESI);
      ins (Insn.Alu (Insn.Add, Operand.Imm (Width.bytes width), rg Reg.ESI))
    end;
    if uses_edi op then begin
      mov (Symbols.scratch_slot slot_edi) (rg Reg.EDI);
      ins (Insn.Alu (Insn.Add, Operand.Imm (Width.bytes width), rg Reg.EDI))
    end;
    mov (Symbols.scratch_slot slot_eax) (rg Reg.EAX)
  end
  else begin
    let l_loop = fresh "sloop"
    and l_end = fresh "send"
    and l_min1 = fresh "smin1"
    and l_nz = fresh "snz"
    and l_min2 = fresh "smin2" in
    lbl l_loop;
    ins (Insn.Cmp (Operand.Imm 0, rg Reg.ECX));
    ins (Insn.Jcc (Cond.E, Insn.Lbl l_end));
    (* r1 = min over the pointers of bytes-to-page-end *)
    if uses_esi op then room Reg.ESI r1 else room Reg.EDI r1;
    if uses_esi op && uses_edi op then begin
      room Reg.EDI r2;
      ins (Insn.Cmp (rg r2, rg r1));
      ins (Insn.Jcc (Cond.BE, Insn.Lbl l_min1));
      mov (rg r2) (rg r1);
      lbl l_min1
    end;
    (* r3 = chunk in elements = max(r1 >> k, 1), capped by remaining ECX.
       The forced minimum of one element may straddle the page end; this is
       safe because the miss handler always maps page pairs. *)
    mov (rg r1) (rg r3);
    if k > 0 then begin
      ins (Insn.Shift (Insn.Shr, Operand.Imm k, rg r3));
      ins (Insn.Cmp (Operand.Imm 0, rg r3));
      ins (Insn.Jcc (Cond.NE, Insn.Lbl l_nz));
      mov (Operand.Imm 1) (rg r3);
      lbl l_nz
    end;
    ins (Insn.Cmp (rg Reg.ECX, rg r3));
    ins (Insn.Jcc (Cond.BE, Insn.Lbl l_min2));
    mov (rg Reg.ECX) (rg r3);
    lbl l_min2;
    (* stash original pointers, switch to translated ones *)
    if uses_esi op then begin
      mov (rg Reg.ESI) (Symbols.scratch_slot slot_esi);
      translate Reg.ESI
    end;
    if uses_edi op then begin
      mov (rg Reg.EDI) (Symbols.scratch_slot slot_edi);
      translate Reg.EDI
    end;
    (* r2 = remaining count after this chunk; ECX = chunk *)
    mov (rg Reg.ECX) (rg r2);
    ins (Insn.Alu (Insn.Sub, rg r3, rg r2));
    mov (rg r3) (rg Reg.ECX);
    if op = Insn.Stos then mov (Symbols.scratch_slot slot_eax) (rg Reg.EAX);
    ins (Insn.Str (op, width, true));
    if op = Insn.Lods then mov (rg Reg.EAX) (Symbols.scratch_slot slot_eax);
    (* rebase the original pointers past the chunk *)
    if k > 0 then ins (Insn.Shift (Insn.Shl, Operand.Imm k, rg r3));
    if uses_esi op then begin
      mov (Symbols.scratch_slot slot_esi) (rg Reg.ESI);
      ins (Insn.Alu (Insn.Add, rg r3, rg Reg.ESI))
    end;
    if uses_edi op then begin
      mov (Symbols.scratch_slot slot_edi) (rg Reg.EDI);
      ins (Insn.Alu (Insn.Add, rg r3, rg Reg.EDI))
    end;
    mov (rg r2) (rg Reg.ECX);
    ins (Insn.Jmp (Insn.Lbl l_loop));
    lbl l_end;
    mov (Symbols.scratch_slot slot_eax) (rg Reg.EAX)
  end;
  List.iter (fun r -> mov (slot_r r) (rg r)) spilled;
  if flags_live then ins Insn.Popf;
  List.rev !items
