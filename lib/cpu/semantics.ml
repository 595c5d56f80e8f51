(* Single-instruction execution semantics for MISA, shared between the
   interpreter's block engine ([Interp]) and compiled superblocks
   ([Superblock]). Everything here operates on the architectural
   [State.t] directly; the interpreter record only adds dispatch policy,
   caches and counters on top. Executing [exec_insn] one instruction at
   a time is the reference both engines must match. *)

exception Fault of string
exception Timeout of int

let ret_sentinel = 0xFFFF_FFF0
let mask32 v = v land 0xFFFFFFFF
let sign_bit = 0x80000000

open Td_misa

(* --- memory access with cost accounting --- *)

(* The cost model for one access to [addr], whose page resolved to [m]
   (the stored option of [Addr_space.lookup]): base cost, TLB model, and
   either the physical cache model or the MMIO surcharge. *)
let[@inline] charge st addr m =
  let costs = st.State.costs in
  let cost = ref costs.Cost_model.mem_access in
  if not (Tlb.access st.State.tlb (Td_mem.Layout.page_of addr)) then
    cost := !cost + costs.Cost_model.tlb_miss;
  (match m with
  | Some (Td_mem.Addr_space.Frame frame) ->
      let paddr =
        (frame lsl Td_mem.Layout.page_shift) lor Td_mem.Layout.offset_of addr
      in
      if not (Cache.access st.State.cache paddr) then
        cost := !cost + costs.Cost_model.cache_miss
  | Some (Td_mem.Addr_space.Device _) | None ->
      (* device page or unmapped (the access itself will fault if
         unmapped); MMIO is an uncached PCI transaction *)
      cost := !cost + costs.Cost_model.mmio);
  State.add_cycles st !cost

let lookup space addr =
  Td_mem.Addr_space.lookup space ~vpage:(Td_mem.Layout.page_of addr)

let charge_access st addr w =
  ignore w;
  charge st addr (lookup (State.space_for st addr) addr)

let straddles addr w =
  Td_mem.Layout.offset_of addr + Width.bytes w > Td_mem.Layout.page_size

(* One page-table walk serves both the cost model and the data access.
   A page-straddling access goes through [Addr_space] for its precise
   split; an unmapped page faults after the charge, and a stale mapping
   to a freed frame raises [Bad_frame] from [Phys_mem]. *)
let load st addr w =
  let space = State.space_for st addr in
  let m = lookup space addr in
  charge st addr m;
  if straddles addr w then Td_mem.Addr_space.read space addr w
  else Td_mem.Addr_space.read_mapped space m addr w

let store st addr w v =
  let space = State.space_for st addr in
  let m = lookup space addr in
  charge st addr m;
  if straddles addr w then Td_mem.Addr_space.write space addr w v
  else Td_mem.Addr_space.write_mapped space m addr w v

(* --- operand evaluation --- *)

let addr_of_mem st (m : Operand.mem) =
  let base = match m.Operand.base with Some r -> State.get st r | None -> 0 in
  let index =
    match m.Operand.index with
    | Some (r, s) -> State.get st r * Operand.scale_factor s
    | None -> 0
  in
  (match m.Operand.sym with
  | Some s -> raise (Fault ("unresolved symbol in operand: " ^ s))
  | None -> ());
  mask32 (m.Operand.disp + base + index)

let eval st w = function
  | Operand.Imm n -> n land Width.mask w
  | Operand.Reg r -> State.get st r land Width.mask w
  | Operand.Mem m -> load st (addr_of_mem st m) w

let assign st w dst v =
  match dst with
  | Operand.Imm _ -> raise (Fault "store to immediate")
  | Operand.Reg r -> State.set_narrow st w r v
  | Operand.Mem m -> store st (addr_of_mem st m) w v

(* 32-bit specialisations of [eval]/[assign] for the dominant case:
   registers are kept 32-bit by [State.set], so the width mask is
   redundant, and W32 [set_narrow] is just [set] *)
let eval32 st = function
  | Operand.Imm n -> n land 0xFFFFFFFF
  | Operand.Reg r -> State.get st r
  | Operand.Mem m -> load st (addr_of_mem st m) Width.W32

let assign32 st dst v =
  match dst with
  | Operand.Imm _ -> raise (Fault "store to immediate")
  | Operand.Reg r -> State.set st r v
  | Operand.Mem m -> store st (addr_of_mem st m) Width.W32 v

(* --- flags --- *)

let[@inline] set_zs st v =
  st.State.zf <- mask32 v = 0;
  st.State.sf <- v land sign_bit <> 0

let[@inline] flags_logic st v =
  set_zs st v;
  st.State.cf <- false;
  st.State.ovf <- false

let[@inline] flags_add st a b r =
  set_zs st r;
  st.State.cf <- a + b > 0xFFFFFFFF;
  st.State.ovf <- (a lxor r) land (b lxor r) land sign_bit <> 0

let[@inline] flags_sub st dst src r =
  set_zs st r;
  st.State.cf <- dst < src;
  st.State.ovf <- (dst lxor src) land (dst lxor r) land sign_bit <> 0

let cond_true st = function
  | Cond.E -> st.State.zf
  | Cond.NE -> not st.State.zf
  | Cond.L -> st.State.sf <> st.State.ovf
  | Cond.LE -> st.State.zf || st.State.sf <> st.State.ovf
  | Cond.G -> (not st.State.zf) && st.State.sf = st.State.ovf
  | Cond.GE -> st.State.sf = st.State.ovf
  | Cond.B -> st.State.cf
  | Cond.BE -> st.State.cf || st.State.zf
  | Cond.A -> (not st.State.cf) && not st.State.zf
  | Cond.AE -> not st.State.cf
  | Cond.S -> st.State.sf
  | Cond.NS -> not st.State.sf

(* --- control transfer --- *)

let target_addr st = function
  | Insn.Lbl l -> raise (Fault ("unresolved label: " ^ l))
  | Insn.Abs a -> a
  | Insn.Ind o -> eval32 st o

let do_call ~natives st dest =
  State.add_cycles st st.State.costs.Cost_model.call;
  if Native.is_native_addr dest then begin
    match Native.lookup natives dest with
    | Some fn ->
        State.add_cycles st st.State.costs.Cost_model.native_call;
        (* Native routines may re-enter the interpreter (upcalls), which
           clobbers [pc]; resume at the instruction after the call. The
           return address is pushed so that [State.stack_arg] sees the
           same frame layout as in a simulated call, and popped here in
           lieu of the callee's [ret]. *)
        let resume = st.State.pc + 4 in
        State.push st resume;
        fn st;
        ignore (State.pop st);
        st.State.pc <- resume
    | None -> raise (Fault (Printf.sprintf "call to unregistered native 0x%x" dest))
  end
  else begin
    State.push st (st.State.pc + 4);
    st.State.pc <- dest
  end

let do_jump st dest =
  if Native.is_native_addr dest then
    raise (Fault (Printf.sprintf "jump to native address 0x%x" dest));
  st.State.pc <- dest

(* --- string operations --- *)

let str_step st op w =
  let n = Width.bytes w in
  State.add_cycles st st.State.costs.Cost_model.str_unit;
  (match op with
  | Insn.Movs ->
      let src = State.get st Reg.ESI and dst = State.get st Reg.EDI in
      let v = load st src w in
      store st dst w v;
      State.set st Reg.ESI (src + n);
      State.set st Reg.EDI (dst + n)
  | Insn.Stos ->
      let dst = State.get st Reg.EDI in
      store st dst w (State.get st Reg.EAX land Width.mask w);
      State.set st Reg.EDI (dst + n)
  | Insn.Lods ->
      let src = State.get st Reg.ESI in
      let v = load st src w in
      State.set_narrow st w Reg.EAX v;
      State.set st Reg.ESI (src + n))

let exec_str st op w rep =
  if not rep then str_step st op w
  else
    while State.get st Reg.ECX <> 0 do
      (* each element consumes call budget: a corrupted (or hostile) huge
         ECX must trip the timeout guard, not spin the watchdog forever *)
      if st.State.fuel <= 0 then raise (Timeout st.State.fuel_cap);
      st.State.fuel <- st.State.fuel - 1;
      str_step st op w;
      State.set st Reg.ECX (State.get st Reg.ECX - 1)
    done

(* --- main dispatch --- *)

(* Dual-issue model: a register-only move/ALU instruction pairs with an
   immediately preceding simple instruction and issues for free. This is
   the superscalar effect that keeps the SVM fast path (mostly simple ALU
   work) cheaper than ten sequential cycles. *)
let is_simple = function
  | Insn.Mov (_, (Operand.Imm _ | Operand.Reg _), Operand.Reg _)
  | Insn.Lea (_, _)
  | Insn.Alu (_, (Operand.Imm _ | Operand.Reg _), Operand.Reg _)
  | Insn.Shift (_, (Operand.Imm _ | Operand.Reg _), Operand.Reg _)
  | Insn.Cmp ((Operand.Imm _ | Operand.Reg _), Operand.Reg _)
  | Insn.Test ((Operand.Imm _ | Operand.Reg _), Operand.Reg _)
  | Insn.Inc (Operand.Reg _)
  | Insn.Dec (Operand.Reg _)
  | Insn.Nop ->
      true
  | _ -> false

(* top-level so the hot loop does not allocate a closure per instruction *)
let advance st = st.State.pc <- st.State.pc + 4

(* The issue/pairing preamble of [exec_insn], separated so superblock
   compilation can account for issue cycles statically (the pair-slot
   evolution is data-independent given the instruction sequence and the
   entry slot state) while still executing [exec_body] for the effects. *)
let issue st insn =
  let simple = is_simple insn in
  if simple && st.State.pair_slot then
    (* issues in the previous instruction's empty slot *)
    st.State.pair_slot <- false
  else begin
    State.add_cycles st st.State.costs.Cost_model.insn;
    st.State.pair_slot <- simple
  end

let exec_body ~natives st insn =
  match insn with
  | Insn.Mov (w, src, dst) ->
      let v = eval st w src in
      assign st w dst v;
      advance st
  | Insn.Movzx (w, src, r) ->
      let v = eval st w src in
      State.set st r (v land Width.mask w);
      advance st
  | Insn.Lea (m, r) ->
      State.set st r (addr_of_mem st m);
      advance st
  | Insn.Alu (op, src, dst) ->
      let a = eval32 st src and b = eval32 st dst in
      let r =
        match op with
        | Insn.Add ->
            let r = mask32 (b + a) in
            flags_add st a b r;
            r
        | Insn.Sub ->
            let r = mask32 (b - a) in
            flags_sub st b a r;
            r
        | Insn.Adc ->
            let carry = if st.State.cf then 1 else 0 in
            let r = mask32 (b + a + carry) in
            set_zs st r;
            st.State.cf <- b + a + carry > 0xFFFFFFFF;
            st.State.ovf <- (a lxor r) land (b lxor r) land sign_bit <> 0;
            r
        | Insn.Sbb ->
            let borrow = if st.State.cf then 1 else 0 in
            let r = mask32 (b - a - borrow) in
            set_zs st r;
            st.State.cf <- b < a + borrow;
            st.State.ovf <- (b lxor a) land (b lxor r) land sign_bit <> 0;
            r
        | Insn.And ->
            let r = b land a in
            flags_logic st r;
            r
        | Insn.Or ->
            let r = b lor a in
            flags_logic st r;
            r
        | Insn.Xor ->
            let r = b lxor a in
            flags_logic st r;
            r
      in
      assign32 st dst r;
      advance st
  | Insn.Shift (op, cnt, dst) ->
      let c = eval32 st cnt land 31 in
      let v = eval32 st dst in
      let r =
        if c = 0 then v
        else
          match op with
          | Insn.Shl ->
              st.State.cf <- (v lsr (32 - c)) land 1 = 1;
              mask32 (v lsl c)
          | Insn.Shr ->
              st.State.cf <- (v lsr (c - 1)) land 1 = 1;
              v lsr c
          | Insn.Sar ->
              let signed = if v land sign_bit <> 0 then v - 0x1_0000_0000 else v in
              st.State.cf <- (signed asr (c - 1)) land 1 = 1;
              mask32 (signed asr c)
      in
      if c <> 0 then set_zs st r;
      assign32 st dst r;
      advance st
  | Insn.Cmp (src, dst) ->
      let a = eval32 st src and b = eval32 st dst in
      flags_sub st b a (mask32 (b - a));
      advance st
  | Insn.Test (src, dst) ->
      let a = eval32 st src and b = eval32 st dst in
      flags_logic st (a land b);
      advance st
  | Insn.Inc o ->
      let v = mask32 (eval32 st o + 1) in
      set_zs st v;
      assign32 st o v;
      advance st
  | Insn.Dec o ->
      let v = mask32 (eval32 st o - 1) in
      set_zs st v;
      assign32 st o v;
      advance st
  | Insn.Neg o ->
      let v = eval32 st o in
      let r = mask32 (-v) in
      set_zs st r;
      st.State.cf <- v <> 0;
      assign32 st o r;
      advance st
  | Insn.Not o ->
      assign32 st o (mask32 (lnot (eval32 st o)));
      advance st
  | Insn.Imul (src, r) ->
      let signed v = if v land sign_bit <> 0 then v - 0x1_0000_0000 else v in
      let full = signed (eval32 st src) * signed (State.get st r) in
      let v = mask32 full in
      set_zs st v;
      (* x86: CF = OF = 1 when the signed product does not fit in 32 bits *)
      let overflow = full < -0x8000_0000 || full > 0x7FFF_FFFF in
      st.State.cf <- overflow;
      st.State.ovf <- overflow;
      State.set st r v;
      advance st
  | Insn.Xchg (o, r) ->
      let ov = eval32 st o in
      let rv = State.get st r in
      assign32 st o rv;
      State.set st r ov;
      advance st
  | Insn.Push o ->
      let v = eval32 st o in
      charge_access st (State.get st Reg.ESP - 4) Width.W32;
      State.push st v;
      advance st
  | Insn.Pop o ->
      charge_access st (State.get st Reg.ESP) Width.W32;
      let v = State.pop st in
      assign32 st o v;
      advance st
  | Insn.Jmp tgt -> do_jump st (target_addr st tgt)
  | Insn.Jcc (c, tgt) ->
      (* [tgt] is a pre-resolved [Abs] after assembly, so a taken branch
         costs an assignment, not a label-string hash *)
      if cond_true st c then st.State.pc <- target_addr st tgt else advance st
  | Insn.Call tgt -> do_call ~natives st (target_addr st tgt)
  | Insn.Ret ->
      charge_access st (State.get st Reg.ESP) Width.W32;
      State.add_cycles st st.State.costs.Cost_model.call;
      st.State.pc <- State.pop st
  | Insn.Str (op, w, rep) ->
      exec_str st op w rep;
      advance st
  | Insn.Pushf ->
      let v =
        (if st.State.zf then 1 else 0)
        lor (if st.State.sf then 2 else 0)
        lor (if st.State.cf then 4 else 0)
        lor if st.State.ovf then 8 else 0
      in
      charge_access st (State.get st Reg.ESP - 4) Width.W32;
      State.push st v;
      advance st
  | Insn.Popf ->
      charge_access st (State.get st Reg.ESP) Width.W32;
      let v = State.pop st in
      st.State.zf <- v land 1 <> 0;
      st.State.sf <- v land 2 <> 0;
      st.State.cf <- v land 4 <> 0;
      st.State.ovf <- v land 8 <> 0;
      advance st
  | Insn.Nop -> advance st
  | Insn.Hlt -> st.State.pc <- ret_sentinel

let exec_insn ~natives st insn =
  issue st insn;
  exec_body ~natives st insn
