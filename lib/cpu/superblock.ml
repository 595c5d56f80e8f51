(* Superblock compiler: lowers a hot straight-line region of MISA code
   into a single fused OCaml closure.

   A superblock starts at a basic-block head and extends through
   unconditional [Jmp]/fallthrough edges (stitching) up to a size cap;
   conditional branches become side exits, and anything the closure
   cannot fuse (calls, returns, indirect jumps, [Hlt]) ends the trace
   just before itself so the interpreter's per-block engine executes it.

   Four optimisations over per-instruction dispatch, all invisible in
   the simulated (cycles, steps) and in the TLB and cache counters:

   - issue cycles and step counts are aggregated statically per trace
     (the dual-issue pairing evolution is data-independent given the
     instruction sequence and the entry pair-slot state, which [run]
     demands to be clear);

   - flag computation is lazy: a flag-setting instruction whose flags
     are provably dead (overwritten before any read, side exit or
     possible fault) skips materialising them;

   - every memory operand has a translation memo that outlives the run:
     while its vpage still maps the frame it cached and no frame has
     been freed, an access skips the frame lookup, and TLB and cache
     hit witnesses skip those models' lookups, while every access is
     still charged and counted exactly;

   - the SVM rewriter's nine-instruction inline probe (Fig 4) is one op.

   Abort accounting: a fault inside the closure charges the cycles,
   steps and fuel of the prefix up to and including the faulting
   instruction and restores its pc, exactly as executing one instruction
   at a time would, then re-raises. *)

open Td_misa

let mask32 = Semantics.mask32
let pshift = Td_mem.Layout.page_shift
let pmask = Td_mem.Layout.page_size - 1
let pmax32 = Td_mem.Layout.page_size - 4

let rd st i = Array.unsafe_get st.State.regs i
let wr st i v = Array.unsafe_set st.State.regs i v

(* --- trace construction --- *)

type ekind =
  | K_straight
  | K_stitch  (* in-program [Jmp Abs]: one issued step, zero runtime work *)
  | K_cond of Cond.t * int  (* [Jcc]: taken -> side exit to the address *)

type entry = { e_insn : Insn.t; e_pc : int; e_kind : ekind }

(* Walk forward from [idx], stitching through unconditional jumps that
   stay inside the program (a backward jump re-enters the trace, so a
   small loop unrolls until the cap). Returns the executed entries and
   the code address control reaches when the trace runs off its end. *)
let build_trace ~cap (prog : Program.t) idx =
  let code = prog.Program.code in
  let n = Array.length code in
  let base = prog.Program.base in
  let pc_of i = base + (4 * i) in
  let rec go acc count i =
    if i >= n || count >= cap then (List.rev acc, pc_of i)
    else
      let insn = code.(i) in
      let pc = pc_of i in
      match insn with
      | Insn.Jmp (Insn.Abs a)
        when a >= base && a < base + (4 * n) && (a - base) land 3 = 0 ->
          go
            ({ e_insn = insn; e_pc = pc; e_kind = K_stitch } :: acc)
            (count + 1)
            ((a - base) lsr 2)
      | Insn.Jcc (c, Insn.Abs a) ->
          go
            ({ e_insn = insn; e_pc = pc; e_kind = K_cond (c, a) } :: acc)
            (count + 1) (i + 1)
      | Insn.Jmp _ | Insn.Jcc (_, _) | Insn.Call _ | Insn.Ret | Insn.Hlt ->
          (* terminators run on the interpreter's block engine: the
             trace ends just before them *)
          (List.rev acc, pc)
      | _ ->
          go
            ({ e_insn = insn; e_pc = pc; e_kind = K_straight } :: acc)
            (count + 1) (i + 1)
  in
  go [] 0 idx

(* --- flag liveness --- *)

(* Flag bitmask: Z=1, S=2, C=4, O=8. *)
let fl_all = 0b1111

let fl_writes = function
  | Insn.Alu (_, _, _) | Insn.Cmp (_, _) | Insn.Test (_, _) | Insn.Imul (_, _)
    ->
      fl_all
  | Insn.Inc _ | Insn.Dec _ -> 0b0011
  | Insn.Neg _ -> 0b0111
  | Insn.Shift (_, _, _) -> 0b0111 (* only when the count is non-zero *)
  | Insn.Popf -> fl_all
  | _ -> 0

(* Flags an instruction overwrites unconditionally and before any point
   where it could fault — only these may kill a pending dead store. *)
let fl_kills = function
  | Insn.Shift (_, _, _) -> 0 (* writes nothing when the count is zero *)
  | Insn.Popf -> 0 (* the pop may fault first *)
  | i -> fl_writes i

let fl_reads = function
  | Insn.Jcc (_, _) | Insn.Pushf -> fl_all
  | Insn.Alu ((Insn.Adc | Insn.Sbb), _, _) -> 0b0100
  | _ -> 0

let imm_dst = function
  | Insn.Mov (_, _, Operand.Imm _)
  | Insn.Alu (_, _, Operand.Imm _)
  | Insn.Shift (_, _, Operand.Imm _)
  | Insn.Inc (Operand.Imm _)
  | Insn.Dec (Operand.Imm _)
  | Insn.Neg (Operand.Imm _)
  | Insn.Not (Operand.Imm _)
  | Insn.Xchg (Operand.Imm _, _)
  | Insn.Pop (Operand.Imm _) ->
      true
  | _ -> false

(* Conservative: can executing this instruction raise (Fault, Page_fault,
   Timeout)? Stitched jumps and in-trace [Jcc] are pre-resolved [Abs]
   and never raise. *)
let may_raise insn =
  match insn with
  | Insn.Nop -> false
  | Insn.Lea (m, _) -> m.Operand.sym <> None
  | Insn.Push _ | Insn.Pop _ | Insn.Pushf | Insn.Popf | Insn.Str (_, _, _)
  | Insn.Call _ | Insn.Ret ->
      true
  | Insn.Jmp (Insn.Abs _) | Insn.Jcc (_, Insn.Abs _) -> false
  | Insn.Jmp _ | Insn.Jcc (_, _) -> true
  | _ -> imm_dst insn || Insn.mem_operands insn <> []

(* An instruction's flag write may be skipped only if nothing inside the
   instruction itself can fault after the flags move — a memory (or
   immediate) destination is stored after the flags are set, so a store
   fault would leave the reference's flags written but compiled flags
   not. *)
let flag_write_final = function
  | Insn.Alu (_, _, (Operand.Mem _ | Operand.Imm _))
  | Insn.Shift (_, _, (Operand.Mem _ | Operand.Imm _))
  | Insn.Inc (Operand.Mem _ | Operand.Imm _)
  | Insn.Dec (Operand.Mem _ | Operand.Imm _)
  | Insn.Neg (Operand.Mem _ | Operand.Imm _)
  | Insn.Popf ->
      false
  | _ -> true

(* May step [s] skip materialising its flags? True iff every flag it
   writes is overwritten before any read — where side exits, faults and
   the end of the trace all count as reads, since the next consumer is
   outside the block. *)
let elide_flags ents s =
  let e = ents.(s) in
  let w = fl_writes e.e_insn in
  let rec scan live t =
    if live = 0 then true
    else if t >= Array.length ents then false (* escapes the trace *)
    else
      let it = ents.(t).e_insn in
      if live land fl_reads it <> 0 then false
      else if may_raise it then false
      else scan (live land lnot (fl_kills it)) (t + 1)
  in
  w <> 0 && flag_write_final e.e_insn && scan w (s + 1)

(* --- translation memos --- *)

module A = Td_mem.Addr_space
module P = Td_mem.Phys_mem

(* One memo per memory operand (a "site"). It holds the translation the
   site last made from a frame-backed page: the vpage, and the physical
   base address of the frame [Addr_space.lookup] returned for it. A
   lookup that returns the same frame for the same vpage again is a hit,
   whichever space it walked and whatever mappings came and went in
   between: every space a CPU reaches is over one [Phys_mem], the
   access reads and writes the frame's buffer, and [Semantics.charge]
   depends only on the vpage (the TLB) and the physical address (the
   cache). The frame itself may have been freed (and reused) behind a
   stale mapping in the meantime; [Phys_mem.free_epoch] moves on every
   free, so a slot whose [s_free] still reads the current epoch holds
   the frame's own live buffer. While both checks hold, the site skips
   the frame lookup and reuses [s_bytes]; nothing else invalidates it,
   so a slot outlives runs of its superblock, device accesses and TLB
   flushes alike. A fresh slot's [s_free] of -1 matches no epoch.

   The witnesses are the TLB's and the cache's change counters, and the
   physical address, recorded right after the slot's last access. On a
   memo hit the access is to the same page, so {!Tlb.access_since} and
   {!Cache.access_since} may count their hits without looking while
   nothing has been evicted since. *)
type slot = {
  mutable s_vpage : int;  (* the vpage translated *)
  mutable s_bytes : Bytes.t;  (* the frame's own buffer ([Phys_mem.page]) *)
  mutable s_frame : int;  (* the frame's physical base address *)
  mutable s_free : int;  (* [Phys_mem.free_epoch] when [s_bytes] was taken *)
  mutable s_tlb : int;  (* [Tlb.changes] after the last access *)
  mutable s_paddr : int;  (* the last access's physical address *)
  mutable s_cache : int;  (* [Cache.changes] after the last access *)
}

let new_slot () =
  {
    s_vpage = -1;
    s_bytes = Bytes.empty;
    s_frame = 0;
    s_free = -1;
    s_tlb = -1;
    s_paddr = 0;
    s_cache = -1;
  }

type ctx = {
  c_hits : int ref;  (* accesses served by a memo ([interp.stlb_elided]) *)
  c_walks : int ref;  (* memo misses: a page-table walk and a refill *)
}

(* A device or unmapped entry is negative, so it never matches
   [s_frame]. *)
let[@inline] memo_hit slot space vpage (e : A.entry) =
  vpage = slot.s_vpage
  && (e :> int) lsl pshift = slot.s_frame
  && slot.s_free = P.free_epoch (A.phys space)

(* Record the witnesses an access at [paddr] just left. *)
let[@inline] witness slot st paddr =
  slot.s_tlb <- Tlb.changes st.State.tlb;
  slot.s_paddr <- paddr;
  slot.s_cache <- Cache.changes st.State.cache

(* Charge a memo-hit access at [addr] exactly as [Semantics.charge]
   charges a frame-backed access, through the witnesses. *)
let[@inline] charge_hit slot st addr =
  let paddr = slot.s_frame lor (addr land pmask) in
  let tlb_hit =
    Tlb.access_since st.State.tlb (addr lsr pshift) ~since:slot.s_tlb
  in
  let cache_hit =
    Cache.access_since st.State.cache paddr ~prev:slot.s_paddr
      ~since:slot.s_cache
  in
  witness slot st paddr;
  State.add_cycles st
    (Semantics.frame_cost st.State.costs ~tlb_hit ~cache_hit)

(* Refill after [Semantics.charge] has charged an access at [addr] whose
   [vpage] maps frame [f]: take the frame's own writable buffer (never
   the shared zero page a never-written frame reads through, since the
   memo serves stores too), which raises [Bad_frame] for a freed frame
   exactly where the reference's access would, and record the witnesses
   the charge just left. The buffer is written only when it changes,
   which spares the write barrier. *)
let refill slot st space vpage addr f =
  let b = P.page (A.phys space) f in
  slot.s_vpage <- vpage;
  if slot.s_bytes != b then slot.s_bytes <- b;
  slot.s_frame <- f lsl pshift;
  slot.s_free <- P.free_epoch (A.phys space);
  witness slot st (slot.s_frame lor (addr land pmask))

(* The memo paths below serve an access that stays within its page; a
   page-straddling one takes the [Semantics] path, which splits it. A
   miss on a device or an unmapped page leaves the slot as it was. *)

let memo_load ctx slot st addr =
  let off = addr land pmask in
  if off > pmax32 then Semantics.load st addr Width.W32
  else
    let space = State.space_for st addr in
    let vpage = addr lsr pshift in
    let e = A.lookup space ~vpage in
    if memo_hit slot space vpage e then begin
      incr ctx.c_hits;
      charge_hit slot st addr;
      Int32.to_int (Bytes.get_int32_le slot.s_bytes off) land 0xFFFFFFFF
    end
    else begin
      incr ctx.c_walks;
      Semantics.charge st addr e;
      if (e :> int) >= 0 then begin
        refill slot st space vpage addr (e :> int);
        Int32.to_int (Bytes.get_int32_le slot.s_bytes off) land 0xFFFFFFFF
      end
      else A.read_mapped space e addr Width.W32
    end

let memo_store ctx slot st addr v =
  let off = addr land pmask in
  if off > pmax32 then Semantics.store st addr Width.W32 v
  else
    let space = State.space_for st addr in
    let vpage = addr lsr pshift in
    let e = A.lookup space ~vpage in
    if memo_hit slot space vpage e then begin
      incr ctx.c_hits;
      charge_hit slot st addr;
      Bytes.set_int32_le slot.s_bytes off (Int32.of_int v)
    end
    else begin
      incr ctx.c_walks;
      Semantics.charge st addr e;
      if (e :> int) >= 0 then begin
        refill slot st space vpage addr (e :> int);
        Bytes.set_int32_le slot.s_bytes off (Int32.of_int v)
      end
      else A.write_mapped space e addr Width.W32 v
    end

(* [Semantics.push]/[pop] through a memo, at the unmasked [ESP - 4] or
   [ESP] they access. The reference charges, then moves ESP, then
   accesses, so a faulting push leaves ESP moved and a faulting pop
   leaves it where it was; a charge neither reads ESP nor raises, so
   moving ESP before the store is the same thing. *)
let esp = Reg.index Reg.ESP

let memo_push ctx slot st v =
  let sp = rd st esp - 4 in
  wr st esp (sp land 0xFFFFFFFF);
  memo_store ctx slot st sp v

let memo_pop ctx slot st =
  let sp = rd st esp in
  let v = memo_load ctx slot st sp in
  wr st esp ((sp + 4) land 0xFFFFFFFF);
  v

(* Memoisable operand: a resolved symbol and no index — one base register
   or none at all (an absolute [disp], such as an SVM spill slot).
   Everything else takes the ordinary [Semantics] path. *)
let gen_load32 ctx (m : Operand.mem) : State.t -> int =
  match (m.Operand.base, m.Operand.index, m.Operand.sym) with
  | Some r, None, None ->
      let ri = Reg.index r and disp = m.Operand.disp and slot = new_slot () in
      fun st -> memo_load ctx slot st ((rd st ri + disp) land 0xFFFFFFFF)
  | None, None, None ->
      let addr = mask32 m.Operand.disp and slot = new_slot () in
      fun st -> memo_load ctx slot st addr
  | _ -> fun st -> Semantics.load st (Semantics.addr_of_mem st m) Width.W32

let gen_store32 ctx (m : Operand.mem) : State.t -> int -> unit =
  match (m.Operand.base, m.Operand.index, m.Operand.sym) with
  | Some r, None, None ->
      let ri = Reg.index r and disp = m.Operand.disp and slot = new_slot () in
      fun st v -> memo_store ctx slot st ((rd st ri + disp) land 0xFFFFFFFF) v
  | None, None, None ->
      let addr = mask32 m.Operand.disp and slot = new_slot () in
      fun st v -> memo_store ctx slot st addr v
  | _ ->
      fun st v -> Semantics.store st (Semantics.addr_of_mem st m) Width.W32 v

let gen_eval32 ctx : Operand.t -> State.t -> int = function
  | Operand.Imm n ->
      let n = n land 0xFFFFFFFF in
      fun _ -> n
  | Operand.Reg r ->
      let i = Reg.index r in
      fun st -> rd st i
  | Operand.Mem m -> gen_load32 ctx m

(* --- per-instruction code generation --- *)

(* Lower one straight-line instruction into a closure continuing with
   [k]. [flags] = materialise the flag writes (false only when liveness
   proved them dead). Anything without a specialised template falls back
   to [Semantics.exec_body], which is exactly the one-instruction
   semantics minus the (statically accounted) issue preamble; its [pc]
   advance is harmless — nothing inside a trace reads [pc], and every
   exit overwrites it. *)
let gen_straight ctx ~natives ~flags insn (k : State.t -> unit) : State.t -> unit
    =
  let generic () st =
    Semantics.exec_body ~natives st insn;
    k st
  in
  match insn with
  | Insn.Nop -> k
  | Insn.Mov (Width.W32, src, Operand.Reg d) -> (
      let di = Reg.index d in
      match src with
      | Operand.Imm n ->
          let n = n land 0xFFFFFFFF in
          fun st ->
            wr st di n;
            k st
      | Operand.Reg s ->
          let si = Reg.index s in
          fun st ->
            wr st di (rd st si);
            k st
      | Operand.Mem m ->
          let ld = gen_load32 ctx m in
          fun st ->
            wr st di (ld st);
            k st)
  | Insn.Mov (Width.W32, ((Operand.Imm _ | Operand.Reg _) as src), Operand.Mem m)
    ->
      let v = gen_eval32 ctx src in
      let stw = gen_store32 ctx m in
      fun st ->
        let x = v st in
        stw st x;
        k st
  | Insn.Lea (m, d) when m.Operand.sym = None -> (
      let di = Reg.index d in
      match (m.Operand.base, m.Operand.index) with
      | Some b, None ->
          let bi = Reg.index b and disp = m.Operand.disp in
          fun st ->
            wr st di ((rd st bi + disp) land 0xFFFFFFFF);
            k st
      | _ ->
          fun st ->
            wr st di (Semantics.addr_of_mem st m);
            k st)
  | Insn.Alu (op, src, Operand.Reg d) -> (
      let di = Reg.index d in
      let a = gen_eval32 ctx src in
      match (op, flags) with
      | Insn.Add, false ->
          fun st ->
            let av = a st in
            wr st di ((rd st di + av) land 0xFFFFFFFF);
            k st
      | Insn.Add, true ->
          fun st ->
            let av = a st in
            let bv = rd st di in
            let r = (bv + av) land 0xFFFFFFFF in
            Semantics.flags_add st av bv r;
            wr st di r;
            k st
      | Insn.Sub, false ->
          fun st ->
            let av = a st in
            wr st di ((rd st di - av) land 0xFFFFFFFF);
            k st
      | Insn.Sub, true ->
          fun st ->
            let av = a st in
            let bv = rd st di in
            let r = (bv - av) land 0xFFFFFFFF in
            Semantics.flags_sub st bv av r;
            wr st di r;
            k st
      | Insn.And, false ->
          fun st ->
            let av = a st in
            wr st di (rd st di land av);
            k st
      | Insn.And, true ->
          fun st ->
            let av = a st in
            let r = rd st di land av in
            Semantics.flags_logic st r;
            wr st di r;
            k st
      | Insn.Or, false ->
          fun st ->
            let av = a st in
            wr st di (rd st di lor av);
            k st
      | Insn.Or, true ->
          fun st ->
            let av = a st in
            let r = rd st di lor av in
            Semantics.flags_logic st r;
            wr st di r;
            k st
      | Insn.Xor, false ->
          fun st ->
            let av = a st in
            wr st di (rd st di lxor av);
            k st
      | Insn.Xor, true ->
          fun st ->
            let av = a st in
            let r = rd st di lxor av in
            Semantics.flags_logic st r;
            wr st di r;
            k st
      | Insn.Adc, false ->
          fun st ->
            let av = a st in
            let c = if st.State.cf then 1 else 0 in
            wr st di ((rd st di + av + c) land 0xFFFFFFFF);
            k st
      | (Insn.Adc, true) | (Insn.Sbb, _) -> generic ())
  | Insn.Push src ->
      let v = gen_eval32 ctx src and slot = new_slot () in
      fun st ->
        memo_push ctx slot st (v st);
        k st
  | Insn.Pop (Operand.Reg d) ->
      let di = Reg.index d and slot = new_slot () in
      fun st ->
        wr st di (memo_pop ctx slot st);
        k st
  | Insn.Cmp ((Operand.Mem _ as src), (Operand.Mem _ as dst))
  | Insn.Test ((Operand.Mem _ as src), (Operand.Mem _ as dst)) ->
      (* two memory operands: the model-mutation order of the two loads
         must match [exec_body] exactly — don't re-derive it here *)
      ignore src;
      ignore dst;
      generic ()
  | Insn.Cmp (src, dst) ->
      if not flags then
        match (src, dst) with
        | (Operand.Imm _ | Operand.Reg _), (Operand.Imm _ | Operand.Reg _) -> k
        | _ ->
            let a = gen_eval32 ctx src and b = gen_eval32 ctx dst in
            fun st ->
              ignore (a st : int);
              ignore (b st : int);
              k st
      else
        let a = gen_eval32 ctx src and b = gen_eval32 ctx dst in
        fun st ->
          let av = a st in
          let bv = b st in
          Semantics.flags_sub st bv av ((bv - av) land 0xFFFFFFFF);
          k st
  | Insn.Test (src, dst) ->
      if not flags then
        match (src, dst) with
        | (Operand.Imm _ | Operand.Reg _), (Operand.Imm _ | Operand.Reg _) -> k
        | _ ->
            let a = gen_eval32 ctx src and b = gen_eval32 ctx dst in
            fun st ->
              ignore (a st : int);
              ignore (b st : int);
              k st
      else
        let a = gen_eval32 ctx src and b = gen_eval32 ctx dst in
        fun st ->
          let av = a st in
          let bv = b st in
          Semantics.flags_logic st (av land bv);
          k st
  | Insn.Inc (Operand.Reg d) ->
      let di = Reg.index d in
      if flags then fun st ->
        let v = (rd st di + 1) land 0xFFFFFFFF in
        Semantics.set_zs st v;
        wr st di v;
        k st
      else fun st ->
        wr st di ((rd st di + 1) land 0xFFFFFFFF);
        k st
  | Insn.Dec (Operand.Reg d) ->
      let di = Reg.index d in
      if flags then fun st ->
        let v = (rd st di - 1) land 0xFFFFFFFF in
        Semantics.set_zs st v;
        wr st di v;
        k st
      else fun st ->
        wr st di ((rd st di - 1) land 0xFFFFFFFF);
        k st
  | Insn.Neg (Operand.Reg d) ->
      let di = Reg.index d in
      if flags then fun st ->
        let v = rd st di in
        let r = mask32 (-v) in
        Semantics.set_zs st r;
        st.State.cf <- v <> 0;
        wr st di r;
        k st
      else fun st ->
        wr st di (mask32 (-rd st di));
        k st
  | Insn.Not (Operand.Reg d) ->
      let di = Reg.index d in
      fun st ->
        wr st di (mask32 (lnot (rd st di)));
        k st
  | Insn.Shift (op, Operand.Imm n, Operand.Reg d) -> (
      let di = Reg.index d in
      let c = n land 0xFFFFFFFF land 31 in
      if c = 0 then k (* neither flags nor value change *)
      else
        match (op, flags) with
        | Insn.Shl, false ->
            fun st ->
              wr st di ((rd st di lsl c) land 0xFFFFFFFF);
              k st
        | Insn.Shl, true ->
            fun st ->
              let v = rd st di in
              st.State.cf <- (v lsr (32 - c)) land 1 = 1;
              let r = (v lsl c) land 0xFFFFFFFF in
              Semantics.set_zs st r;
              wr st di r;
              k st
        | Insn.Shr, false ->
            fun st ->
              wr st di (rd st di lsr c);
              k st
        | Insn.Shr, true ->
            fun st ->
              let v = rd st di in
              st.State.cf <- (v lsr (c - 1)) land 1 = 1;
              let r = v lsr c in
              Semantics.set_zs st r;
              wr st di r;
              k st
        | Insn.Sar, false ->
            fun st ->
              let v = rd st di in
              let sv = if v land Semantics.sign_bit <> 0 then v - 0x1_0000_0000 else v in
              wr st di (mask32 (sv asr c));
              k st
        | Insn.Sar, true ->
            fun st ->
              let v = rd st di in
              let sv = if v land Semantics.sign_bit <> 0 then v - 0x1_0000_0000 else v in
              st.State.cf <- (sv asr (c - 1)) land 1 = 1;
              let r = mask32 (sv asr c) in
              Semantics.set_zs st r;
              wr st di r;
              k st)
  | _ -> generic ()

(* --- probe sites --- *)

type probes = (int * (int -> unit)) list

(* The inline stlb probe's hit path (Fig 4) is [xor [r1+stlb+4], r2]:
   an xor of an stlb entry's second word into the register holding the
   dom0 address. A registered displacement makes the instruction a
   probe-hit site; its callback reads the register before the xor. *)
let probe_site (probes : probes) = function
  | Insn.Alu
      ( Insn.Xor,
        Operand.Mem { Operand.base = Some _; sym = None; disp; _ },
        Operand.Reg r ) -> (
      match List.assoc_opt disp probes with
      | Some on_hit -> Some (r, on_hit)
      | None -> None)
  | _ -> None

(* --- the Fig 4 probe as one op --- *)

(* The SVM rewriter's inline probe (Fig 4, lines 1-9):

     lea m, r1; mov r1, r2; and $0xFFFFF000, r1; mov r1, r3;
     and $0xFFF000, r1; shr $9, r1; cmp d0(r1), r3; jne slow;
     xor d1(r1), r2

   with r1, r2 and r3 distinct and both stlb operands base-only. *)
type probe = {
  p_mem : Operand.mem;  (* the lea's operand: the address being probed *)
  p_r1 : int;
  p_r2 : int;
  p_r3 : int;
  p_tag : int;  (* d0: the stlb entry's tag word *)
  p_xor : int;  (* d1: the stlb entry's xor word *)
  p_slow : int;  (* the jne's target *)
}

let probe_len = 9

let stlb_word r (m : Operand.mem) =
  match m with
  | { Operand.base = Some b; index = None; sym = None; disp } when Reg.equal b r
    ->
      Some disp
  | _ -> None

let probe_at ents s =
  if s + probe_len > Array.length ents then None
  else
    let ins i = ents.(s + i).e_insn in
    let straight i =
      match ents.(s + i).e_kind with K_straight -> true | _ -> false
    in
    let r = Reg.equal in
    match
      ( (ins 0, ins 1, ins 2, ins 3, ins 4),
        (ins 5, ins 6, ents.(s + 7).e_kind, ins 8) )
    with
    | ( ( Insn.Lea (m, r1),
          Insn.Mov (Width.W32, Operand.Reg a1, Operand.Reg r2),
          Insn.Alu (Insn.And, Operand.Imm k1, Operand.Reg a2),
          Insn.Mov (Width.W32, Operand.Reg a3, Operand.Reg r3),
          Insn.Alu (Insn.And, Operand.Imm k2, Operand.Reg a4) ),
        ( Insn.Shift (Insn.Shr, Operand.Imm 9, Operand.Reg a5),
          Insn.Cmp (Operand.Mem c, Operand.Reg b3),
          K_cond (Cond.NE, slow),
          Insn.Alu (Insn.Xor, Operand.Mem x, Operand.Reg b2) ) )
      when m.Operand.sym = None
           && r a1 r1 && r a2 r1 && r a3 r1 && r a4 r1 && r a5 r1 && r b3 r3
           && r b2 r2
           && (not (r r1 r2)) && (not (r r1 r3)) && (not (r r2 r3))
           && mask32 k1 = 0xFFFFF000 && mask32 k2 = 0xFFF000
           && straight 0 && straight 1 && straight 2 && straight 3
           && straight 4 && straight 5 && straight 6 && straight 8 -> (
        match (stlb_word r1 c, stlb_word r1 x) with
        | Some tag, Some xw ->
            Some
              {
                p_mem = m;
                p_r1 = Reg.index r1;
                p_r2 = Reg.index r2;
                p_r3 = Reg.index r3;
                p_tag = tag;
                p_xor = xw;
                p_slow = slow;
              }
        | _ -> None)
    | _ -> None

(* The probe at steps [s .. s+8] as one closure, leaving exactly the
   state the nine instructions leave one at a time:

   - r1, r2, r3 as the reference leaves them, written before the tag
     load (which may fault);
   - the flags the shr leaves: Z from r1, S and C clear (r1's low twelve
     bits were cleared before the shift by nine, so neither the sign bit
     nor the last bit shifted out is set) and O clear from the and;
   - the tag load through its memo, then the cmp's flags; a mismatch
     takes the jne's side exit ([taken], the reference's state after
     eight steps);
   - on a match, the probe-hit callback, then the xor word's load
     through its memo, then the xor's flags unless liveness proved them
     dead, then r2.

   [cur] names the cmp before the tag load, the xor's callback (see
   [run]) before the callback, and the xor before the xor load, so an
   abort charges exactly the prefix through the faulting instruction. *)
let gen_probe ctx ~cur ~s ~on_hit ~xor_flags p ~taken (k : State.t -> unit) =
  let r1 = p.p_r1 and r2 = p.p_r2 and r3 = p.p_r3 in
  let tag = p.p_tag and xw = p.p_xor in
  let tag_slot = new_slot () and xor_slot = new_slot () in
  let addr_of : State.t -> int =
    match (p.p_mem.Operand.base, p.p_mem.Operand.index) with
    | Some b, None ->
        let bi = Reg.index b and disp = p.p_mem.Operand.disp in
        fun st -> (rd st bi + disp) land 0xFFFFFFFF
    | _ ->
        let m = p.p_mem in
        fun st -> Semantics.addr_of_mem st m
  in
  fun st ->
    let a = addr_of st in
    let page = a land 0xFFFFF000 in
    let idx = (a land 0xFFF000) lsr 9 in
    wr st r1 idx;
    wr st r2 a;
    wr st r3 page;
    st.State.zf <- idx = 0;
    st.State.sf <- false;
    st.State.cf <- false;
    st.State.ovf <- false;
    cur := s + 6;
    let t = memo_load ctx tag_slot st ((idx + tag) land 0xFFFFFFFF) in
    Semantics.flags_sub st page t ((page - t) land 0xFFFFFFFF);
    if t <> page then taken st
    else begin
      (match on_hit with
      | Some f ->
          cur := lnot (s + 8);
          f a
      | None -> ());
      cur := s + 8;
      let v = memo_load ctx xor_slot st ((idx + xw) land 0xFFFFFFFF) in
      let r = a lxor v in
      if xor_flags then Semantics.flags_logic st r;
      wr st r2 r;
      k st
    end

(* --- the compiled block --- *)

type t = {
  max_steps : int;  (* fuel needed for a worst-case (full) pass *)
  fused : State.t -> unit;
  cur : int ref;  (* step index currently executing, for abort accounting *)
  exc_cycles : int array;  (* issue-cycle prefix through step s *)
  exc_slot : bool array;  (* pair_slot after step s *)
  exc_pc : int array;  (* pc of step s *)
}

let max_steps blk = blk.max_steps

let compile ~natives ~costs ~elided ~walks ~probes ~cap (prog : Program.t) idx
    =
  let trace, exit_pc = build_trace ~cap prog idx in
  match trace with
  | [] -> None
  | _ ->
      let ents = Array.of_list trace in
      let s_count = Array.length ents in
      (* static issue/pairing tables, assuming entry pair_slot = false
         ([run] is only entered with the slot clear) *)
      let exc_cycles = Array.make s_count 0 in
      let exc_slot = Array.make s_count false in
      let exc_pc = Array.make s_count 0 in
      let cyc = ref 0 and slot_state = ref false in
      Array.iteri
        (fun s e ->
          let simple = Semantics.is_simple e.e_insn in
          if simple && !slot_state then slot_state := false
          else begin
            cyc := !cyc + costs.Cost_model.insn;
            slot_state := simple
          end;
          exc_cycles.(s) <- !cyc;
          exc_slot.(s) <- !slot_state;
          exc_pc.(s) <- e.e_pc)
        ents;
      let cur = ref 0 in
      let ctx = { c_hits = elided; c_walks = walks } in
      let mk_exit ~steps ~cycles ~pslot ~pc st =
        st.State.cycles <- st.State.cycles + cycles;
        st.State.steps <- st.State.steps + steps;
        st.State.fuel <- st.State.fuel - steps;
        st.State.pair_slot <- pslot;
        st.State.pc <- pc
      in
      (* side exit taken at step [s]: the prefix through it, then [pc] *)
      let exit_at s pc =
        mk_exit ~steps:(s + 1) ~cycles:exc_cycles.(s) ~pslot:exc_slot.(s) ~pc
      in
      (* The steps that start an op, last first: a fused probe covers
         steps [s .. s+8], so the eight inside it start none. *)
      let starts =
        let rec go acc s =
          if s >= s_count then acc
          else
            match probe_at ents s with
            | Some p -> go ((s, Some p) :: acc) (s + probe_len)
            | None -> go ((s, None) :: acc) (s + 1)
        in
        go [] 0
      in
      (* [at.(s)] runs the trace from step [s]; built back to front, each
         op continuing with the next. Steps inside a probe keep the
         default, which nothing reaches: a trace is entered at step 0. *)
      let at = Array.make (s_count + 1) (exit_at (s_count - 1) exit_pc) in
      List.iter
        (fun (s, probe) ->
          at.(s) <-
            (match probe with
            | Some p ->
                let xor = ents.(s + probe_len - 1).e_insn in
                gen_probe ctx ~cur ~s
                  ~on_hit:(Option.map snd (probe_site probes xor))
                  ~xor_flags:(not (elide_flags ents (s + probe_len - 1)))
                  p ~taken:(exit_at (s + 7) p.p_slow) at.(s + probe_len)
            | None -> (
                let e = ents.(s) in
                let k = at.(s + 1) in
                let op =
                  match e.e_kind with
                  | K_stitch -> k
                  | K_cond (c, target) ->
                      let taken = exit_at s target in
                      fun st ->
                        if Semantics.cond_true st c then taken st else k st
                  | K_straight ->
                      gen_straight ctx ~natives
                        ~flags:(not (elide_flags ents s))
                        e.e_insn k
                in
                match probe_site probes e.e_insn with
                | Some (r, on_hit) ->
                    fun st ->
                      cur := lnot s;
                      on_hit (State.get st r);
                      cur := s;
                      op st
                | None ->
                    (* only faulting-capable steps pay for position
                       tracking *)
                    if may_raise e.e_insn then fun st ->
                      cur := s;
                      op st
                    else op)))
        starts;
      Some
        {
          max_steps = s_count;
          fused = at.(0);
          cur;
          exc_cycles;
          exc_slot;
          exc_pc;
        }

(* Abort accounting: [cur] holds the step that raised, or [lnot s] while
   step [s]'s probe-hit callback runs. One instruction at a time, that
   callback runs after the step is counted but before it issues, so an
   abort there charges the step and the issue cycles of the steps before
   it only. *)
let run blk st =
  blk.cur := 0;
  try blk.fused st
  with e ->
    (* abort: charge the prefix through the faulting step and restore its
       pc, matching one-instruction-at-a-time execution exactly *)
    let c = !(blk.cur) in
    let s = if c >= 0 then c else lnot c in
    let issued = if c >= 0 then s else s - 1 in
    if issued >= 0 then begin
      st.State.cycles <-
        st.State.cycles + Array.unsafe_get blk.exc_cycles issued;
      st.State.pair_slot <- Array.unsafe_get blk.exc_slot issued
    end;
    st.State.steps <- st.State.steps + s + 1;
    st.State.fuel <- st.State.fuel - (s + 1);
    st.State.pc <- Array.unsafe_get blk.exc_pc s;
    raise e
