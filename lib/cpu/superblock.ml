(* Superblock compiler: lowers a hot straight-line region of MISA code
   into a single fused OCaml closure.

   A superblock starts at a basic-block head and extends through
   unconditional [Jmp]/fallthrough edges (stitching) up to a size cap;
   conditional branches become side exits, and anything the closure
   cannot fuse (calls, returns, indirect jumps, [Hlt]) ends the trace
   just before itself so the interpreter's per-block engine executes it.

   Three optimisations over per-instruction dispatch, all invisible in
   the simulated (cycles, steps):

   - issue cycles and step counts are aggregated statically per trace
     (the dual-issue pairing evolution is data-independent given the
     instruction sequence and the entry pair-slot state, which [run]
     demands to be clear);

   - flag computation is lazy: a flag-setting instruction whose flags
     are provably dead (overwritten before any read, side exit or
     possible fault) skips materialising them;

   - redundant stlb translations are eliminated: two accesses through
     the same base register to the same page, or two absolute operands
     on the same page, reuse the translated frame, skipping the
     page-table walks while still driving the TLB and cache models with
     the exact per-access arguments.

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

(* --- stlb-redundancy elimination --- *)

(* A translation memo: the last page translated through it, the mapping
   the page-table walk returned for it and that frame's buffer. Valid
   only while [s_stamp] matches [c_stamp] — the stamp is bumped at every
   block entry and after any device access (a device hook may remap
   pages, e.g. the SVM window reclaim). *)
type slot = {
  mutable s_stamp : int;
  mutable s_page : int;
  mutable s_map : Td_mem.Addr_space.mapping option;  (* always [Some (Frame _)] *)
  mutable s_bytes : Bytes.t;
}

type ctx = {
  c_stamp : int ref;
  c_elided : int ref;
  c_regs : (int, slot) Hashtbl.t;  (* base-register index -> memo *)
  c_pages : (int, slot) Hashtbl.t;  (* page of an absolute operand -> memo *)
}

let slot_in tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = { s_stamp = -1; s_page = -1; s_map = None; s_bytes = Bytes.empty } in
      Hashtbl.add tbl key s;
      s

(* Memoisable access: a resolved symbol, no index, and either one base
   register (memo per register) or none at all — an absolute [disp], such
   as an SVM spill slot, memoised per constant page. Everything else
   takes the ordinary [Semantics] path. *)
type memo = No_memo | Memo_reg of int * int | Memo_abs of int

let memo_mem (m : Operand.mem) =
  match (m.Operand.base, m.Operand.index, m.Operand.sym) with
  | Some r, None, None -> Memo_reg (Reg.index r, m.Operand.disp)
  | None, None, None -> Memo_abs (mask32 m.Operand.disp)
  | _ -> No_memo

(* Translate [addr]'s page through the memo and charge the access as
   [Semantics.load] would. On a hit the TLB and cache models still see
   the access (simulated cycles are bit-identical); only the two-level
   page-table walk and the frame-array lookup are skipped. A miss makes
   that one walk and refills the memo on a frame-backed page. Returns
   the page's mapping; for a frame, its buffer is in [slot.s_bytes].
   The memo serves stores as well as loads and outlives the access, so
   it takes the frame's own writable buffer ([Phys_mem.page]), never the
   shared zero page a never-written frame reads through. [run] bumps the
   stamp on every entry, so most refills find the same mapping and
   buffer: the pointer fields are written only when they change, which
   spares the write barrier. *)
let[@inline] translate ctx slot st addr page =
  if slot.s_stamp = !(ctx.c_stamp) && slot.s_page = page then begin
    Semantics.charge st addr slot.s_map;
    incr ctx.c_elided;
    slot.s_map
  end
  else begin
    let space = State.space_for st addr in
    let m = Td_mem.Addr_space.lookup space ~vpage:page in
    Semantics.charge st addr m;
    (match m with
    | Some (Td_mem.Addr_space.Frame f) ->
        slot.s_stamp <- !(ctx.c_stamp);
        slot.s_page <- page;
        if slot.s_map != m then slot.s_map <- m;
        let b = Td_mem.Phys_mem.page (Td_mem.Addr_space.phys space) f in
        if slot.s_bytes != b then slot.s_bytes <- b
    | Some (Td_mem.Addr_space.Device _) -> incr ctx.c_stamp
    | None -> Td_mem.Addr_space.page_fault space addr);
    m
  end

let memo_load ctx slot st addr =
  let off = addr land pmask in
  if off > pmax32 then Semantics.load st addr Width.W32 (* straddle *)
  else
    match translate ctx slot st addr (addr lsr pshift) with
    | Some (Td_mem.Addr_space.Device d) -> d.Td_mem.Addr_space.dev_read off Width.W32
    | Some (Td_mem.Addr_space.Frame _) | None ->
        Int32.to_int (Bytes.get_int32_le slot.s_bytes off) land 0xFFFFFFFF

let memo_store ctx slot st addr v =
  let off = addr land pmask in
  if off > pmax32 then Semantics.store st addr Width.W32 v
  else
    match translate ctx slot st addr (addr lsr pshift) with
    | Some (Td_mem.Addr_space.Device d) ->
        d.Td_mem.Addr_space.dev_write off Width.W32 v
    | Some (Td_mem.Addr_space.Frame _) | None ->
        Bytes.set_int32_le slot.s_bytes off (Int32.of_int v)

let gen_load32 ctx (m : Operand.mem) : State.t -> int =
  match memo_mem m with
  | No_memo -> fun st -> Semantics.load st (Semantics.addr_of_mem st m) Width.W32
  | Memo_reg (ri, disp) ->
      let slot = slot_in ctx.c_regs ri in
      fun st -> memo_load ctx slot st ((rd st ri + disp) land 0xFFFFFFFF)
  | Memo_abs addr ->
      let slot = slot_in ctx.c_pages (addr lsr pshift) in
      fun st -> memo_load ctx slot st addr

let gen_store32 ctx (m : Operand.mem) : State.t -> int -> unit =
  match memo_mem m with
  | No_memo ->
      fun st v -> Semantics.store st (Semantics.addr_of_mem st m) Width.W32 v
  | Memo_reg (ri, disp) ->
      let slot = slot_in ctx.c_regs ri in
      fun st v -> memo_store ctx slot st ((rd st ri + disp) land 0xFFFFFFFF) v
  | Memo_abs addr ->
      let slot = slot_in ctx.c_pages (addr lsr pshift) in
      fun st v -> memo_store ctx slot st addr v

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
  | Insn.Alu (((Insn.Add | Insn.Sub | Insn.And | Insn.Or | Insn.Xor) as op),
              src, Operand.Reg d) -> (
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
      | (Insn.Adc | Insn.Sbb), _ -> generic ())
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

(* --- the compiled block --- *)

type t = {
  max_steps : int;  (* fuel needed for a worst-case (full) pass *)
  fused : State.t -> unit;
  stamp : int ref;
  cur : int ref;  (* step index currently executing, for abort accounting *)
  exc_cycles : int array;  (* issue-cycle prefix through step s *)
  exc_slot : bool array;  (* pair_slot after step s *)
  exc_pc : int array;  (* pc of step s *)
}

let max_steps blk = blk.max_steps

let compile ~natives ~costs ~elided ~probes ~cap (prog : Program.t) idx =
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
      let stamp = ref 0 and cur = ref 0 in
      let ctx =
        { c_stamp = stamp; c_elided = elided; c_regs = Hashtbl.create 4;
          c_pages = Hashtbl.create 4 }
      in
      let mk_exit ~steps ~cycles ~pslot ~pc st =
        st.State.cycles <- st.State.cycles + cycles;
        st.State.steps <- st.State.steps + steps;
        st.State.fuel <- st.State.fuel - steps;
        st.State.pair_slot <- pslot;
        st.State.pc <- pc
      in
      let fused =
        ref
          (mk_exit ~steps:s_count ~cycles:exc_cycles.(s_count - 1)
             ~pslot:exc_slot.(s_count - 1) ~pc:exit_pc)
      in
      for s = s_count - 1 downto 0 do
        let e = ents.(s) in
        let k = !fused in
        let op =
          match e.e_kind with
          | K_stitch -> k
          | K_cond (c, target) ->
              let taken =
                mk_exit ~steps:(s + 1) ~cycles:exc_cycles.(s)
                  ~pslot:exc_slot.(s) ~pc:target
              in
              fun st -> if Semantics.cond_true st c then taken st else k st
          | K_straight -> (
              let op =
                gen_straight ctx ~natives ~flags:(not (elide_flags ents s))
                  e.e_insn k
              in
              match probe_site probes e.e_insn with
              | Some (r, on_hit) ->
                  fun st ->
                    on_hit (State.get st r);
                    op st
              | None -> op)
        in
        (* only faulting-capable steps pay for position tracking *)
        let op =
          if may_raise e.e_insn then fun st ->
            cur := s;
            op st
          else op
        in
        fused := op
      done;
      Some
        {
          max_steps = s_count;
          fused = !fused;
          stamp;
          cur;
          exc_cycles;
          exc_slot;
          exc_pc;
        }

let run blk st =
  incr blk.stamp; (* memoised translations never survive between runs *)
  blk.cur := 0;
  try blk.fused st
  with e ->
    (* abort: charge the prefix through the faulting step and restore its
       pc, matching one-instruction-at-a-time execution exactly *)
    let s = !(blk.cur) in
    st.State.cycles <- st.State.cycles + Array.unsafe_get blk.exc_cycles s;
    st.State.steps <- st.State.steps + s + 1;
    st.State.fuel <- st.State.fuel - (s + 1);
    st.State.pair_slot <- Array.unsafe_get blk.exc_slot s;
    st.State.pc <- Array.unsafe_get blk.exc_pc s;
    raise e
