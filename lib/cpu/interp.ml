(* The interpreter proper: dispatch policy, instruction-fetch caches and
   engine counters layered over the shared per-instruction semantics
   ([Semantics]) and the compiled tier ([Superblock]). The execution
   pipeline is documented in docs/INTERPRETER.md. *)

exception Fault = Semantics.Fault
exception Timeout = Semantics.Timeout

(* Direct-mapped block cache: pc -> (program, index), valid only while
   [bc_gen] matches the registry generation. 512 slots keyed on the
   instruction index bits of the pc; collisions just re-resolve. The
   compiled-code cache below uses the same geometry, keyed on superblock
   entry addresses. *)
let bc_size = 512

let default_compile_threshold = 8
let default_superblock_cap = 64

type t = {
  state : State.t;
  registry : Code_registry.t;
  natives : Native.t;
  mutable observer : (State.t -> Td_misa.Program.t -> int -> int) option;
  fault : Td_fault.Engine.state option;  (** the bitflip site's engine *)
  mutable probes : Superblock.probes;
  mutable bc_gen : int;
  bc_addr : int array; (* -1 = empty slot *)
  bc_prog : Td_misa.Program.t option array;
  bc_idx : int array;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable invalidations : int;
  (* compiled tier: entry hotness and compiled superblocks, flushed on
     the same generation bumps as the block cache *)
  cc_addr : int array; (* -1 = empty slot *)
  cc_hot : int array; (* min_int = known uncompilable *)
  cc_blk : Superblock.t option array;
  mutable compile_threshold : int;
  mutable compiled_blocks : int;
  mutable compiled_hits : int;
  mutable compiled_bailouts : int;
  stlb_elided : int ref;
}

let create ?fault state registry natives =
  {
    state;
    registry;
    natives;
    observer = None;
    fault;
    probes = [];
    bc_gen = 0;
    bc_addr = Array.make bc_size (-1);
    bc_prog = Array.make bc_size None;
    bc_idx = Array.make bc_size 0;
    block_hits = 0;
    block_misses = 0;
    invalidations = 0;
    cc_addr = Array.make bc_size (-1);
    cc_hot = Array.make bc_size 0;
    cc_blk = Array.make bc_size None;
    compile_threshold = default_compile_threshold;
    compiled_blocks = 0;
    compiled_hits = 0;
    compiled_bailouts = 0;
    stlb_elided = ref 0;
  }

let state t = t.state
let registry t = t.registry
let set_compile_threshold t n = t.compile_threshold <- max 1 n

let observe_blocks t f =
  match t.observer with
  | None -> t.observer <- Some f
  | Some g -> t.observer <- Some (fun st p i -> min (g st p i) (f st p i))

(* Compiled superblocks bake the table in, so a new table must never
   meet a closure compiled against the old one: forget the cached
   generation, which flushes both caches before the next dispatch. *)
let set_probes t probes =
  t.probes <- probes;
  t.bc_gen <- 0

let probes t = t.probes

let fire_probe t st insn =
  match Superblock.probe_site t.probes insn with
  | Some (r, on_hit) -> on_hit (State.get st r)
  | None -> ()

let ret_sentinel = Semantics.ret_sentinel

(* fault-injection site: flip one bit of architectural state before the
   next instruction executes — a soft error in the register file or the
   flags, the kind of corruption the SVM containment story must absorb.
   An armed plan draws once per instruction, after its probe site. *)
let flip_regs = Td_misa.Reg.[| EAX; EBX; ECX; EDX; ESI; EDI |]

let bitflip_armed t =
  match t.fault with
  | Some e -> Td_fault.Engine.armed e Td_fault.Interp_bitflip
  | None -> false

let maybe_bitflip t st =
  match t.fault with
  | Some e when Td_fault.Engine.fire e Td_fault.Interp_bitflip -> (
      match Td_fault.Engine.pick e Td_fault.Interp_bitflip 8 with
      | 6 -> st.State.zf <- not st.State.zf
      | 7 -> st.State.cf <- not st.State.cf
      | r ->
          let reg = flip_regs.(r) in
          let bit = Td_fault.Engine.pick e Td_fault.Interp_bitflip 32 in
          State.set st reg (State.get st reg lxor (1 lsl bit)))
  | Some _ | None -> ()

(* --- instruction fetch --- *)

open Td_misa

(* A jump into unmapped, misaligned or out-of-range code is a driver
   fault, not a simulator crash: everything surfaces as [Fault] so the
   supervisor's recovery policies apply. *)
let unmapped pc =
  raise (Fault (Printf.sprintf "execution at unmapped address 0x%x" pc))

let resolve_uncached t pc =
  match Code_registry.find t.registry pc with
  | None -> unmapped pc
  | Some p ->
      let off = pc - p.Program.base in
      if off land 3 <> 0 then
        raise
          (Fault
             (Printf.sprintf "execution at misaligned code address 0x%x" pc));
      (p, off lsr 2)

(* A program was registered or replaced: drop every cached block AND
   every compiled superblock, so a dead twin's image can never execute
   after a supervised reload — not even a closure compiled in the same
   pump as the reload. *)
let check_generation t =
  let gen = Code_registry.generation t.registry in
  if t.bc_gen <> gen then begin
    Array.fill t.bc_addr 0 bc_size (-1);
    Array.fill t.bc_prog 0 bc_size None;
    Array.fill t.cc_addr 0 bc_size (-1);
    Array.fill t.cc_hot 0 bc_size 0;
    Array.fill t.cc_blk 0 bc_size None;
    t.bc_gen <- gen;
    t.invalidations <- t.invalidations + 1
  end

(* Returns the cache slot now holding [pc]'s (program, index) in
   [bc_prog]/[bc_idx], rather than a pair: a hit allocates nothing. *)
let resolve_cached t pc =
  check_generation t;
  let slot = (pc lsr 2) land (bc_size - 1) in
  if Array.unsafe_get t.bc_addr slot = pc then t.block_hits <- t.block_hits + 1
  else begin
    t.block_misses <- t.block_misses + 1;
    let p, i = resolve_uncached t pc in
    t.bc_addr.(slot) <- pc;
    t.bc_prog.(slot) <- Some p;
    t.bc_idx.(slot) <- i
  end;
  slot

let cached_prog t slot =
  match Array.unsafe_get t.bc_prog slot with
  | Some p -> p
  | None -> assert false

(* Only the block engine serves an attached observer or an armed bitflip
   plan: both need a view finer than a compiled superblock. Probe sites
   are recognised inline by both engines, and any other fault site fires
   identically in either ([fire] never draws at a zero rate). Observers
   are attached, and [Td_fault.Engine.suspend] opens and closes its
   scope, only outside driver execution or around a nested [call] (a
   native re-entering the interpreter), and every nested [call] decides
   for itself. So [call] decides once, and that is exactly equivalent to
   deciding per instruction. *)
let needs_block_engine t =
  (match t.observer with Some _ -> true | None -> false) || bitflip_armed t

(* The block engine: resolve once, execute to the end of the basic
   block (or the observer's earlier stop) by array index. In-block
   instructions only fall through (control transfers end blocks), so the
   pc needs no sentinel or bounds re-check until the block is done. An
   armed bitflip plan draws once per instruction, in the order of the
   one-instruction-at-a-time reference: probe site, flip, execute. *)
let exec_block t =
  let st = t.state in
  let slot = resolve_cached t st.State.pc in
  let prog = cached_prog t slot and idx = Array.unsafe_get t.bc_idx slot in
  let stop = Array.unsafe_get prog.Program.block_end idx in
  let stop =
    match t.observer with None -> stop | Some f -> min stop (f st prog idx)
  in
  let avail = stop - idx + 1 in
  let n = if avail > st.State.fuel then st.State.fuel else avail in
  st.State.fuel <- st.State.fuel - n;
  let code = prog.Program.code in
  let last = idx + n - 1 in
  (* steps are bulk-charged, with the uncommon abort path giving back
     the instructions after the faulting one so the count matches
     one-instruction-at-a-time execution exactly *)
  st.State.steps <- st.State.steps + n;
  let natives = t.natives in
  let flips = bitflip_armed t in
  let i = ref idx in
  try
    while !i <= last do
      let insn = Array.unsafe_get code !i in
      if t.probes != [] then fire_probe t st insn;
      if flips then maybe_bitflip t st;
      Semantics.exec_insn ~natives st insn;
      incr i
    done
  with e ->
    st.State.steps <- st.State.steps - (last - !i);
    raise e

let compile_at t pc =
  match resolve_uncached t pc with
  | prog, idx ->
      Superblock.compile ~natives:t.natives ~costs:t.state.State.costs
        ~elided:t.stlb_elided ~probes:t.probes ~cap:default_superblock_cap prog
        idx
  | exception Fault _ -> None

(* Compiled dispatch: count the entry hot, promote it to a superblock at
   the threshold, and from then on run the fused closure whenever its
   entry conditions hold (pair slot clear, enough fuel for a worst-case
   pass); otherwise bail out to the identical-semantics block engine.
   [check_generation] runs before every lookup, which is what makes a
   promote-then-reload in the same pump safe: the stale closure is
   flushed before it could ever be dispatched again. *)
let exec_compiled t =
  check_generation t;
  let st = t.state in
  let pc = st.State.pc in
  let slot = (pc lsr 2) land (bc_size - 1) in
  if Array.unsafe_get t.cc_addr slot = pc then begin
    match Array.unsafe_get t.cc_blk slot with
    | Some blk ->
        if (not st.State.pair_slot) && st.State.fuel >= Superblock.max_steps blk
        then begin
          t.compiled_hits <- t.compiled_hits + 1;
          Superblock.run blk st
        end
        else begin
          t.compiled_bailouts <- t.compiled_bailouts + 1;
          exec_block t
        end
    | None ->
        let h = t.cc_hot.(slot) in
        if h >= 0 then
          if h + 1 >= t.compile_threshold then begin
            match compile_at t pc with
            | Some blk ->
                t.cc_blk.(slot) <- Some blk;
                t.compiled_blocks <- t.compiled_blocks + 1
            | None -> t.cc_hot.(slot) <- min_int (* never compilable *)
          end
          else t.cc_hot.(slot) <- h + 1;
        exec_block t
  end
  else begin
    (* take over the slot (cold entry or direct-mapped eviction) *)
    t.cc_addr.(slot) <- pc;
    t.cc_hot.(slot) <- 1;
    t.cc_blk.(slot) <- None;
    exec_block t
  end

let call ?(max_steps = 1_000_000) t ~entry ~args =
  let st = t.state in
  List.iter (State.push st) (List.rev args);
  State.push st ret_sentinel;
  st.State.pc <- entry;
  (* natives re-enter the interpreter (upcalls), so each nested call gets
     its own budget and the outer one is restored on the way out, normal
     or exceptional (written out: [Fun.protect]'s closures would allocate
     on every driver call) *)
  let saved_fuel = st.State.fuel and saved_cap = st.State.fuel_cap in
  st.State.fuel <- max_steps;
  st.State.fuel_cap <- max_steps;
  let block_only = needs_block_engine t in
  (match
     while st.State.pc <> ret_sentinel do
       if st.State.fuel <= 0 then raise (Timeout st.State.fuel_cap);
       if block_only then exec_block t else exec_compiled t
     done
   with
  | () ->
      st.State.fuel <- saved_fuel;
      st.State.fuel_cap <- saved_cap
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      st.State.fuel <- saved_fuel;
      st.State.fuel_cap <- saved_cap;
      Printexc.raise_with_backtrace e bt);
  (* pop the arguments (caller cleans up, cdecl) *)
  State.set st Reg.ESP (State.get st Reg.ESP + (4 * List.length args));
  State.get st Reg.EAX

(* --- engine introspection (interp bench) --- *)

let block_hits t = t.block_hits
let block_misses t = t.block_misses
let invalidations t = t.invalidations
let compiled_blocks t = t.compiled_blocks
let compiled_hits t = t.compiled_hits
let compiled_bailouts t = t.compiled_bailouts
let stlb_elided t = !(t.stlb_elided)

(* Gauges are published on demand only: the global metrics registry is
   snapshotted wholesale into every Measure result, so registering these
   during normal runs would perturb the bit-identical bench exports. *)
let publish_metrics t =
  let set name v =
    Td_obs.Metrics.set (Td_obs.Metrics.gauge name) (float_of_int v)
  in
  set "interp.block_hits" t.block_hits;
  set "interp.block_misses" t.block_misses;
  set "interp.invalidations" t.invalidations;
  set "interp.compiled_blocks" t.compiled_blocks;
  set "interp.compiled_hits" t.compiled_hits;
  set "interp.compiled_bailouts" t.compiled_bailouts;
  set "interp.stlb_elided" !(t.stlb_elided)
