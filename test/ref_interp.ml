(* The reference the execution engines are checked against: a simulated
   call folded one instruction at a time over [Semantics.exec_insn], with
   the probe sites, step count, fuel/[Timeout] and per-instruction
   bitflip draws a call has on every engine. Natives that re-enter the
   interpreter are out of its scope. *)

open Td_misa
open Td_cpu

let flip_regs = Reg.[| EAX; EBX; ECX; EDX; ESI; EDI |]

let flip e (st : State.t) =
  let pick = Td_fault.Engine.pick e Td_fault.Interp_bitflip in
  match pick 8 with
  | 6 -> st.zf <- not st.zf
  | 7 -> st.cf <- not st.cf
  | r ->
      let reg = flip_regs.(r) in
      State.set st reg (State.get st reg lxor (1 lsl pick 32))

let exec_one ?fault ~probes ~natives registry (st : State.t) =
  let pc = st.pc in
  let fault_at what =
    raise (Interp.Fault (Printf.sprintf "execution at %s 0x%x" what pc))
  in
  let prog =
    match Code_registry.find registry pc with
    | None -> fault_at "unmapped address"
    | Some p when (pc - p.Program.base) land 3 <> 0 ->
        fault_at "misaligned code address"
    | Some p -> p
  in
  let insn = prog.Program.code.((pc - prog.Program.base) lsr 2) in
  (match Superblock.probe_site probes insn with
  | Some (r, on_hit) -> on_hit (State.get st r)
  | None -> ());
  (match fault with
  | Some e when Td_fault.Engine.fire e Td_fault.Interp_bitflip -> flip e st
  | Some _ | None -> ());
  st.steps <- st.steps + 1;
  Semantics.exec_insn ~natives st insn

let call ?(max_steps = 1_000_000) ?fault ?(probes = []) ~natives registry
    (st : State.t) ~entry ~args =
  List.iter (State.push st) (List.rev args);
  State.push st Interp.ret_sentinel;
  st.pc <- entry;
  let saved_fuel = st.fuel and saved_cap = st.fuel_cap in
  st.fuel <- max_steps;
  st.fuel_cap <- max_steps;
  Fun.protect
    ~finally:(fun () ->
      st.fuel <- saved_fuel;
      st.fuel_cap <- saved_cap)
    (fun () ->
      while st.pc <> Interp.ret_sentinel do
        if st.fuel <= 0 then raise (Interp.Timeout st.fuel_cap);
        st.fuel <- st.fuel - 1;
        exec_one ?fault ~probes ~natives registry st
      done);
  State.set st Reg.ESP (State.get st Reg.ESP + (4 * List.length args));
  State.get st Reg.EAX
