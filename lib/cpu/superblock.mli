(** Superblock compilation: hot straight-line regions of MISA code
    lowered to a single fused OCaml closure.

    A superblock starts at a basic-block head and is stitched through
    unconditional [Jmp]/fallthrough edges up to a size cap; conditional
    branches become side exits, and calls, returns, indirect jumps and
    [Hlt] end the trace just before themselves. The closure aggregates
    issue-cycle/step accounting statically, skips provably-dead flag
    computation, and memoises stlb translations within a run (same base
    register, or the same constant page of an absolute [disp] operand →
    reuse the translated frame) — all without changing the simulated
    (cycles, steps), which stay bit-identical with executing one
    instruction at a time ({!Semantics.exec_insn}).
    A compiled run allocates nothing per instruction. See
    docs/INTERPRETER.md. *)

type t

val max_steps : t -> int
(** Instructions executed by a worst-case (full straight-through) pass;
    the caller must hold at least this much fuel before {!run}. *)

type probes = (int * (int -> unit)) list
(** The probe-site table: stlb hit-word displacement -> hit callback. *)

val probe_site :
  probes -> Td_misa.Insn.t -> (Td_misa.Reg.t * (int -> unit)) option
(** [Some (r, on_hit)] when the instruction is a probe-hit site: an
    [xor [base+disp], r] with no symbol and [disp] in the table (the
    hit path of the inline stlb probe, Fig 4). [on_hit] takes [r]'s
    value before the xor executes — the dom0 address being probed. *)

val compile :
  natives:Native.t ->
  costs:Cost_model.t ->
  elided:int ref ->
  probes:probes ->
  cap:int ->
  Td_misa.Program.t ->
  int ->
  t option
(** [compile ~natives ~costs ~elided ~probes ~cap prog idx] lowers the
    trace starting at instruction [idx] of [prog], following at most
    [cap] instructions. [elided] is bumped once per stlb translation
    skipped at run time (the [interp.stlb_elided] gauge). Probe-hit
    sites are resolved against [probes] here, once: only their steps
    call the hit callback, before the xor. Returns [None] when the
    first instruction is itself a terminator the closure cannot fuse —
    the caller should never retry that address. *)

val run : t -> State.t -> unit
(** Execute the block. Preconditions (the interpreter bails out to the
    per-block engine otherwise): [State.pc] is the block's entry,
    [pair_slot] is clear, and [fuel >= max_steps]. On a fault the
    cycles/steps/fuel of the prefix through the faulting instruction are
    charged and [pc] is restored to it, exactly as executing one
    instruction at a time would, before the exception is re-raised. *)
