(** Superblock compilation: hot straight-line regions of MISA code
    lowered to a single fused OCaml closure.

    A superblock starts at a basic-block head and is stitched through
    unconditional [Jmp]/fallthrough edges up to a size cap; conditional
    branches become side exits, and calls, returns, indirect jumps and
    [Hlt] end the trace just before themselves. The closure aggregates
    issue-cycle/step accounting statically, skips provably-dead flag
    computation, lowers the SVM rewriter's nine-instruction inline probe
    (Fig 4) to one op, and gives every memory operand its own
    translation memo, which survives across runs for as long as the
    page-table entry it cached is still in place and no frame has been
    freed; on a memo hit, TLB and cache hit witnesses skip the models'
    lookups while counting their hits. None of it changes the simulated
    (cycles, steps), TLB or cache counters, which stay bit-identical
    with executing one instruction at a time ({!Semantics.exec_insn}).
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
  walks:int ref ->
  probes:probes ->
  cap:int ->
  Td_misa.Program.t ->
  int ->
  t option
(** [compile ~natives ~costs ~elided ~walks ~probes ~cap prog idx] lowers
    the trace starting at instruction [idx] of [prog], following at most
    [cap] instructions. At run time [elided] is bumped once per access a
    memo serves and [walks] once per memo miss (the
    [interp.stlb_elided] and [interp.page_walks] gauges). Probe-hit
    sites are resolved against [probes] here, once: only their steps
    call the hit callback, before the xor. Returns [None] when the
    first instruction is itself a terminator the closure cannot fuse —
    the caller should never retry that address. *)

val run : t -> State.t -> unit
(** Execute the block. Preconditions (the interpreter bails out to the
    per-block engine otherwise): [State.pc] is the block's entry,
    [pair_slot] is clear, and [fuel >= max_steps]. A block is run on one
    state only, the one whose TLB and cache its hit witnesses describe
    (the interpreter's). On a fault the
    cycles/steps/fuel of the prefix through the faulting instruction are
    charged and [pc] is restored to it, exactly as executing one
    instruction at a time would, before the exception is re-raised. *)
