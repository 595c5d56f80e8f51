(** Single-instruction execution semantics for MISA.

    The primitives shared by the two execution engines: {!Interp}'s
    basic-block dispatch and {!Superblock}'s compiled closures.
    Everything operates directly on the architectural {!State.t}; cycle
    costs (TLB, cache, MMIO models included) are charged as a side
    effect of execution, so both engines produce the simulated (cycles,
    steps) of {!exec_insn} applied one instruction at a time, bit for
    bit, by construction wherever they share these helpers. *)

exception Fault of string
(** Execution fault: unresolved target, call into unmapped code, etc. *)

exception Timeout of int
(** Raised when the fuel budget of the innermost {!Interp.call} is
    exhausted — the resource-hoarding guard the paper delegates to
    VINO-style timeouts (§4.5.2). *)

val ret_sentinel : int
(** Pseudo return address marking the bottom of a simulated call. *)

val mask32 : int -> int
val sign_bit : int

val frame_cost : Cost_model.t -> tlb_hit:bool -> cache_hit:bool -> int
(** The cycles {!charge} charges for an access to a frame-backed page,
    given the TLB's and the cache's verdicts on it. *)

val charge :
  State.t -> int -> Td_mem.Addr_space.entry -> unit
(** [charge st addr e] charges the cycle cost of one memory access at
    [addr], whose page resolved to [e] ({!Td_mem.Addr_space.lookup}):
    base cost, TLB model, then the physical cache model for a frame or
    the MMIO surcharge for a device or unmapped page. Mutates the TLB
    and cache; allocates nothing. *)

val load : State.t -> int -> Td_misa.Width.t -> int
(** {!charge} + {!State.read_mem}, with one page-table walk
    serving both and no allocation. A page-straddling access is split
    by {!Td_mem.Addr_space.read}; an unmapped page raises
    {!Td_mem.Addr_space.Page_fault} after the charge. *)

val store : State.t -> int -> Td_misa.Width.t -> int -> unit
(** As {!load}, for a write. *)

val addr_of_mem : State.t -> Td_misa.Operand.mem -> int

val set_zs : State.t -> int -> unit
val flags_logic : State.t -> int -> unit
val flags_add : State.t -> int -> int -> int -> unit
val flags_sub : State.t -> int -> int -> int -> unit
val cond_true : State.t -> Td_misa.Cond.t -> bool

val do_call : natives:Native.t -> State.t -> int -> unit

val is_simple : Td_misa.Insn.t -> bool
(** Dual-issue model: register-only move/ALU instructions pair with an
    immediately preceding simple instruction and issue for free. *)

val advance : State.t -> unit
(** [pc <- pc + 4]. *)

val issue : State.t -> Td_misa.Insn.t -> unit
(** The issue/pairing preamble: charge the instruction's issue cost
    (or pair it into the previous empty slot) and update
    [State.pair_slot]. Separated from {!exec_body} so superblock
    compilation can aggregate issue cycles statically — the pair-slot
    evolution depends only on the instruction sequence and the entry
    slot state, never on data. *)

val exec_body : natives:Native.t -> State.t -> Td_misa.Insn.t -> unit
(** Execute one instruction's effects (operand evaluation, memory
    traffic, flags, control transfer, [pc] update) {e without} the
    issue preamble. *)

val exec_insn : natives:Native.t -> State.t -> Td_misa.Insn.t -> unit
(** {!issue} followed by {!exec_body}. *)
