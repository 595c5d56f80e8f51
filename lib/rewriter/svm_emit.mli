(** Emission of the SVM fast path (Figure 4 of the paper).

    A heap memory reference is replaced by a ten-instruction sequence that
    probes the stlb hash table inline and falls back to the
    [__svm_miss] slow path on a tag mismatch. Scratch registers come from
    liveness analysis; when fewer than three are free, registers are
    spilled to the [__svm_scratch] slots (the paper's footnote 3). Flags
    are preserved with [pushf]/[popf] when live across the rewritten
    instruction. *)

exception Rewrite_error of string

val fast_path_instructions : int
(** Length of the hit path including the final access: 10, as the paper
    states ("replaces one memory instruction ... with ten instructions"). *)

val pick_scratch :
  free:Td_misa.Reg.t list ->
  used:Td_misa.Reg.t list ->
  Td_misa.Reg.t * Td_misa.Reg.t * Td_misa.Reg.t * Td_misa.Reg.t list
(** [(r1, r2, r3, spilled)]: three distinct scratch registers avoiding
    [used], preferring [free]. *)

val rewrite_heap_access_into :
  fresh:(string -> string) ->
  free:Td_misa.Reg.t list ->
  flags_live:bool ->
  insn:Td_misa.Insn.t ->
  mem:Td_misa.Operand.mem ->
  rebuild:(Td_misa.Operand.t -> Td_misa.Insn.t) ->
  avoid:Td_misa.Reg.t list ->
  Td_misa.Program.item list * Td_misa.Reg.t option
(** Like {!rewrite_heap_access} but additionally avoids [avoid] when
    picking scratch registers and returns the register still holding the
    translated address after the access (if any survives — a spilled
    scratch register is restored and holds nothing) — the hook used by
    the probe-caching optimisation, which is sound for forward offsets
    within a page because the slow path maps page pairs. *)

val rewrite_heap_access_helper :
  free:Td_misa.Reg.t list ->
  flags_live:bool ->
  insn:Td_misa.Insn.t ->
  mem:Td_misa.Operand.mem ->
  rebuild:(Td_misa.Operand.t -> Td_misa.Insn.t) ->
  Td_misa.Program.item list
(** Ablation variant: instead of the inline ten-instruction probe, call
    the shared [__svm_translate] helper for every access (smaller code,
    extra call overhead per access). *)

val rewrite_heap_access :
  fresh:(string -> string) ->
  free:Td_misa.Reg.t list ->
  flags_live:bool ->
  insn:Td_misa.Insn.t ->
  mem:Td_misa.Operand.mem ->
  rebuild:(Td_misa.Operand.t -> Td_misa.Insn.t) ->
  Td_misa.Program.item list
(** Emit the full replacement for an instruction whose (single) heap
    operand is [mem]; [rebuild] reconstructs the instruction with the
    translated operand, and [fresh] names the probe's labels. *)
