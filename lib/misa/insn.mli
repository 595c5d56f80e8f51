(** MISA instructions.

    The set is the subset of x86 that network drivers exercise: data moves
    with the three usual widths, ALU operations, shifts, compares, stack
    operations, direct/indirect jumps and calls, and the [rep]-prefixed
    string operations the paper treats specially during rewriting. *)

type alu = Add | Sub | Adc | Sbb | And | Or | Xor
type shift = Shl | Shr | Sar
type str_op = Movs | Stos | Lods

type target =
  | Lbl of string  (** local label or external symbol, resolved at assembly *)
  | Abs of int  (** absolute code address *)
  | Ind of Operand.t  (** indirect through register or memory *)

type t =
  | Mov of Width.t * Operand.t * Operand.t  (** [Mov (w, src, dst)] *)
  | Movzx of Width.t * Operand.t * Reg.t  (** zero-extending narrow load *)
  | Lea of Operand.mem * Reg.t
  | Alu of alu * Operand.t * Operand.t  (** [Alu (op, src, dst)]; sets flags *)
  | Shift of shift * Operand.t * Operand.t  (** count is [Imm] or [Reg ECX] *)
  | Cmp of Operand.t * Operand.t  (** [Cmp (src, dst)] computes dst - src *)
  | Test of Operand.t * Operand.t
  | Inc of Operand.t
  | Dec of Operand.t
  | Neg of Operand.t
  | Not of Operand.t
  | Imul of Operand.t * Reg.t
  | Xchg of Operand.t * Reg.t  (** swap; no flags *)
  | Push of Operand.t
  | Pop of Operand.t
  | Jmp of target
  | Jcc of Cond.t * target
      (** conditional jump; written as a [Lbl] and lowered to a pre-resolved
          [Abs] address by {!Program.assemble} (always a local label — see
          {!Program.assemble}); [Ind] is rejected *)
  | Call of target
  | Ret
  | Str of str_op * Width.t * bool  (** string op; [true] = [rep] prefix *)
  | Pushf  (** push the flags word (used to preserve flags across SVM code) *)
  | Popf
  | Nop
  | Hlt  (** stop execution (end of a top-level routine) *)

val mem_operands : t -> Operand.mem list
(** All memory references made by the instruction, explicit operands only
    (string ops access memory through [ESI]/[EDI] implicitly;
    [Push]/[Pop] access the stack implicitly). *)

val references_heap : t -> bool
(** True when the instruction contains an explicit non-stack-relative memory
    operand, i.e. it must be rewritten to use SVM. [Lea] computes an address
    but performs no access, so it does not count. *)

val regs_read : t -> Reg.t list
(** Registers read by the instruction (including address registers and the
    implicit registers of string ops and shifts). *)

val regs_written : t -> Reg.t list
(** Registers written by the instruction. *)

val sets_flags : t -> bool
val reads_flags : t -> bool

val is_control_transfer : t -> bool
(** True for every instruction that can move the pc away from fall-through:
    jumps, returns, [Hlt], [Jcc] and [Call]. The interpreter's block engine
    cuts straight-line runs at these (a [Call] may dispatch to a native or
    re-enter the registry, so it ends a block even though it returns). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
