(** Instruction operands: immediates, registers and memory references.

    Memory references use the x86 addressing form
    [disp(base, index, scale)], i.e. address = [disp + base + index*scale].
    The displacement may additionally name a symbol; symbols are resolved to
    absolute addresses when a program is assembled (this models the ELF
    relocation step of the paper's loader). *)

type scale = S1 | S2 | S4 | S8

val scale_factor : scale -> int
val scale_of_int : int -> scale option

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int;
  sym : string option;  (** symbolic part of the displacement, if any *)
}

type t = Imm of int | Reg of Reg.t | Mem of mem

val mem : ?base:Reg.t -> ?index:Reg.t * scale -> ?sym:string -> int -> mem
(** [mem ?base ?index ?sym disp] builds a memory reference. *)

val is_stack_relative : mem -> bool
(** True when the reference is based on [ESP] or [EBP] with no index
    register — such references address the private stack and are exempt
    from SVM rewriting, exactly as in the paper. *)

val regs_read : t -> Reg.t list
(** Registers whose value is consumed when the operand is evaluated as a
    source ([Mem] address registers, or the register itself). *)

val regs_addr : mem -> Reg.t list
(** Registers used to form a memory address. *)

val equal : t -> t -> bool
val pp_mem : Format.formatter -> mem -> unit
val pp : Format.formatter -> t -> unit
