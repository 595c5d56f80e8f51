(** Ergonomic construction of MISA programs.

    A builder accumulates labels and instructions; [finish] produces a
    {!Program.source}. Operand helpers keep driver code readable:

    {[
      let b = Builder.create "demo" in
      Builder.label b "entry";
      Builder.movl b (imm 1) (reg EAX);
      Builder.addl b (reg EAX) (mem ~base:EBX 8);
      Builder.ret b;
      Builder.finish b
    ]} *)

type t

val create : string -> t
val label : t -> string -> unit
val ins : t -> Insn.t -> unit
val finish : t -> Program.source

val fresh : t -> string -> string
(** Fresh label name [.L_<prefix>_<n>], unique within this builder's
    program. Numbering is local to the builder, so building the same
    program twice gives the same labels. *)

val namer : ?taken:(string -> bool) -> unit -> string -> string
(** A fresh-label generator for code emitted outside a builder (the
    rewriter): [.L_<prefix>_<n>] with its own count from 1, skipping
    any name [taken] reports as already defined. *)

(* Operand constructors *)

val imm : int -> Operand.t
val reg : Reg.t -> Operand.t

val mem : ?base:Reg.t -> ?index:Reg.t * Operand.scale -> ?sym:string -> int -> Operand.t
val mem_sym : string -> Operand.t
(** Absolute reference to a data symbol. *)

(* Instruction helpers; names follow AT&T mnemonics (src before dst). *)

val movl : t -> Operand.t -> Operand.t -> unit
val movb : t -> Operand.t -> Operand.t -> unit
val movzxb : t -> Operand.t -> Reg.t -> unit
val movzxw : t -> Operand.t -> Reg.t -> unit
val leal : t -> Operand.mem -> Reg.t -> unit
val addl : t -> Operand.t -> Operand.t -> unit
val subl : t -> Operand.t -> Operand.t -> unit
val andl : t -> Operand.t -> Operand.t -> unit
val orl : t -> Operand.t -> Operand.t -> unit
val xorl : t -> Operand.t -> Operand.t -> unit
val shll : t -> Operand.t -> Operand.t -> unit
val shrl : t -> Operand.t -> Operand.t -> unit
val sarl : t -> Operand.t -> Operand.t -> unit
val cmpl : t -> Operand.t -> Operand.t -> unit
val testl : t -> Operand.t -> Operand.t -> unit
val incl : t -> Operand.t -> unit
val decl : t -> Operand.t -> unit
val negl : t -> Operand.t -> unit
val notl : t -> Operand.t -> unit
val imull : t -> Operand.t -> Reg.t -> unit
val pushl : t -> Operand.t -> unit
val popl : t -> Operand.t -> unit
val jmp : t -> string -> unit
val jmp_ind : t -> Operand.t -> unit
val jcc : t -> Cond.t -> string -> unit
val je : t -> string -> unit
val jne : t -> string -> unit
val call : t -> string -> unit
val call_ind : t -> Operand.t -> unit
val ret : t -> unit
val rep_movsb : t -> unit
val rep_movsl : t -> unit
val rep_stosl : t -> unit
val nop : t -> unit
val hlt : t -> unit
