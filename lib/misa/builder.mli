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

val gensym : string -> string
(** Fresh label name with the given prefix; unique within the process. *)

val reset_gensym : unit -> unit
(** Restart the fresh-label counter. Only for tools that need
    reproducible output (snapshot tests, diffable rewrites); never call
    while previously generated sources are still in use, or labels may
    collide. *)

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
