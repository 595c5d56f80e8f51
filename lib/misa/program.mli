(** Assembly programs: source form (labels interleaved with instructions)
    and assembled form (instruction array with resolved targets).

    A program occupies a contiguous range of code addresses starting at
    [base]; each instruction occupies four bytes, so the address of
    instruction [i] is [base + 4*i]. Assembling resolves local labels in
    jump/call targets to absolute code addresses and symbolic displacements
    in memory operands to absolute data addresses (the analogue of ELF
    relocation in the paper's loader). *)

type item = Label of string | Ins of Insn.t

type source = { name : string; items : item list }

type t = {
  name : string;
  base : int;
  code : Insn.t array;
  label_index : (string, int) Hashtbl.t;  (** label -> instruction index *)
  block_end : int array;
      (** [block_end.(i)] is the index of the last instruction of the
          straight-line run starting at [i]: the first control transfer
          ([Insn.is_control_transfer]) at or after [i], or the last
          instruction of the program. Precomputed at assembly for the
          interpreter's basic-block execution engine. *)
}

exception Unresolved of string
(** Raised when a symbol or label cannot be resolved at assembly time. *)

val source : string -> item list -> source

val assemble : ?symbols:(string -> int option) -> base:int -> source -> t
(** [assemble ~symbols ~base src] lays out [src] at [base]. [symbols] is
    consulted for call/jump targets that are not local labels and for
    symbolic memory displacements; unresolved names raise {!Unresolved}.
    Conditional jumps must target local labels; their [Lbl] targets are
    lowered to pre-resolved [Abs] addresses in the assembled code. *)

val size_bytes : t -> int
(** Size of the code range: [4 * Array.length code]. *)

val contains : t -> int -> bool
(** [contains p addr] is true when [addr] falls inside [p]'s code range. *)

val index_of_addr : t -> int -> int
(** Instruction index for a code address inside the program. Raises
    [Invalid_argument] for misaligned or out-of-range addresses. *)

val addr_of_label : t -> string -> int
(** Code address of a label. Raises {!Unresolved} when absent. *)

val entry_points : source -> string list
(** All labels defined in the source, in order of appearance. *)

val instruction_count : source -> int

val heap_reference_count : source -> int
(** Number of instructions containing a non-stack-relative memory operand
    (the paper reports ~25% of driver instructions are such). *)

val pp_source : Format.formatter -> source -> unit
val to_string_source : source -> string
