(** The modified ELF loader of §5.2.

    Loading resolves, per instance:
    - driver data symbols → their dom0 addresses (the dom0 module loader
      "saves the necessary driver relocation information");
    - driver support routines → hypervisor implementations when present,
      otherwise per-routine upcall stubs;
    - the {!Symbols} names (stlb, scratch, SVM handlers) → the instance's
      runtime.

    Both instances are loaded from the same rewritten source at bases that
    differ by {!Td_mem.Layout.code_offset}. *)

exception Undefined_symbol of string

type symtab = string -> int option

val empty : symtab
val of_list : (string * int) list -> symtab
val overlay : symtab -> symtab -> symtab
(** [overlay a b] consults [a] first, then [b]. *)

val load :
  name:string ->
  source:Td_misa.Program.source ->
  base:int ->
  symbols:symtab ->
  registry:Td_cpu.Code_registry.t ->
  Td_misa.Program.t
(** Assemble at [base] with [symbols] and register the program. Raises
    {!Undefined_symbol} when the source references an unresolved name. *)

val svm_symbols :
  runtime:Td_svm.Runtime.t -> natives:Td_cpu.Native.t -> stlb_vaddr:int ->
  scratch_vaddr:int -> symtab
(** Symbol table fragment binding the {!Symbols} names for one instance.
    The [__svm_call] symbol must be added separately (hypervisor instance
    only); the identity instance binds it to a no-op translation. *)
