(** Rewriting of x86 string operations (§5.1.1).

    A [rep movs/stos/lods] may span many pages, and the stlb does not map
    consecutive dom0 pages to consecutive hypervisor pages; the rewriter
    therefore emits a loop that walks the string "in chunks of page
    length", translating the source/destination pointer once per chunk via
    the shared [__svm_translate] helper and running the original string
    instruction on the in-page chunk. *)

val rewrite :
  fresh:(string -> string) ->
  free:Td_misa.Reg.t list ->
  flags_live:bool ->
  op:Td_misa.Insn.str_op ->
  width:Td_misa.Width.t ->
  rep:bool ->
  Td_misa.Program.item list
