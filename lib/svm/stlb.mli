(** The software translation table (stlb) of §4.1.

    A direct-mapped hash table of {!Td_mem.Layout.stlb_entries} entries
    living in simulated memory (so that rewritten driver code can probe it
    with ordinary loads). Each 8-byte entry holds:

    - word 0: the tag — the dom0 virtual page base address (0 = invalid);
    - word 1: the xor value — [dom0_page_base lxor mapped_page_base], so
      that xoring the {e full} virtual address with it yields the mapped
      address with the page offset preserved (the paper's line-9 trick).

    The index is taken from address bits 12..23, exactly as in Figure 4:
    [(addr land 0xfff000) lsr 9] is the byte offset of the entry. *)

val index_of : int -> int
(** Entry index for a virtual address, in [0, stlb_entries). *)

val entry_offset : int -> int
(** Byte offset of the entry within the table: [8 * index_of addr]. *)

type t

val create : space:Td_mem.Addr_space.t -> vaddr:int -> t
(** A view of the stlb stored at [vaddr] in [space]; allocates and zeroes
    the backing pages if not already mapped. *)

val vaddr : t -> int

val probe : t -> int -> int
(** [probe t addr] probes the table as the fast path does: on a tag match,
    the translated full address; [-1] on a miss (a translation is a
    32-bit address, never negative). *)

val install : t -> dom0_page:int -> mapped_page:int -> unit
(** Fill the entry for [dom0_page] (page base address) with a translation
    to [mapped_page]; overwrites any colliding entry. *)

val invalidate : t -> dom0_page:int -> unit
(** Clear the entry if it currently holds [dom0_page]. Bumps the
    [stlb.invalidate] counter and emits a trace event when the entry was
    live (observability on). *)

val clear : t -> unit
