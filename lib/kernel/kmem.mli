(** A small kernel memory allocator (kmalloc/kfree) over a simulated
    address space: power-of-two size classes carved out of heap pages,
    with per-class free lists. Driver data structures, rings and sk_buff
    buffers all live here — in dom0's address space, which is what the
    hypervisor driver instance reaches through SVM. *)

type t

exception Bad_free of { addr : int; bytes : int; reason : string }
(** {!free} refused [addr]: a non-positive size, an address outside the
    pages this allocator carved, one misaligned for its size class, or
    one not currently allocated. The address usually comes from memory a
    driver can write, so the supervisor contains this as a driver abort. *)

val create : Td_mem.Addr_space.t -> t

val alloc : t -> int -> int
(** [alloc t bytes] returns the virtual address of a zeroed region of at
    least [bytes] bytes (rounded to a power-of-two class, max 4096).
    Larger requests are served as contiguous whole pages. *)

val free : t -> int -> int -> unit
(** [free t addr bytes] returns a region to its class's free list.
    Raises {!Bad_free} (and changes nothing) when the region is not a
    live allocation of this allocator. *)

val allocated_bytes : t -> int
(** Live allocation total (for leak tests). *)
