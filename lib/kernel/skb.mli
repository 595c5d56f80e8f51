(** sk_buff: the Linux network packet buffer, materialised in simulated
    dom0 memory so that both driver instances (and the NIC's DMA engine)
    see the single shared copy.

    Struct layout (32 bytes, little-endian words):
    {v
      +0  data      current data pointer (virtual address)
      +4  len       bytes at [data]
      +8  head      buffer start
      +12 end       buffer end (capacity boundary)
      +16 refcnt
      +20 protocol  set by eth_type_trans
      +24 frag_page first chained fragment page (0 = none)
      +28 frag_len  bytes in the fragment chain
    v} *)

type t = { space : Td_mem.Addr_space.t; addr : int }

val struct_bytes : int
val default_buf_bytes : int

val alloc : Kmem.t -> Td_mem.Addr_space.t -> size:int -> t
(** Allocate struct + data buffer; [data = head], [len = 0], [refcnt = 1]. *)

val free : Kmem.t -> t -> unit
(** Drop a reference; releases struct and buffer when it reaches zero. *)

val of_addr : Td_mem.Addr_space.t -> int -> t

(** {2 By address}

    The same operations on the struct at [addr] in [space], for callers
    that hold a bare address (the support routines) and would otherwise
    build a record only to throw it away. *)

val alloc_at : Kmem.t -> Td_mem.Addr_space.t -> size:int -> int
(** {!alloc}, returning the struct's address. *)

val free_at : Kmem.t -> Td_mem.Addr_space.t -> int -> unit
val data_at : Td_mem.Addr_space.t -> int -> int
val set_protocol_at : Td_mem.Addr_space.t -> int -> int -> unit
val pull_at : Td_mem.Addr_space.t -> int -> int -> unit

(* field accessors *)

val data : t -> int
val set_data : t -> int -> unit
val len : t -> int
val set_len : t -> int -> unit
val head : t -> int
val end_ : t -> int
val refcnt : t -> int
val get_ref : t -> unit
val set_refcnt : t -> int -> unit
val protocol : t -> int
val set_protocol : t -> int -> unit
val frag_page : t -> int
val set_frag : t -> page:int -> len:int -> unit

val capacity : t -> int

val put : t -> bytes -> unit
(** Append payload bytes at [data + len]; extends [len]. Overflow —
    lengths routinely come from guest-writable descriptor rings — raises
    a typed, counted {!Td_xen.Guest_fault.Fault} attributed to the
    buffer's address space, which the driver supervisor contains. *)

val put_string : t -> string -> off:int -> len:int -> unit
(** [put_string t s ~off ~len] is {!put} of [String.sub s off len],
    copied straight from [s]. *)

val put_from : t -> src:int -> len:int -> unit
(** [put_from t ~src ~len] appends [len] bytes read from [src] in the
    buffer's own address space, copied in place by
    {!Td_mem.Addr_space.copy}. The overflow check runs first, and a fault
    on either range leaves the buffer untouched. *)

val pull : t -> int -> unit
(** Advance [data] by [n] (consume a header), shrinking [len]. Underflow
    raises {!Td_xen.Guest_fault.Fault} like {!put}. *)

val contents : t -> bytes
(** The linear data area (not including chained fragments). *)

val total_len : t -> int
(** Linear length plus fragment chain length. *)
