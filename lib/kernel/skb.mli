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
    v}

    An sk_buff is its struct's address: every operation takes the
    address space and the address, so a frame path hands a bare [int]
    from netback to the driver, and from the driver's [netif_rx] through
    the bridge to netfront, and builds nothing on the host. *)

type t = { space : Td_mem.Addr_space.t; addr : int }
(** An sk_buff kept as a value, where a holder wants one: the
    hypervisor's {!Skb_pool} slots. Its operations are the [_at] ones on
    [space] and [addr]. *)

val struct_bytes : int
val default_buf_bytes : int

val alloc_at : Kmem.t -> Td_mem.Addr_space.t -> size:int -> int
(** Allocate struct + data buffer and return the struct's address;
    [data = head], [len = 0], [refcnt = 1]. *)

val free_at : Kmem.t -> Td_mem.Addr_space.t -> int -> unit
(** Drop a reference; releases struct and buffer when it reaches zero. *)

(** {2 Fields} *)

val data_at : Td_mem.Addr_space.t -> int -> int
val set_data_at : Td_mem.Addr_space.t -> int -> int -> unit
val len_at : Td_mem.Addr_space.t -> int -> int
val set_len_at : Td_mem.Addr_space.t -> int -> int -> unit
val head_at : Td_mem.Addr_space.t -> int -> int
val end_at : Td_mem.Addr_space.t -> int -> int
val refcnt_at : Td_mem.Addr_space.t -> int -> int
val set_refcnt_at : Td_mem.Addr_space.t -> int -> int -> unit
val get_ref_at : Td_mem.Addr_space.t -> int -> unit
val set_protocol_at : Td_mem.Addr_space.t -> int -> int -> unit
val frag_page_at : Td_mem.Addr_space.t -> int -> int

val set_frag_at : Td_mem.Addr_space.t -> int -> page:int -> len:int -> unit
(** Chain a fragment page of [len] bytes. *)

val capacity_at : Td_mem.Addr_space.t -> int -> int
(** [end - head]. *)

(** {2 Data} *)

val put_string_at :
  Td_mem.Addr_space.t -> int -> string -> off:int -> len:int -> unit
(** [put_string_at space addr s ~off ~len] appends [String.sub s off len]
    at [data + len], copied straight from [s], and extends [len].
    Overflow — lengths routinely come from guest-writable descriptor
    rings — raises a typed, counted {!Td_xen.Guest_fault.Fault}
    attributed to [space], which the driver supervisor contains. *)

val put_from_at : Td_mem.Addr_space.t -> int -> src:int -> len:int -> unit
(** [put_from_at space addr ~src ~len] appends [len] bytes read from [src]
    in the buffer's own address space, copied in place by
    {!Td_mem.Addr_space.copy}. The overflow check runs first, and a fault
    on either range leaves the buffer untouched. *)

val pull_at : Td_mem.Addr_space.t -> int -> int -> unit
(** Advance [data] by [n] (consume a header), shrinking [len]. Underflow
    raises {!Td_xen.Guest_fault.Fault} like {!put_string_at}. *)

val contents_at : Td_mem.Addr_space.t -> int -> bytes
(** The linear data area (not including chained fragments), as a fresh
    buffer nothing else holds. *)

val total_len_at : Td_mem.Addr_space.t -> int -> int
(** Linear length plus fragment chain length. *)
