(** The preallocated sk_buff pool of §4.3: buffers reserved from the dom0
    heap for use by the hypervisor's support-routine implementations
    ([netdev_alloc_skb] / [dev_kfree_skb_any] without upcalls).

    "We use a simple reference counter trick to prevent other routines in
    the dom0 kernel from accessing these buffers": pool-owned sk_buffs
    keep a base reference, so a dom0-side free never releases them back to
    the dom0 allocator — they return here instead. *)

type t

val create : Kmem.t -> Td_mem.Addr_space.t -> entries:int -> buf_size:int -> t
(** Each pool sk_buff also carries a preallocated dom0 fragment buffer
    (§5.3: the hypervisor "chains together the rest of the guest packet
    ... using pre-allocated page frames from dom0"). *)

val frag_buffer : t -> int -> int
(** The preallocated (page-sized) fragment buffer of the sk_buff at this
    address. Raises {!Td_xen.Guest_fault.Fault} for a foreign sk_buff. *)

val alloc : t -> Skb.t option
(** [None] when the pool is empty (the driver will drop the packet). The
    [Some] is built once per slot, at {!create}: an allocation builds
    nothing on the host. *)

val release : t -> int -> unit
(** Return the sk_buff at this address to the pool; resets data/len.
    Raises
    {!Td_xen.Guest_fault.Fault} (counted, survivable) for an sk_buff
    the pool does not own or that is already back in the pool — foreign
    pointers and double frees are driver-supplied input, not a
    hypervisor invariant. *)

val reset : t -> unit
(** Reclaim every sk_buff — free or in flight — back to the free list in
    pristine state. The driver supervisor calls this while destroying an
    aborted twin instance; any structure that held pool buffers (NIC rx
    rings especially) must be re-initialised before traffic resumes. *)

val owns : t -> int -> bool
(** The sk_buff at this address is one of the pool's. *)

val iter : t -> (Skb.t -> unit) -> unit
(** Apply to every pool-owned sk_buff (free or in flight). *)

val available : t -> int
val size : t -> int
val exhaustions : t -> int
(** Number of failed allocations. *)
