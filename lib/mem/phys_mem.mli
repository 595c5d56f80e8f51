(** Simulated physical memory: a pool of 4 KiB page frames.

    A single [t] models the machine's RAM and is shared by all address
    spaces — exactly what lets the hypervisor driver instance and the dom0
    driver instance see a {e single} copy of the driver data.

    Representation: an array of page buffers indexed by frame number,
    grown by doubling up to the capacity (never preallocated to it), with
    a shared zero-length buffer marking free slots.

    Memory is demand-zero: every allocated frame starts on one shared,
    read-only zero page and gets its own buffer only when {!page} is
    first called on it — by a write, or by a caller that keeps the
    buffer. So heap use follows the frames written, not the frames
    allocated. The zero page is never written, which is what lets every
    [t] and every OCaml domain share it without a lock. *)

type frame = int
(** Physical frame number. *)

exception Bad_frame of { frame : int }
(** Access to a frame that is not allocated — a dangling DMA address or
    a forged grant. Typed so the layer that knows the offending domain
    can contain and attribute it instead of crashing the simulation. *)

exception Out_of_frames of { capacity : int }
(** The frame pool is exhausted. *)

type t

val create : ?frames:int -> unit -> t
(** Fresh memory with the given capacity (default 65536 frames = 256 MiB). *)

val alloc_frame : t -> frame
(** Allocate a frame that reads as zeros. It builds no buffer: the frame
    holds the shared zero page until its first write. Frame numbers come
    from the free list (most recently freed first), then in increasing
    order. Raises {!Out_of_frames} when memory is exhausted. *)

val free_frame : t -> frame -> unit
(** Return a frame to the pool. Freeing frame 0, a free frame or a
    never-allocated frame is ignored. *)

val frames_allocated : t -> int
(** Frames currently allocated (a counter, O(1)). *)

val frames_resident : t -> int
(** Allocated frames that have their own buffer, i.e. that {!page} has
    been called on since they were allocated (a counter, O(1)). The rest
    share the zero page. *)

val free_epoch : t -> int
(** The number of frames {!free_frame} has returned to the pool since
    {!create}. Nothing else changes it, so a buffer taken from {!page}
    is still its frame's buffer, and the frame still allocated, for as
    long as the epoch reads what it read when the buffer was taken: a
    cache of buffers (the compiled superblocks' translation memos)
    checks this one counter instead of the frame. *)

val page : t -> frame -> bytes
(** The frame's own backing buffer, built (zeroed) on the first call
    after the frame is allocated; later calls are one bounds check and an
    array load. This is the only accessor whose result may be written,
    and the only one whose result may be kept between accesses: the
    interpreter's compiled superblocks cache the buffer of a
    just-translated page for loads and stores alike, and it stays the
    frame's buffer, seeing every write made through any path, for as
    long as the frame is allocated. Raises {!Bad_frame} on frame 0, a
    freed frame or a never-allocated one. *)

val page_ro : t -> frame -> bytes
(** The frame's current contents for one read: its own buffer, or the
    shared zero page if it was never written. Never makes the frame
    resident. Callers must not write to the result or keep it past the
    access — a later write may give the frame a new buffer. Raises
    {!Bad_frame} as {!page} does. *)

val read : t -> frame -> int -> Td_misa.Width.t -> int
(** [read mem f off w] reads a little-endian value of width [w] at byte
    offset [off] of frame [f]. The access must not cross the frame
    boundary. *)

val write : t -> frame -> int -> Td_misa.Width.t -> int -> unit

val read_bytes : t -> frame -> int -> int -> bytes
val write_bytes : t -> frame -> int -> bytes -> unit

val fill : t -> frame -> int -> int -> char -> unit
(** [fill mem f off len c] sets [len] bytes from offset [off] to [c]. A
    zero fill of a never-written frame does nothing, so the frame stays
    on the zero page. *)
