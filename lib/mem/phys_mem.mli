(** Simulated physical memory: a pool of 4 KiB page frames.

    A single [t] models the machine's RAM and is shared by all address
    spaces — exactly what lets the hypervisor driver instance and the dom0
    driver instance see a {e single} copy of the driver data.

    Representation: an array of page buffers indexed by frame number,
    grown by doubling up to the capacity (never preallocated to it), with
    a shared zero-length buffer marking free slots. *)

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
(** Allocate a zeroed frame. Raises {!Out_of_frames} when memory is
    exhausted. *)

val free_frame : t -> frame -> unit
(** Return a frame to the pool. Freeing frame 0, a free frame or a
    never-allocated frame is ignored. *)

val frames_allocated : t -> int
(** Frames currently allocated (a counter, O(1)). *)

val page : t -> frame -> bytes
(** The backing buffer of an allocated frame: one bounds check and an
    array load. Block copies blit straight into and out of it, and the
    interpreter's compiled superblocks cache the buffer of a
    just-translated page so repeated accesses through the same base
    register skip the page-table walk; the buffer stays valid (and
    observes concurrent DMA writes) for as long as the frame is
    allocated. Raises {!Bad_frame} on frame 0, a freed frame or a
    never-allocated one. *)

val read : t -> frame -> int -> Td_misa.Width.t -> int
(** [read mem f off w] reads a little-endian value of width [w] at byte
    offset [off] of frame [f]. The access must not cross the frame
    boundary. *)

val write : t -> frame -> int -> Td_misa.Width.t -> int -> unit

val read_bytes : t -> frame -> int -> int -> bytes
val write_bytes : t -> frame -> int -> bytes -> unit
