(** Virtual address spaces: per-domain page tables over shared physical
    memory, plus device (MMIO) pages.

    Accesses may be unaligned and may straddle a page boundary (the Intel
    ISA permits this; the paper maps {e two} consecutive pages per stlb miss
    for exactly this reason) — straddling accesses are split here.

    Representation: an x86-style two-level page table over the 32-bit
    space. A 1024-slot directory points to 1024-entry leaves, and a leaf
    is allocated on the first {!map} into its 4 MiB. Each entry is an
    unboxed int, the {!entry} that {!lookup} returns: a frame number, or
    unmapped, or a slot of the space's own device table. So a
    translation is two array loads, and {!map} stores an int: neither
    allocates. A device slot is given back by {!unmap}, by a remap over
    the device and by {!release}, and reused first, so the table stays
    as large as the most device pages mapped at once (see
    {!device_slots}). A vpage outside
    [0 .. Layout.addr_limit / page_size - 1] (a negative address, or one
    at or above 2{^32}) always reads as unmapped. *)

type device = {
  dev_read : int -> Td_misa.Width.t -> int;
      (** [dev_read offset width] — offset within the page *)
  dev_write : int -> Td_misa.Width.t -> int -> unit;
}

type entry = private int
(** A page-table entry, meaningful in the space that returned it: a
    frame number ([>= 0]) for a frame, [-1] for an unmapped page, and a
    lower value for a device page (a slot of the space's device table).
    Two lookups that return equal frame entries map the same frame. *)

exception Page_fault of { space : string; addr : int }

exception Heap_exhausted of { space : string; requested : int }
(** The bump allocator's region is spent. Typed (and attributed to the
    owning space's name) so a guest whose driver leaks its way through
    the heap aborts that driver instance instead of the simulation. *)

type t

val create : name:string -> Phys_mem.t -> t
val name : t -> string
val phys : t -> Phys_mem.t

val map : t -> vpage:int -> Phys_mem.frame -> unit
(** Map (or remap) [vpage]. Precondition: [0 <= vpage < 2{^20}] and a
    frame [>= 0]; raises [Invalid_argument] otherwise. *)

val map_device : t -> vpage:int -> device -> unit
(** As {!map}, same precondition on [vpage]. *)

val map_entry : t -> vpage:int -> from:t -> entry -> unit
(** [map_entry t ~vpage ~from e] maps [vpage] of [t] as [e], an entry
    {!lookup} returned in [from]: to the same frame, or to the same
    device (in a slot of [t]'s own table); an unmapped [e] unmaps.
    Same precondition as {!map}. *)

val unmap : t -> vpage:int -> unit

val lookup : t -> vpage:int -> entry
(** Two array loads; allocates nothing. *)

val is_mapped : t -> vpage:int -> bool
val frame_of_vpage : t -> vpage:int -> Phys_mem.frame option
(** [None] for unmapped or device pages. *)

val mapped_pages : t -> int
(** Frame and device pages currently mapped (a counter, O(1)). *)

val device_slots : t -> int
(** Slots of the device table handed out so far, mapped or given back
    for reuse: at most the most device pages mapped at once, plus one
    for a remap of a device page to a device. {!release} empties it. *)

val alloc_page : t -> vpage:int -> Phys_mem.frame
(** Allocate a fresh frame and map it at [vpage] (same precondition as
    {!map}, checked before the frame is taken). *)

val alloc_region : t -> vaddr:int -> pages:int -> unit
(** Back [pages] consecutive pages starting at [vaddr] with fresh frames. *)

val read_mapped : t -> entry -> int -> Td_misa.Width.t -> int
(** [read_mapped t e addr w] reads an access that stays within one page,
    through [e], the {!lookup} of [addr]'s page in [t]: a frame is read
    from physical memory, a device through its hook, and an unmapped
    page raises {!Page_fault}. Lets a caller that already walked the table for its
    own purposes (the CPU's cost model) access memory without a second
    walk. The caller must not pass a page-straddling access. *)

val write_mapped : t -> entry -> int -> Td_misa.Width.t -> int -> unit
(** As {!read_mapped}, for a write. *)

val straddles : int -> Td_misa.Width.t -> bool
(** [straddles addr w]: an access of width [w] at [addr] crosses a page
    boundary, so {!read_mapped}/{!write_mapped} must not serve it. *)

val read : t -> int -> Td_misa.Width.t -> int
(** Virtual read; splits page-straddling accesses. Raises {!Page_fault} on
    unmapped pages. *)

val write : t -> int -> Td_misa.Width.t -> int -> unit
(** Virtual write. A page-straddling write resolves both pages before
    storing any byte, so a {!Page_fault} (or a {!Phys_mem.Bad_frame}
    through a stale mapping) on either leaves memory untouched, like a
    precise x86 fault. *)

val read_into : t -> int -> bytes -> pos:int -> len:int -> unit
(** [read_into t addr buf ~pos ~len] copies [len] bytes from [addr] into
    [buf] at [pos], page by page, straight from the backing frames. A
    fault part-way leaves the bytes before it copied. Raises
    [Invalid_argument] when the range is outside [buf]. *)

val read_block : t -> int -> int -> bytes
(** [read_block t addr len] is {!read_into} on a fresh buffer of [len]
    bytes. *)

val write_block : t -> int -> bytes -> unit
(** Copy a buffer in, page by page, straight into the backing frames. A
    fault part-way leaves the pages before it written. *)

val write_string : t -> int -> string -> off:int -> len:int -> unit
(** [write_string t addr s ~off ~len] is {!write_block} of
    [String.sub s off len] without the intermediate copy. Raises
    [Invalid_argument] when the range is outside [s]. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** [copy t ~src ~dst ~len] moves [len] bytes from [src] to [dst] within
    [t], a page-sized chunk at a time with no intermediate buffer. Every
    source page, then every destination page, is resolved before the
    first byte moves, so a {!Page_fault} (or a {!Phys_mem.Bad_frame}
    through a stale mapping) leaves memory untouched. The two ranges must
    not overlap. *)

val fill : t -> int -> int -> char -> unit
(** [fill t addr len c] stores [len] copies of [c] from [addr], in place.
    A zero fill leaves never-written frames on the shared zero page (see
    {!Phys_mem}), so zeroing a fresh object costs nothing. *)

val iter_frames : t -> (vpage:int -> Phys_mem.frame -> unit) -> unit
(** Visit every frame-backed mapping in ascending [vpage] order (device
    pages are skipped) by walking the table in place, so bulk teardown
    reproduces bit-identically. The callback must not map or unmap pages
    of [t]. *)

val release : t -> unit
(** Destroy the space's contents: return every backing frame to the
    physical allocator (in ascending vpage order), drop all mappings
    (device pages included) and forget the heap. The space itself stays
    usable for a fresh {!heap_init}. Frames still mapped elsewhere (e.g.
    a granted page a backend has not unmapped) must be unmapped there
    first — this is the last step of domain destruction. *)

val heap_init : t -> base:int -> limit:int -> unit
(** Initialise the bump allocator for kernel-heap virtual addresses. *)

val heap_alloc : t -> int -> int
(** [heap_alloc t bytes] reserves (and maps) a fresh, page-padded region and
    returns its virtual address. Raises {!Heap_exhausted} when the heap
    region is spent, [Invalid_argument] before {!heap_init}. *)
