(** Fixed virtual-memory layout of the simulated machine (32-bit).

    Mirrors the Xen/Linux split the paper relies on: dom0's kernel occupies
    the high quarter of the address space, the hypervisor owns the top
    region, and the TwinDrivers artefacts (stlb, mapped-page window,
    hypervisor driver code and stack) live at fixed hypervisor addresses. *)

val page_size : int
val page_shift : int
val page_mask : int
(** [page_mask = page_size - 1]. *)

val page_of : int -> int
(** Virtual or physical page number of an address. *)

val page_base : int -> int
(** Address with the offset bits cleared. *)

val offset_of : int -> int

val addr_limit : int
(** One past the highest representable address (2^32). *)

(* dom0 (driver domain) *)

val dom0_kernel_base : int
(** Start of dom0 kernel virtual space, the low bound of {!in_dom0_range}. *)

val dom0_heap_base : int
val dom0_heap_limit : int
val vm_driver_code_base : int

(* guest domains *)

val guest_heap_base : int
val guest_heap_limit : int

(* hypervisor *)

val hyp_base : int
(** Start of the hypervisor-reserved region; everything at or above this
    address must be unreachable from the derived driver. *)

val stlb_base : int
(** Virtual address of the software translation table. *)

val stlb_entries : int
(** Number of stlb hash buckets (4096 in the paper). *)

val stlb_entry_bytes : int
(** Bytes per entry: tag word + xor word. *)

val map_window_base : int
val map_window_pages : int
(** Window of hypervisor virtual pages used to map dom0 pages (16 MB in the
    paper: "mapping up to 16MB of dom0 virtual memory"). *)

val hyp_driver_code_base : int
val hyp_stack_top : int
val hyp_stack_pages : int
val hyp_scratch_base : int
(** Per-CPU scratch slots used when the rewriter must spill registers. *)

val native_base : int
(** Code addresses at or above this are native (OCaml-implemented) routines
    registered with the CPU; calls to them leave the simulated ISA. *)

val code_offset : int
(** Constant displacement between VM-driver and hypervisor-driver code
    addresses ([hyp_driver_code_base - vm_driver_code_base]); the paper uses
    the same rewritten binary for both instances precisely so that this is a
    constant. *)

val in_dom0_range : int -> bool
(** True when the address lies in dom0 kernel virtual space — the only
    region the SVM slow path may map for the hypervisor driver. *)

val in_hyp_range : int -> bool
