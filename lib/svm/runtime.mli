(** The SVM runtime: slow-path miss handling, permission checks and page
    mapping (§4.1).

    Two modes correspond to the paper's two uses of the rewritten binary:

    - [Translate]: the hypervisor instance. A miss maps {e two} consecutive
      dom0 pages into the hypervisor's mapped-page window (unaligned
      accesses may straddle a page) and installs the translation.
    - [Identity]: the VM instance running in dom0. The stlb is filled with
      identity mappings (xor value 0), so the driver "continues to use its
      original data addresses and functions correctly as before, except
      that it runs a little slower".

    The mapped-page window is finite; when it fills, a clock (second
    chance) policy reclaims a cold page-pair — dropping its hash-chain
    entry, invalidating its stlb entry and unmapping the window pages — so
    an unbounded dom0 working set runs in steady state instead of
    exhausting the window. Pairs installed via {!persistent_map} are
    pinned and never reclaimed.

    Accesses outside the dom0 address space raise {!Fault} — this is the
    memory-safety property of the whole design. *)

exception Fault of { addr : int; reason : string }

type mode = Translate | Identity

type t

val create_hypervisor :
  ?map_pairs:bool ->
  ?window_pages:int ->
  ?fault:Td_fault.Engine.state ->
  dom0:Td_mem.Addr_space.t ->
  hyp:Td_mem.Addr_space.t ->
  unit ->
  t
(** Hypervisor instance runtime: stlb at {!Td_mem.Layout.stlb_base} in
    the hypervisor space; mapped pages drawn from the mapped-page window.
    [map_pairs] (default true) maps two consecutive pages per miss as the
    paper prescribes; disabling it is the ablation that makes
    page-straddling accesses fault. [window_pages] (default
    {!Td_mem.Layout.map_window_pages}, must be even) bounds the window;
    smaller windows reclaim sooner. When the successor page of a mapped
    pair has no dom0 mapping (edge of the dom0 range, or [map_pairs]
    off), its window page is backed by a poison device so a straddling
    access raises {!Fault} instead of reading stale window contents. *)

val create_identity :
  ?fault:Td_fault.Engine.state ->
  dom0:Td_mem.Addr_space.t ->
  stlb_vaddr:int ->
  unit ->
  t
(** VM instance runtime: stlb at [stlb_vaddr] in dom0 space. For both
    constructors, [fault] is the engine whose
    {!Td_fault.Svm_wild_access} site the slow path fires; omitted,
    nothing is injected. *)

val mode : t -> mode
val stlb : t -> Stlb.t

val miss : t -> int -> int
(** [miss t addr] is the slow path: validate [addr], install a translation
    (consulting the hash chain first), and return the translated full
    address. Raises {!Fault} for addresses outside dom0 space. *)

val translate : t -> int -> int
(** Full lookup as the fast path + slow path would perform it. Used by
    hypervisor-implemented support routines, which "make use of the stlb
    translation table explicitly while accessing driver data" (§4.3). *)

val persistent_map : t -> int -> int
(** Pre-install a translation for a dom0 address and return the mapped
    address; used for packet buffers that are "persistently mapped into
    hypervisor address space" (§5.3). The window pair is pinned: the
    reclaim clock skips it. *)

val invalidate_page : t -> int -> unit
(** Drop the translation for the page containing the given dom0 address
    (stlb entry, hash chain, and window pair — the slot is released for
    reuse). *)

val flush : t -> unit
(** Tear down {e every} translation: clear the stlb and hash chain and
    unmap all window pairs, including pinned ones. The driver
    supervisor calls this when it destroys an aborted twin instance;
    persistent mappings must be re-established (and re-pinned) on the
    replacement instance. Counters survive; the window restarts empty. *)

val note_inline_hit : t -> int -> unit
(** An interpreted inline fast-path probe hit for dom0 address [addr]:
    marks the window pair referenced for the clock and credits
    [stlb.hit]. Wired to the interpreter by the world so inline hits are
    counted exactly (see docs/METRICS.md). *)

(* window lifecycle *)

val window_pages : t -> int
val window_reclaims : t -> int
(** Page-pairs evicted by the clock since creation. *)

val window_pages_in_use : t -> int

val set_reclaim_hook : t -> (unit -> unit) -> unit
(** Called once per reclaimed pair — the world charges the shootdown cost
    ({!Td_xen.Sys_costs}.[window_reclaim]) to the cycle ledger here, since
    this library cannot depend on the ledger. *)

type window_guard = {
  acquire : pages:int -> string;
      (** called before a window pair is allocated; returns the owner tag
          stored with the slot. May raise (a typed quota fault) — nothing
          has been evicted or mapped yet at that point. *)
  release : owner:string -> pages:int -> unit;
      (** called when the pair is evicted, invalidated or flushed *)
}

val window_slots : t -> (int * bool) option array
(** Per window slot: the dom0 page base its pair maps and the clock's
    reference bit; [None] for a free slot. *)

val slot_of_page : t -> int -> int option
(** The slot the page table records for a dom0 page base. *)

val set_window_guard : t -> window_guard -> unit
(** Install per-domain window accounting. The quota subsystem lives in
    [td_xen] (which depends on this library), so the world wires the guard
    from above rather than this module calling quotas directly. *)

(* statistics *)

val misses : t -> int
val collisions : t -> int
(** Slow-path entries caused by hash collisions (chain hits). *)

val faults : t -> int
val pages_mapped : t -> int

(* native hooks for rewritten code *)

val register_natives : t -> Td_cpu.Native.t -> unit
(** Registers ["__svm_miss"] (stack arg: faulting address; returns the
    translated address in [EAX]) under the instance-specific name
    ["__svm_miss@<mode>"], plus the shared helper ["__svm_translate@<mode>"]
    used by rewritten string operations. *)

val miss_symbol : t -> string
val translate_symbol : t -> string
