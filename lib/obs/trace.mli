(** A bounded ring buffer of typed runtime events — the "more detailed
    profiling" companion to the {!Metrics} registry.

    Each instrumented layer emits the events below on its hot path
    (guarded at the call site by {!Control.enabled}, so a disabled run
    neither allocates the event nor touches the ring). The ring keeps
    the last {!capacity} records; each carries a monotonic sequence
    number, so wraparound is visible as a gap between [emitted ()] and
    the first retained record. *)

type event =
  | Stlb_hit of { addr : int }
      (** software-TLB probe matched ({!Td_svm.Runtime.translate}). *)
  | Stlb_miss of { addr : int; refill : bool }
      (** probe missed; [refill] when the translation was refilled from
          the page table that models §4.2's hash chain (a direct-mapped
          collision, not a new page). *)
  | Stlb_evict of { victim_page : int; new_page : int }
      (** installing [new_page] overwrote a live colliding entry. *)
  | Stlb_invalidate of { dom0_page : int }
      (** a live entry was dropped ({!Td_svm.Stlb.invalidate}) — page
          reclaim or an explicit {!Td_svm.Runtime.invalidate_page}. *)
  | Window_reclaim of { victim_page : int; mapped : int }
      (** the mapped-page window was full: the clock hand evicted the
          page-pair holding dom0 page [victim_page] from window slot
          [mapped] to make room. *)
  | Svm_validate of { addr : int; ok : bool }
      (** slow-path validation of a first-touch page against the dom0
          address space (§4.2). *)
  | Svm_fault of { addr : int; reason : string }
      (** validation failed: the access is outside dom0 — the driver
          aborts, nothing else does (§4.5). *)
  | Upcall_enter of { routine : string }
  | Upcall_exit of { routine : string; switched : bool }
      (** a support routine forwarded into dom0 (§4.3); [switched] when
          it cost a pair of world switches. *)
  | Hypercall of { cost : int }
  | World_switch of { from_dom : int; to_dom : int }
  | Virq of { dom : int; deferred : bool }
      (** virtual interrupt delivery; [deferred] when the target had
          interrupts masked (§4.4). *)
  | Grant_map of { gref : int }
  | Grant_unmap of { gref : int }
  | Grant_copy of { gref : int; bytes : int }
  | Nic_dma of { dir : [ `Read | `Write ]; bytes : int }
      (** one frame-sized DMA transfer between rings and buffers
          (descriptor-word traffic is counted, not traced). *)
  | Nic_tx of { bytes : int }
  | Nic_rx of { bytes : int }
  | Nic_drop of { reason : string }
  | Skb_alloc of { addr : int; pooled : bool }
  | Skb_free of { addr : int; pooled : bool }
  | Netio_tx of { bytes : int }
  | Netio_rx of { bytes : int }
  | Fault_injected of { site : string }
      (** the fault engine fired at the named injection site
          ({!Td_fault.Engine.fire}). *)
  | Driver_recovery of { nic : int; reason : string }
      (** the supervisor restarted the driver complex after NIC [nic]
          aborted with [reason]. *)
  | Guest_fault of { op : string }
      (** a guest-reachable validation failure was contained as a typed
          fault instead of killing the process ({!Td_xen.Guest_fault}). *)
  | Custom of { name : string; value : int }
      (** escape hatch for experiments and tests. *)

type record = { seq : int; event : event }

val emit : event -> unit
(** Append to the ring — a no-op while {!Control.enabled} is false.
    Call sites on hot paths must also guard event {e construction}. *)

val records : unit -> record list
(** Retained records, oldest first (at most {!capacity}). *)

val emitted : unit -> int
(** Total events emitted since the last {!clear}, including overwritten
    ones. *)

val exists : (event -> bool) -> bool
val count_if : (event -> bool) -> int

val capacity : unit -> int
val set_capacity : int -> unit
(** Resize (clearing) the ring; default 4096 records. *)

val clear : unit -> unit

val to_json : unit -> Json.t
(** [{"capacity", "emitted", "records": [{"seq", "event", ...fields}]}] —
    schema in docs/METRICS.md. *)

val pp_record : Format.formatter -> record -> unit
