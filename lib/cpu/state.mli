(** Architectural state of a simulated CPU.

    The CPU executes within a current address space (the running domain's),
    with the hypervisor region optionally overlaid — Xen maps itself into
    the top of every guest address space, which is what lets the hypervisor
    driver run "in any guest context" without switching page tables.
    Every space a CPU reaches is over one {!Td_mem.Phys_mem.t}: its cache
    is physically addressed, and a frame number names one frame. *)

type t = {
  regs : int array;  (** eight GPRs, indexed by {!Td_misa.Reg.index} *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ovf : bool;
  mutable pc : int;
  mutable space : Td_mem.Addr_space.t;  (** current domain's space *)
  mutable hyp_space : Td_mem.Addr_space.t option;
      (** hypervisor overlay for addresses at/above {!Td_mem.Layout.hyp_base} *)
  tlb : Tlb.t;
  cache : Cache.t;
  costs : Cost_model.t;
  mutable cycles : int;
  mutable steps : int;
  mutable pair_slot : bool;
      (** dual-issue model: set when the previous instruction was a simple
          ALU/move that left an empty pairing slot *)
  mutable fuel : int;
      (** instruction budget of the innermost {!Interp.call}; charged per
          executed instruction and per [rep] element so a corrupted huge
          ECX cannot defeat the watchdog. Lives on the state (not the
          interpreter) so compiled superblocks can charge it directly. *)
  mutable fuel_cap : int;  (** the budget [fuel] started from *)
}

val create :
  ?costs:Cost_model.t -> ?hyp_space:Td_mem.Addr_space.t ->
  Td_mem.Addr_space.t -> t

val get : t -> Td_misa.Reg.t -> int
val set : t -> Td_misa.Reg.t -> int -> unit
(** Values are masked to 32 bits. *)

val set_narrow : t -> Td_misa.Width.t -> Td_misa.Reg.t -> int -> unit
(** Write only the low [w] bits, preserving the upper bits (x86 partial
    register semantics). *)

val space_for : t -> int -> Td_mem.Addr_space.t
(** Address space used to translate the given virtual address: the
    hypervisor overlay for hypervisor-range addresses, else the current
    space. *)

val read_mem : t -> int -> Td_misa.Width.t -> int
(** Cost-free memory read (used by native routines; simulated instructions
    go through {!Interp} which adds cycle accounting). *)

val push : t -> int -> unit
val pop : t -> int

val stack_arg : t -> int -> int
(** [stack_arg t i] reads the [i]-th 32-bit argument above the return
    address, following the cdecl convention used by driver code. *)

val add_cycles : t -> int -> unit
val switch_space : t -> Td_mem.Addr_space.t -> unit
(** Change the current address space and flush the TLB. *)
