(** Xen domains: the driver domain (dom0) and guest domains.

    Each domain has its own address space. The virtual interrupt flag
    (§4.4) lives both as a word in the domain's kernel memory — so that
    driver code and kernel code can test it — and is interpreted by the
    hypervisor before delivering virtual interrupts. *)

type kind = Driver_domain | Guest

type t

val create :
  id:int -> name:string -> kind:kind -> space:Td_mem.Addr_space.t -> t

val id : t -> int
(** Non-negative; the key of every per-domain table (ledger rows, quota
    state, scheduler slots), each an array indexed by id. *)

val cover : 'a array -> id:int -> 'a -> 'a array
(** [cover a ~id fill] is [a] if it has an index [id], else a copy
    doubled in length until it has, the new cells set to [fill]. *)

val name : t -> string
val kind : t -> kind
val space : t -> Td_mem.Addr_space.t

val init_vif : t -> vaddr:int -> unit
(** Place the virtual interrupt flag word at [vaddr] (must be mapped);
    0 = enabled, 1 = masked. *)

val vif_addr : t -> int
val interrupts_masked : t -> bool
val mask_interrupts : t -> unit
val unmask_interrupts : t -> unit

val defer : t -> (unit -> unit) -> unit
(** Queue a virtual interrupt for delivery once interrupts are unmasked. *)

val pending : t -> int
val deliver_pending : t -> unit
(** Run queued virtual interrupts (called on unmask). *)
