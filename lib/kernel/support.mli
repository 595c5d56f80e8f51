(** The driver support-routine registry.

    The paper counts 97 kernel routines called by the e1000 driver across
    all its operations, of which only the ten in Table 1 are needed on the
    error-free transmit/receive fast path. Here every routine has a dom0
    (kernel) implementation; the hypervisor provides native
    implementations only for the fast-path set, and every other routine is
    linked to an upcall stub (§4.3, §5.2).

    Implementations are OCaml closures standing in for kernel C code; they
    read their arguments from the simulated stack and operate on the
    shared dom0 data structures, exactly like both driver instances. *)

type t

val fast_path_names : string list
(** The ten routines of Table 1, in the paper's order. *)

val create : space:Td_mem.Addr_space.t -> kmem:Kmem.t -> t

val kmem : t -> Kmem.t

val set_netif_rx : t -> (int -> unit) -> unit
(** What [netif_rx] does with a received packet, given the sk_buff's
    address in dom0, in the current system configuration (deliver to the
    local stack, bridge it, ...). *)

val routine_names : t -> string list
val routine_count : t -> int
val is_fast_path : string -> bool

(* call statistics *)

val dom0_calls : t -> string -> int
val hyp_calls : t -> string -> int
val upcalls : t -> string -> int
val total_upcalls : t -> int
val reset_counts : t -> unit

val called_routines : t -> string list
(** Routines invoked (in any context) since the last reset — used to
    regenerate Table 1 by tracing the error-free fast path. *)

(* wiring *)

val register_dom0_natives : t -> Td_cpu.Native.t -> unit
(** Register every routine as ["<name>@dom0"]. *)

val dom0_symtab : t -> Td_cpu.Native.t -> string -> int option
(** Symbol table mapping plain routine names to the dom0 natives (used
    when loading the VM instance and the native-Linux driver). *)

type hyp_ctx = {
  hyp : Td_xen.Hypervisor.t;
  dom0 : Td_xen.Domain.t;
  svm : Td_svm.Runtime.t;
  pool : Skb_pool.t;
  mutable hyp_netif_rx : int -> unit;  (** takes the sk_buff's dom0 address *)
}

val register_hyp_natives :
  ?quota:Td_xen.Quota.state ->
  ?fault:Td_fault.Engine.state ->
  t ->
  Td_cpu.Native.t ->
  ctx:hyp_ctx ->
  native_set:string list ->
  unit
(** Register the hypervisor-side resolution of every routine: a native
    hypervisor implementation for routines in [native_set] (must be
    fast-path routines), an upcall stub into dom0 for the rest. Symbols
    are ["<name>@hyp"]. Varying [native_set] reproduces Figure 10. The
    stubs consult [quota] and [fault] ({!Td_xen.Upcall.make_stub}). *)

val hyp_symtab : t -> Td_cpu.Native.t -> string -> int option

val set_hyp_netif_rx : t -> (int -> unit) -> unit
(** Hypervisor-side [netif_rx] behaviour (demux + guest delivery); only
    valid after {!register_hyp_natives}. *)

