(** Data-TLB model: a fixed-capacity set of recently used virtual pages.

    Flushed on address-space (domain) switches — the dominant cost the
    paper attributes to Xen's driver-domain architecture. *)

type t

val create : ?entries:int -> unit -> t
(** Default capacity: 256 entries, 4-way set-associative (dTLB + L2 TLB). *)

val access : t -> int -> bool
(** [access tlb vpage] records an access and returns [true] on a hit.
    A loop over one set's ways: it allocates nothing, so every engine can
    call it once per simulated memory access. *)

val flush : t -> unit
val hits : t -> int
val misses : t -> int
