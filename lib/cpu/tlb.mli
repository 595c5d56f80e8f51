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
(** Drop every translation. O(1): slots carry the epoch they were filled
    in and a flush bumps the epoch, so a slot from before it reads as
    empty. The hit/miss sequence is exactly that of clearing every slot
    and restarting round-robin eviction at way 0: after a flush each set
    evicts in FIFO order from wherever its pointer stands, and a stale
    slot compares as the empty value -1 did. *)

val hits : t -> int
val misses : t -> int

(** {1 Hit witnesses}

    Only a fill (a miss) or a {!flush} changes which pages are resident;
    a hit changes nothing but the hit counter. *)

val changes : t -> int
(** Moves on every fill and every flush, and on nothing else. *)

val access_since : t -> int -> since:int -> bool
(** [access_since tlb vpage ~since] is [access tlb vpage] for a caller
    whose last access was to [vpage], made when [changes tlb] read
    [since]. While it still reads [since] the page is resident, so the
    hit is counted without scanning the set. *)
