(** Data-cache model: direct-mapped, 64-byte lines, physically indexed.

    Physically indexed so that the dom0 data accessed by the hypervisor
    driver through its SVM mapping hits the same lines as when dom0
    accesses it — a property the TwinDrivers design depends on (one data
    instance, shared cache footprint). *)

type t

val create : ?size_bytes:int -> ?line_bytes:int -> unit -> t
(** Default: 512 KiB (last-level), 64-byte lines. *)

val access : t -> int -> bool
(** [access cache paddr] returns [true] on a hit. A miss fills the line,
    evicting the one it displaces; a hit changes nothing but the hit
    counter. There is no flush: a line leaves the cache only when a miss
    displaces it. *)

val hits : t -> int
val misses : t -> int

(** {1 Hit witnesses} *)

val changes : t -> int
(** Moves on every miss, and on nothing else: the only event that evicts
    a line. *)

val access_since : t -> int -> prev:int -> since:int -> bool
(** [access_since cache paddr ~prev ~since] is [access cache paddr] for a
    caller whose last access was to [prev], made when [changes cache]
    read [since]. While it still reads [since], [prev]'s line is
    resident, so an access on that line is counted as a hit without
    checking the tag. *)
