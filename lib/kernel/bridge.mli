(** The dom0 software bridge of Figure 1: connects the physical NIC's
    driver to backend interfaces (one per guest) and the dom0 local stack,
    forwarding sk_buffs by destination MAC through a static fdb.

    MACs are keys: the 48-bit address as an int ({!mac_key}), read from
    the frame in simulated memory ({!read_mac}), so forwarding copies no
    frame bytes onto the host. *)

type port = { port_name : string; tx : int -> unit }
(** A port's [tx] takes over one reference to the sk_buff whose address
    it is handed. *)

type t

val mac_key : string -> int
(** The fdb key of a 6-byte MAC. *)

val read_mac : Td_mem.Addr_space.t -> int -> int
(** [read_mac space addr] is the {!mac_key} of the 6 bytes at [addr]. *)

val create : Kmem.t -> Td_mem.Addr_space.t -> t
(** A bridge with no ports, forwarding sk_buffs that live in the given
    space and come from the given allocator (which frees a flooded frame
    no port takes). *)

val add_port : t -> port -> unit

val forward : t -> dst:int -> src:int -> int -> unit
(** [forward t ~dst ~src skb] hands the sk_buff at address [skb] to the
    fdb port of [dst]. An unknown [dst] floods it to every port except the fdb port of [src]
    (broadcast behaviour), taking one extra reference per port after the
    first; with no port to flood to, the sk_buff is freed. [forward]
    never learns: only {!learn} adds fdb entries. *)

val learn : t -> mac:int -> port -> unit
(** Static entry (used when guest MACs are known up front). *)

val mem : t -> mac:int -> bool
(** Whether [mac] has an fdb entry — lets a caller route only known
    destinations through {!forward} and keep its own policy (e.g. dom0
    local delivery) for unknown ones, instead of flooding. *)

val forget : t -> mac:int -> unit

val remove_port : t -> string -> unit
(** Remove the named port and every fdb entry pointing at it, in place
    — backend interface teardown when its guest is destroyed. The other
    entries keep their iteration order. *)

val fdb : t -> (int * string) list
(** The fdb's [(mac key, port name)] entries in iteration order. *)

val forwarded : t -> int
val flooded : t -> int
