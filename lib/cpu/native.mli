(** Registry of native routines — OCaml closures standing in for C code
    (hypervisor-implemented support routines, the SVM slow path, kernel
    helpers).

    Each routine is assigned a code address at or above
    {!Td_mem.Layout.native_base}; a [call] that targets such an address
    leaves the simulated ISA and runs the closure. Arguments follow cdecl:
    the closure reads them with {!State.stack_arg} and leaves its result in
    [EAX].

    Addresses are handed out 16 bytes apart in registration order and
    never reused, so the registry is one array indexed by
    [(addr - native_base) / 16]: dispatch is a bounds and alignment check
    plus a load, with no hashing and no allocation. *)

type fn = State.t -> unit

type t

val create : unit -> t

val register : t -> string -> fn -> int
(** Register a routine and return its code address. Re-registering a name
    replaces the implementation but keeps the address stable (used when
    demoting a hypervisor support routine to an upcall stub). *)

val address_of : t -> string -> int option
val name_of : t -> int -> string option

val lookup : t -> int -> fn option
(** The routine registered at an address; [None] for a misaligned,
    unregistered or out-of-range address. Allocates nothing: it returns
    the option stored at registration, on the path of every simulated
    [call] into native code. *)

val is_native_addr : int -> bool
val count : t -> int
