(** Registry mapping code-address ranges to assembled programs.

    Programs do not live in simulated RAM; a code address identifies
    [(program, instruction index)] through this registry, which plays the
    role of the instruction fetch path. Programs are kept sorted by base
    so lookup is a binary search. Code is immutable once registered: a
    program is never replaced or removed, so the interpreter's caches
    never need a registry-driven flush. *)

type t

val create : unit -> t
val register : t -> Td_misa.Program.t -> unit
(** Raises [Invalid_argument] when the program's range overlaps an already
    registered program. *)

val find : t -> int -> Td_misa.Program.t option
(** Program containing the given code address (binary search). *)

val find_exn : t -> int -> Td_misa.Program.t
(** {!find} without the option, for the interpreter's fetch path: raises
    [Not_found], and allocates nothing. *)


