(** Registry mapping code-address ranges to assembled programs.

    Programs do not live in simulated RAM; a code address identifies
    [(program, instruction index)] through this registry, which plays the
    role of the instruction fetch path. Programs are kept sorted by base
    so lookup is a binary search, and every mutation bumps a generation
    stamp that the interpreter's block cache checks before trusting a
    cached resolution. *)

type t

val create : unit -> t
val register : t -> Td_misa.Program.t -> unit
(** Raises [Invalid_argument] when the program's range overlaps an already
    registered program. *)

val replace : t -> Td_misa.Program.t -> unit
(** Like {!register}, but any overlapping programs are unregistered
    first — the supervisor reloading a fresh driver image over an
    aborted instance's address range. Bumps the {!generation}, so blocks
    the interpreter cached from the dead image can never execute. *)

val generation : t -> int
(** Monotonic stamp, bumped by {!register} and {!replace}. Consumers
    holding resolutions across calls (the interpreter's block cache)
    compare stamps and re-resolve on mismatch. Stamps are drawn from a
    process-global atomic counter, so they are unique across registry
    instances: distinct registries (one per simulation shard) never
    alias, and an interpreter can never mistake another registry's
    cached blocks for its own. Never 0 (the block cache's unfilled
    sentinel). *)

val find : t -> int -> Td_misa.Program.t option
(** Program containing the given code address (binary search). *)

val find_exn : t -> int -> Td_misa.Program.t
(** {!find} without the option, for the interpreter's fetch path: raises
    [Not_found], and allocates nothing. *)


