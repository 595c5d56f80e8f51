(** Per-routine cycle attribution — the "more detailed profiling" the
    paper uses to locate overheads inside the twin configurations (§6.2).

    Attach a profiler to an interpreter and every simulated cycle is
    charged to the label region enclosing the instruction that spent it
    (labels are routine entry points in driver code, so this yields
    per-routine profiles, including the rewriter-emitted slow paths). *)

type t

val attach : Interp.t -> t
(** Attaches a block observer ({!Interp.observe_blocks}) that ends every
    block at the next label start, so each block lies in one region and
    its cycles are charged at the next block entry. Reading the profile
    settles the cycles spent since the last block entry. *)

val cycles_by_label : t -> (string * int) list
(** Sorted by descending cycles. Label names are qualified as
    ["program:label"]. *)

val total_cycles : t -> int
(** Every simulated cycle the interpreter spent since {!attach} or the
    last {!reset}. *)

val reset : t -> unit

val publish : t -> unit
(** Fold the current per-label cycle totals into the {!Td_obs.Metrics}
    registry as [profile.cycles.<program:label>] gauges, so profiles
    travel in the same JSON export as every other metric. *)

val pp : Format.formatter -> t -> unit
(** Top entries with percentages. *)
