(** Per-category cycle accounting, matching the categories of the paper's
    Figures 7 and 8: guest-domain kernel, driver-domain kernel, the Xen
    hypervisor, and the e1000 driver itself. *)

type category = Dom0 | DomU | Xen | Driver

val categories : category list
val category_name : category -> string

val metric_name : category -> string
(** Name of the {!Td_obs.Metrics} mirror counter for a category
    ([ledger.cycles.dom0] etc.). While observability is enabled, every
    {!charge} also bumps the mirror and {!reset} zeroes it, so registry
    counters and ledger totals stay equal — the invariant
    {!Twindrivers.Measure} asserts after each run. *)

type t

val create : unit -> t
val charge : t -> category -> int -> unit

val charge_for : t -> category -> domain:Domain.t -> int -> unit
(** {!charge}, additionally attributing the cycles to the domain's row —
    the per-tenant axis the adversarial harness asserts on ("every
    injected op's cost lands in the attacker's row"). Xen work done {e on
    behalf of} a guest is attributed to that guest, not to Xen. Rows are
    keyed by {!Domain.id} (an array indexed by id, grown by doubling);
    the domain's name is recorded at its first charge, for
    {!domain_snapshot}. *)

val domain_total : t -> Domain.t -> int
(** Cycles attributed to the domain since the last {!reset}. *)

val domain_snapshot : t -> (string * int) list
(** All per-domain rows by recorded name, sorted by name. A row charged
    only with 0 is still a row. *)

val retired_row : string
(** Name of the aggregate row ("<retired>") that absorbs the rows of
    destroyed domains. *)

val retire_domain : t -> domain:Domain.t -> unit
(** Fold the domain's row into {!retired_row} and drop it, so its id
    may charge afresh (under the name it then has). Category cells and
    the grand total are untouched — destroyed domains keep their cycles
    on the books, so conservation checks and shard merges are invariant
    under domain churn. A domain with no row is ignored. *)

val total : t -> category -> int
val grand_total : t -> int

val note_latency : t -> [ `Tx | `Rx ] -> int -> unit
(** Record one per-direction I/O latency sample (simulated cycles from a
    frame entering the channel to its delivery) in that direction's
    {!Td_obs.Hist}: constant time, no metric mirror, and no bucket array
    until the first sample, so a ledger that records none pays
    nothing. *)

val latency_count : t -> [ `Tx | `Rx ] -> int

val latency_percentile : t -> [ `Tx | `Rx ] -> float -> float option
(** Nearest-rank percentile (e.g. [50.], [99.]) over the recorded
    samples, at bucket resolution ({!Td_obs.Hist.percentile}: never
    below the exact value, at most 1/64 above it); [None] when none
    were recorded. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s cells, per-domain rows (by id; a row new to [into]
    keeps [src]'s name) and latency histograms into [into]. Every merge
    is a sum (or a maximum), so merging per-shard ledgers yields a
    bit-identical result regardless of merge order or host scheduling.
    Metric mirrors
    are deliberately untouched (shards charge with observability
    disabled). *)

val reset : t -> unit

val snapshot : t -> (category * int) list

val digest : t -> string
(** Canonical text of every number the figures are derived from: the
    category cells, the per-domain rows (by name) and, per direction,
    the latency sample count and p50/p90/p99/p99.9. Two ledgers with
    equal digests agree on all of them — how sharded and repeated runs
    are checked for bit-identity. *)

val per_packet : t -> packets:int -> (category * float) list
(** Category totals divided by a packet count — the unit of Figures 7/8. *)

val pp : Format.formatter -> t -> unit
