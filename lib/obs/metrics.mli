(** The process-wide metrics registry.

    Three metric kinds, all registered by name on first use:

    - {b counters} — monotonically increasing integers (events, cycles);
    - {b gauges} — last-written floats (pool occupancy, table fill);
    - {b histograms} — bounded log-linear {!Hist} distributions
      (per-call cycle counts, frame sizes), with percentiles at most
      1/64 above the exact nearest-rank value.

    Names are dot-separated, [layer.object.unit]-style ([stlb.miss],
    [ledger.cycles.dom0], [nic.tx.frames]); docs/METRICS.md catalogues
    every name the runtime layers emit. Re-requesting a registered name
    returns the existing metric; requesting it as a different kind
    raises [Invalid_argument].

    Handles ({!counter}, {!gauge}, {!histogram}) are cheap to hold and
    survive {!reset_all} (which zeroes values but keeps registrations).
    Instrumentation sites that fire rarely use the by-name helpers
    {!bump}/{!bump_by}, which are no-ops while {!Control.enabled} is
    false. *)

type counter
type gauge
type histogram = Hist.t

(* registration *)

val counter : ?help:string -> string -> counter
val gauge : ?help:string -> string -> gauge

val histogram : ?help:string -> string -> histogram
(** Callers record with {!Hist.observe} and read with {!Hist}'s
    accessors. *)

(* updates (unconditional — callers guard with {!Control.enabled}) *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

(* guarded by-name updates: no-ops when observability is disabled *)

val bump : string -> unit
val bump_by : string -> int -> unit

(* reads *)

val value : counter -> int
val gauge_value : gauge -> float

val counter_value : string -> int
(** 0 when the name is unregistered. *)

val exists : string -> bool

(* registry-wide *)

val reset : string -> unit
val reset_all : unit -> unit
(** Zero every metric, keeping registrations and handles valid. *)

val clear : unit -> unit
(** Drop every registration (tests use this for isolation). *)

val names : unit -> string list

val snapshot : unit -> (string * float) list
(** Flat name→value view, sorted by name: counters and gauges directly,
    histograms as [.count]/[.sum]/[.mean]/[.p50]/[.p99] entries (an
    empty histogram's percentiles read 0). This is
    the [metrics] field of {!Twindrivers.Measure.result}. *)

val to_json : unit -> Json.t
(** The structured export of docs/METRICS.md: an object with
    ["counters"], ["gauges"] and ["histograms"] members. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable table ([tdctl metrics --table]). *)
