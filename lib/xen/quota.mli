(** Per-domain resource quotas: the multi-tenant guard rails that stop one
    hostile guest from starving the others.

    Two families of resource are policed per guest domain, keyed by its
    {!Domain.id}; the driver domain (dom0) is exempt and passes every
    check. A domain's name appears only in what the engine reports: the
    {!Quota_exceeded} payload, the metric names and the order of
    {!domains}.

    - {b Concurrency caps} (map-window page pairs, grant-table entries,
      active grant mappings): a plain high-water limit. {!acquire} admits
      or raises; {!release} returns the units.
    - {b Rate caps} (upcalls, channel notifications, doorbell kicks): a
      token bucket per (domain, resource) refilled on {e simulated} time —
      the cycle clock passed to {!make}, typically the ledger's grand
      total, read as seconds at {!Td_cpu.Cost_model.frequency_hz} — so
      enforcement is deterministic and bit-identical across runs.

    Like {!Td_fault.Engine}, an engine is a plain value: a [World]
    builds one from its [Config.tuning.quota] and hands it, at
    construction, to the components that check it — its grant tables,
    I/O channels, upcall stubs and SVM map-window guard — so N worlds
    (and N parallel shards) enforce independently. A component built
    without an engine checks nothing, so zero-quota runs are
    bit-identical to the seed. Denials raise the typed
    {!Quota_exceeded} (contained by callers exactly like
    {!Guest_fault.Fault}) and are counted — always in plain counters,
    additionally in the [xen.quota_throttled]/[xen.quota_inuse.*] metrics
    while observability is on. *)

type limits = {
  map_window_pages : int;
      (** concurrent SVM map-window pages per domain; [<= 0] = unlimited *)
  grant_entries : int;
      (** concurrent grant-table entries per domain; [<= 0] = unlimited *)
  grant_maps : int;
      (** concurrent grant mappings per domain; [<= 0] = unlimited *)
  upcalls_per_s : float;  (** upcall rate; [<= 0.] = unlimited *)
  notifications_per_s : float;
      (** I/O-channel notification (staged-frame) rate; [<= 0.] =
          unlimited *)
  doorbells_per_s : float;  (** doorbell kick rate; [<= 0.] = unlimited *)
  rx_per_s : float;
      (** netback→guest rx delivery rate (frames/s); [<= 0.] = unlimited.
          A denied delivery is dropped by netback before the grant copy,
          so a flooded guest costs dom0 almost nothing. *)
  grant_copy_bytes_per_s : float;
      (** grant-copy bandwidth (bytes/s, both directions), charged to the
          granting domain; [<= 0.] = unlimited *)
  burst : float;  (** token-bucket depth (initial and maximum tokens) *)
  grant_copy_burst_bytes : float;
      (** bucket depth for the byte-denominated [Grant_copy_bytes]
          bucket — must cover at least one full frame or every copy is
          denied *)
}

val unlimited : limits
(** Every cap disabled. *)

val default_limits : limits
(** Finite caps sized for the bench/tdctl demos. *)

type resource =
  | Map_window_pages
  | Grant_entries
  | Grant_maps
  | Upcalls
  | Notifications
  | Doorbells
  | Rx_deliveries  (** rate: netback rx pushes toward a guest *)
  | Grant_copy_bytes  (** rate: grant-copy bandwidth in bytes *)

val all_resources : resource list
val resource_name : resource -> string

exception Quota_exceeded of { domain : string; resource : string }

type state
(** A quota engine: limits, simulated clock and the per-domain
    held/bucket/throttle state, in an array indexed by domain id that
    grows on demand. *)

val make : ?now:(unit -> int) -> limits -> state
(** Build a fresh engine. [now] is the simulated clock in cycles
    (default: a frozen clock, so rate buckets never refill past
    [burst]). An int clock keeps a bucket draw allocation-free: the
    conversion to seconds happens inside the draw, unboxed. *)

val acquire : state -> domain:Domain.t -> resource -> int -> unit
(** Claim [n] units of a concurrency-capped resource; raises
    {!Quota_exceeded} (and counts the throttle) if the domain would
    exceed its cap. *)

val release : state -> domain:Domain.t -> resource -> int -> unit

val try_take : state -> domain:Domain.t -> resource -> bool
(** Draw one token from a rate bucket. [false] (counted as a throttle)
    when the bucket is dry — for callers that degrade gracefully (skip
    the kick, leave the frame staged). *)

val take : state -> domain:Domain.t -> resource -> unit
(** {!try_take} for callers that cannot proceed: raises
    {!Quota_exceeded} when the bucket is dry. *)

val take_n : state -> domain:Domain.t -> resource -> int -> unit
(** Draw [n] tokens at once — the whole draw succeeds or none of it
    does — raising {!Quota_exceeded} on a dry bucket. Byte-denominated
    resources ([Grant_copy_bytes]) refill into a
    [grant_copy_burst_bytes]-deep bucket. *)

val inuse : state -> domain:Domain.t -> resource -> int
(** Current units held (concurrency resources; 0 for rate resources). *)

val throttled : state -> int
(** Total denials since {!make}. *)

val throttled_for : state -> domain:Domain.t -> resource -> int

val domains : state -> Domain.t list
(** The domains the engine holds state for, sorted by name. *)

val forget : state -> domain:Domain.t -> unit
(** Drop the engine's state for [domain] — held units, buckets and
    per-domain throttle counts (aggregate {!throttled} is kept). Called
    when a domain is destroyed so the registry leaves no dangling quota
    rows. *)
