(** Deterministic, seeded fault injection for the twin-driver runtime.

    Engine state is first-class: {!Engine.make} builds an armed engine
    from a plan, and each OCaml domain carries an *ambient* engine slot
    (domain-local storage) that {!Engine.install}/{!Engine.clear} set
    directly and {!Engine.with_state} scopes around a callback. Runtime
    layers that host an injection site ask {!Engine.fire} on their hot
    path, guarded by {!Engine.active}, so a run without a visible
    engine executes exactly the pre-fault instruction stream —
    bit-identical ledgers, wire traffic and traces. A [World] that
    carries a private engine scopes it around its entry points, so N
    worlds (and N parallel shards — each spawned OCaml domain starts
    with an empty slot) inject independently.

    Each site class draws from its own xorshift stream seeded from
    [plan.seed], so two runs with the same plan and workload inject the
    same faults at the same points, regardless of how often other sites
    poll. Rates are per-opportunity probabilities (per slow-path miss,
    per interpreted instruction, per doorbell, per asserted interrupt,
    per received frame, per upcall). A rate of [0.] never consults the
    stream, so a zero plan is behaviourally identical to no plan. *)

type site =
  | Svm_wild_access  (** SVM slow path: wild access past the dom0 range *)
  | Interp_bitflip  (** interpreter: register/flag bit-flip *)
  | Nic_stuck_dma  (** NIC model: TX DMA engine wedges mid-ring *)
  | Nic_lost_irq  (** NIC model: asserted interrupt is never delivered *)
  | Nic_corrupt_rx  (** NIC model: RX descriptor corrupted, frame lost *)
  | Upcall_fail  (** upcall path: dom0 fails/times out the upcall *)

val all_sites : site list
val site_name : site -> string
(** Dotted metric suffix, e.g. ["svm_wild_access"]. *)

val site_of_name : string -> site option

type plan = {
  seed : int;
  svm_wild_access : float;
  interp_bitflip : float;
  nic_stuck_dma : float;
  nic_lost_irq : float;
  nic_corrupt_rx : float;
  upcall_fail : float;
}

val zero_plan : plan
(** Seed 0, every rate [0.] — installing it changes nothing. *)

val uniform_plan : ?seed:int -> float -> plan
(** Every site class at the same per-opportunity rate. *)

val rate : plan -> site -> float

module Engine : sig
  type state
  (** An armed engine: a plan, its per-site xorshift streams, the
      suspend depth, and the injection/loss counters. *)

  val make : plan -> state
  (** Build a fresh engine: streams seeded from [plan.seed], all
      counters zero, not suspended. *)

  val with_state : state -> (unit -> 'a) -> 'a
  (** Run [f] with [state] as the calling OCaml domain's ambient
      engine, restoring whatever was visible before on exit
      (exception-safe). Counters accumulate in [state] across calls, so
      a [World] can scope its private engine around each entry point
      and read totals afterwards with e.g.
      [with_state st Engine.injected]. *)

  val install : plan -> unit
  (** Arm the ambient slot with a fresh engine (so streams and all
      counters, including {!lost_frames}, start from zero). *)

  val clear : unit -> unit
  (** Empty the ambient slot. The previous engine's counters live on in
      its [state] (if the caller kept it); module-level readers return
      zero once the slot is empty. *)

  val plan : unit -> plan option
  val active : unit -> bool
  (** An engine is visible and injection is not {!suspend}ed. *)

  val armed : site -> bool
  (** {!active}, and the visible plan's rate at [site] is above [0.] —
      exactly when {!fire} at [site] could consult its stream. *)

  val fire : site -> bool
  (** One injection opportunity at [site]. [true] means the caller must
      inject its fault now; the engine has already counted it, bumped
      [fault.injected] and emitted a [Fault_injected] trace event. Never
      fires when inactive, suspended, or the site's rate is [0.]. *)

  val pick : site -> int -> int
  (** Deterministic choice in [0, bound) from [site]'s stream — for
      picking which register/bit to flip after {!fire} said yes. *)

  val suspend : (unit -> 'a) -> 'a
  (** Run [f] with injection masked on the visible engine (re-entrant).
      The supervisor wraps recovery and replay in this so restarts
      always make progress. A no-op wrapper when no engine is
      visible. *)

  val injected : unit -> int
  val injected_at : site -> int

  val note_lost : int -> unit
  (** Record frames deliberately dropped (not replayed) by fault
      handling — supervisor drops, stuck-ring discards, corrupt-RX
      losses. Counted (and [fault.lost_frames] bumped) even when no
      engine is visible — orphan losses land in a per-OCaml-domain
      counter — so recovery from organic aborts stays visible. *)

  val lost_frames : unit -> int
  val reset_counters : unit -> unit
end
