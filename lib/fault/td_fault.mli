(** Deterministic, seeded fault injection for the twin-driver runtime.

    An engine ({!Engine.state}) is a plain value: a [World] builds one
    from its [Config.tuning.fault_plan] (a {!zero_plan} engine when the
    tuning has none, so the world still counts its own lost frames) and
    hands it, at construction, to every component that hosts an
    injection site — the SVM runtimes, the interpreter, the NIC models
    and the upcall stubs. Each site asks {!Engine.fire} on its hot path;
    a component built without an engine never checks, so a run without
    one executes exactly the pre-fault instruction stream —
    bit-identical ledgers, wire traffic and traces. Two worlds never
    share an engine, so N worlds (and N parallel shards) inject
    independently.

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
(** Seed 0, every rate [0.] — configuring it changes nothing. *)

val uniform_plan : ?seed:int -> float -> plan
(** Every site class at the same per-opportunity rate. *)

val rate : plan -> site -> float

module Xorshift : sig
  (** Deterministic xorshift streams: an [int array] holds one state per
      stream, so a seed replays bit-identically with no dependence on
      OCaml's [Random]. The fault engine draws one stream per site; the
      adversarial fuzzer one per surface. *)

  val mask : int
  (** Every state and draw fits in 62 bits. *)

  val seed_stream : int -> int -> int
  (** [seed_stream seed i]: the non-zero initial state of stream [i]. *)

  val next : int array -> int -> int
  (** Advance stream [i] in place and return its new state. *)
end

module Engine : sig
  type state
  (** An engine: a plan, its per-site xorshift streams, the suspend
      depth, and the injection/loss counters. *)

  val make : plan -> state
  (** Build a fresh engine: streams seeded from [plan.seed], all
      counters zero, not suspended. *)

  val active : state -> bool
  (** Injection is not {!suspend}ed. *)

  val armed : state -> site -> bool
  (** {!active}, and the plan's rate at [site] is above [0.] — exactly
      when {!fire} at [site] could consult its stream. *)

  val fire : state -> site -> bool
  (** One injection opportunity at [site]. [true] means the caller must
      inject its fault now; the engine has already counted it, bumped
      [fault.injected] and emitted a [Fault_injected] trace event. Never
      fires while suspended or when the site's rate is [0.]. *)

  val pick : state -> site -> int -> int
  (** Deterministic choice in [0, bound) from [site]'s stream — for
      picking which register/bit to flip after {!fire} said yes. *)

  val suspend : state -> (unit -> 'a) -> 'a
  (** Run [f] with injection masked (re-entrant). A world boots under
      it, and the supervisor wraps recovery and replay in it so restarts
      always make progress. *)

  val injected : state -> int
  val injected_at : state -> site -> int

  val note_lost : state -> int -> unit
  (** Record frames deliberately dropped (not replayed) by fault
      handling — supervisor drops, stuck-ring discards, corrupt-RX
      losses — and bump [fault.lost_frames]. Counted whatever the plan,
      so recovery from organic aborts stays visible. *)

  val note_tx_lost : state -> int -> unit
  (** {!note_lost} for transmit frames (supervisor drops, frames stranded
      in a reset TX ring), also counted apart so a soak can balance its
      offered transmits. *)

  val lost_frames : state -> int
  val tx_lost_frames : state -> int
  val reset_counters : state -> unit
end
