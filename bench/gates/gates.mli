(** The bound table: every pass/fail threshold the benchmarks are held
    to, in one place. Each row is a named constant (where it has one)
    and one predicate that checks a measured value against it and names
    itself and the values in its {!outcome}.

    [bench/main.exe] checks each subcommand's own result against its
    rows right after the run and exits non-zero when one fails;
    [test/doclinks] checks the docs row under [dune runtest]; tests
    that assert the same bound call the same predicate. *)

type outcome = {
  row : string;  (** the predicate's name *)
  ok : bool;  (** whether the bound held *)
  values : string;  (** the measured values and the bound, for a log *)
}

val report : outcome list -> bool
(** Print each outcome on stderr, failures marked [GATE FAILED]; true
    when every row held. *)

(** {1 doorbell: adaptive polling} *)

val doorbell_max_hypercalls_per_packet : float
(** 0.05 *)

val doorbell_top_load_kicks : adaptive:float -> interrupt:float -> outcome
(** Adaptive mode's hypercalls per packet at the top offered load
    [< doorbell_max_hypercalls_per_packet]: polling suppresses nearly
    every kick. [interrupt] is reported alongside. *)

val doorbell_idle_cycles : adaptive:int -> interrupt:int -> outcome
(** Adaptive total cycles [<=] interrupt mode's at zero offered load. *)

val doorbell_top_load_cycles : adaptive:float -> interrupt:float -> outcome
(** Adaptive cycles per packet [<=] interrupt mode's at the top load. *)

(** {1 adversary: fuzz containment and hostile-neighbour quotas} *)

val adversary_min_fuzz_ops : int
(** 100,000 *)

val adversary_fuzz_ops : int -> outcome
(** Fuzz ops run [>= adversary_min_fuzz_ops]. *)

val adversary_fuzz_violations : string list -> outcome
(** No fuzz invariant violation. *)

val adversary_fuzz_replay : bool -> outcome
(** The fixed-seed replay is bit-identical. *)

val adversary_min_victim_ratio_quota_on : float
(** 0.9 *)

val adversary_victim_quota_on : float -> outcome
(** Victim throughput with the attacker rate-limited, over solo,
    [>= adversary_min_victim_ratio_quota_on]. *)

val adversary_max_victim_ratio_quota_off : float
(** 0.8 *)

val adversary_victim_quota_off : float -> outcome
(** Victim throughput with no quotas, over solo,
    [<= adversary_max_victim_ratio_quota_off]: unprotected is visibly
    degraded. *)

val adversary_victim_unthrottled : int -> outcome
(** The fair quota throttled the well-behaved victim 0 times. *)

(** {1 multiqueue: sharding determinism and scaling} *)

val multiqueue_ledger_identical : bool -> outcome
(** Merged ledger digests are equal across shard counts. *)

val multiqueue_single_queue_identical : bool -> outcome
(** The queues=1/shards=1 aggregate equals a plain World. *)

val multiqueue_min_queue_scaling : float
(** 6.0 *)

val multiqueue_queue_scaling : one:float -> eight:float -> outcome
(** Simulated Mb/s at 8 queues over 1 queue
    [>= multiqueue_min_queue_scaling]. *)

val multiqueue_min_cores : int
(** 4 *)

val multiqueue_min_speedup_at_4 : float
(** 3.0 *)

val multiqueue_speedup_at_4 : cores:int -> speedup:float -> outcome
(** Wall-clock speedup at 4 shards [>= multiqueue_min_speedup_at_4] on a
    host with [cores >= multiqueue_min_cores]; holds on smaller hosts. *)

(** {1 fleet: the N-domain soak} *)

val fleet_min_frames : int
(** 1,000,000 *)

val fleet_frames : int -> outcome
(** Soak frames [>= fleet_min_frames]. *)

val fleet_min_domains : int
(** 200 *)

val fleet_domains : int -> outcome
(** Fleet domains [>= fleet_min_domains]. *)

val fleet_churned : int -> outcome
(** Runtime domain churns [!= 0]. *)

val fleet_min_availability : float
(** 0.99 *)

val fleet_availability : float -> outcome
(** Delivered over offered transmits, with quotas and the fault plan
    armed, [>= fleet_min_availability]. *)

val fleet_conserved : bool -> outcome
(** Frame conservation holds. *)

val fleet_staged_after_shutdown : int -> outcome
(** Frames still staged after shutdown [= 0]. *)

val fleet_dangling_doorbells : int -> outcome
(** Dangling doorbell pages after shutdown [= 0]. *)

val fleet_deterministic : bool -> outcome
(** Two identical soaks give equal full-state digests. *)

(** {1 interp: the compiled tier against the block engine} *)

val interp_compiled_not_slower : compiled:float -> block:float -> outcome
(** Compiled Minsn/s [>=] the block engine's. *)

val interp_max_compiled_words_per_insn : float
(** 0.01 *)

val interp_compiled_words : float -> outcome
(** Minor words per instruction on the compiled tier
    [<= interp_max_compiled_words_per_insn]. *)

val interp_modes_identical : bool -> outcome
(** Simulated (cycles, steps) are equal across engine modes. *)

val interp_rx_identical : bool -> outcome
(** Fig8-style receive cycles are equal across engine modes. *)

val interp_max_walks_per_frame : float
(** 2.0 *)

val interp_twin_tx_walks : float -> outcome
(** Page-table walks in compiled superblocks (memo misses,
    [Interp.page_walks]) per frame of a 2,000-frame twin transmit at
    Fig 7's cadence, its 64-frame warm-up included,
    [<= interp_max_walks_per_frame]: memos outlive superblock runs. *)

(** {1 trajectory: allocation against the last committed row} *)

val trajectory_alloc_tolerance : float
(** 0.01 *)

val trajectory_alloc :
  workload:string -> pr:int -> base:float -> float -> outcome
(** A suite report's allocated words per frame on [workload]
    [<= base * (1 + trajectory_alloc_tolerance)], where [base] is PR
    [pr]'s committed value. *)

(** {1 docs: relative links} *)

val docs_dead_links : string list -> outcome
(** No dead relative link in the checked Markdown files. *)
