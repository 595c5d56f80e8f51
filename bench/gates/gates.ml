type outcome = { row : string; ok : bool; values : string }

let row row ok fmt = Printf.ksprintf (fun values -> { row; ok; values }) fmt

(* ---- doorbell: adaptive polling ---- *)

let doorbell_max_hypercalls_per_packet = 0.05

let doorbell_top_load_kicks ~adaptive ~interrupt =
  row "doorbell_top_load_kicks"
    (adaptive < doorbell_max_hypercalls_per_packet)
    "adaptive %.4f hypercalls/packet at top load (interrupt %.4f); must be < \
     %g"
    adaptive interrupt doorbell_max_hypercalls_per_packet

let doorbell_idle_cycles ~adaptive ~interrupt =
  row "doorbell_idle_cycles" (adaptive <= interrupt)
    "adaptive %d idle cycles; must be <= interrupt %d" adaptive interrupt

let doorbell_top_load_cycles ~adaptive ~interrupt =
  row "doorbell_top_load_cycles" (adaptive <= interrupt)
    "adaptive %.1f cycles/packet at top load; must be <= interrupt %.1f"
    adaptive interrupt

(* ---- adversary: fuzz containment and hostile-neighbour quotas ---- *)

let adversary_min_fuzz_ops = 100_000

let adversary_fuzz_ops ops =
  row "adversary_fuzz_ops" (ops >= adversary_min_fuzz_ops)
    "%d fuzz ops; must be >= %d" ops adversary_min_fuzz_ops

let adversary_fuzz_violations violations =
  row "adversary_fuzz_violations" (violations = [])
    "%d invariant violations; must be 0%s" (List.length violations)
    (String.concat "" (List.map (fun v -> "\n  " ^ v) violations))

let adversary_fuzz_replay identical =
  row "adversary_fuzz_replay" identical
    "fixed-seed replay bit-identical: %b; must be true" identical

let adversary_min_victim_ratio_quota_on = 0.9

let adversary_victim_quota_on ratio =
  row "adversary_victim_quota_on"
    (ratio >= adversary_min_victim_ratio_quota_on)
    "victim throughput with quotas %.3f of solo; must be >= %g" ratio
    adversary_min_victim_ratio_quota_on

let adversary_max_victim_ratio_quota_off = 0.8

let adversary_victim_quota_off ratio =
  row "adversary_victim_quota_off"
    (ratio <= adversary_max_victim_ratio_quota_off)
    "victim throughput without quotas %.3f of solo; must be <= %g" ratio
    adversary_max_victim_ratio_quota_off

let adversary_victim_unthrottled throttled =
  row "adversary_victim_unthrottled" (throttled = 0)
    "fair quota throttled the victim %d times; must be 0" throttled

(* ---- multiqueue: sharding determinism and scaling ---- *)

let multiqueue_ledger_identical identical =
  row "multiqueue_ledger_identical" identical
    "merged ledger digests equal across shard counts: %b; must be true"
    identical

let multiqueue_single_queue_identical identical =
  row "multiqueue_single_queue_identical" identical
    "queues=1/shards=1 aggregate equals a plain World: %b; must be true"
    identical

let multiqueue_min_queue_scaling = 6.0

let multiqueue_queue_scaling ~one ~eight =
  let scaling = eight /. one in
  row "multiqueue_queue_scaling"
    (scaling >= multiqueue_min_queue_scaling)
    "8 queues %.0f Mb/s over 1 queue %.0f Mb/s = %.2fx; must be >= %gx" eight
    one scaling multiqueue_min_queue_scaling

let multiqueue_min_cores = 4
let multiqueue_min_speedup_at_4 = 3.0

(* host parallelism pays off only when the host has the cores; on a
   smaller host the shards time-share them, so the value is only
   reported *)
let multiqueue_speedup_at_4 ~cores ~speedup =
  row "multiqueue_speedup_at_4"
    (cores < multiqueue_min_cores || speedup >= multiqueue_min_speedup_at_4)
    "wall-clock speedup at 4 shards %.2fx on %d cores; must be >= %gx from %d \
     cores"
    speedup cores multiqueue_min_speedup_at_4 multiqueue_min_cores

(* ---- fleet: the N-domain soak ---- *)

let fleet_min_frames = 1_000_000

let fleet_frames frames =
  row "fleet_frames" (frames >= fleet_min_frames)
    "soak ran %d frames; must be >= %d" frames fleet_min_frames

let fleet_min_domains = 200

let fleet_domains domains =
  row "fleet_domains" (domains >= fleet_min_domains)
    "fleet had %d domains; must be >= %d" domains fleet_min_domains

let fleet_churned churned =
  row "fleet_churned" (churned <> 0)
    "%d runtime domain churns; must be != 0" churned

let fleet_min_availability = 0.99

let fleet_availability availability =
  row "fleet_availability"
    (availability >= fleet_min_availability)
    "availability %.4f with quotas and faults armed; must be >= %g"
    availability fleet_min_availability

let fleet_conserved conserved =
  row "fleet_conserved" conserved "frames conserved: %b; must be true"
    conserved

let fleet_staged_after_shutdown staged =
  row "fleet_staged_after_shutdown" (staged = 0)
    "%d frames still staged after shutdown; must be 0" staged

let fleet_dangling_doorbells dangling =
  row "fleet_dangling_doorbells" (dangling = 0)
    "%d dangling doorbell pages; must be 0" dangling

let fleet_deterministic deterministic =
  row "fleet_deterministic" deterministic
    "two identical soaks gave equal digests: %b; must be true" deterministic

(* ---- interp: the compiled tier against the block engine ---- *)

let interp_compiled_not_slower ~compiled ~block =
  row "interp_compiled_not_slower" (compiled >= block)
    "compiled %.1f Minsn/s; must be >= block engine %.1f Minsn/s" compiled
    block

let interp_max_compiled_words_per_insn = 0.01

let interp_compiled_words words =
  row "interp_compiled_words"
    (words <= interp_max_compiled_words_per_insn)
    "compiled engine allocates %.3f words/insn; must be <= %g" words
    interp_max_compiled_words_per_insn

let interp_modes_identical identical =
  row "interp_modes_identical" identical
    "simulated (cycles, steps) equal across engine modes: %b; must be true"
    identical

let interp_rx_identical identical =
  row "interp_rx_identical" identical
    "fig8-style rx cycles equal across engine modes: %b; must be true"
    identical

let interp_max_walks_per_frame = 2.0

let interp_twin_tx_walks walks =
  row "interp_twin_tx_walks"
    (walks <= interp_max_walks_per_frame)
    "%.3f page-table walks per twin transmit frame; must be <= %g" walks
    interp_max_walks_per_frame

(* ---- trajectory: allocation against the last committed row ---- *)

let trajectory_alloc_tolerance = 0.01

let trajectory_alloc ~workload ~pr ~base value =
  row "trajectory_alloc"
    (value <= base *. (1. +. trajectory_alloc_tolerance))
    "%s: %.2f words/frame; must be <= PR %d's %.2f + %.0f%%" workload value pr
    base
    (100. *. trajectory_alloc_tolerance)

(* ---- docs: relative links ---- *)

let docs_dead_links dead =
  row "docs_dead_links" (dead = [])
    "%d dead relative links; must be 0%s" (List.length dead)
    (String.concat "" (List.map (fun d -> "\n  " ^ d) dead))

let report outcomes =
  (* rows follow what the run printed before them *)
  flush stdout;
  List.iter
    (fun o ->
      Printf.eprintf "%s %s: %s\n%!"
        (if o.ok then "gate ok    " else "GATE FAILED")
        o.row o.values)
    outcomes;
  List.for_all (fun o -> o.ok) outcomes
