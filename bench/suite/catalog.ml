(* Every metric the suite emits under a fixed name: the end-to-end ones
   (untraced run) with the share by which each may worsen before a change
   counts as a regression, and the per-layer ones (traced run).
   BENCHMARK.json lists the same names, units, directions and bounds; the
   suite's test keeps the two equal. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ bound = { name; unit_; better = Lower; bound = Some bound }
let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "host_ns_per_frame" "ns" 0.20;
    e2e "setup_s" "s" 0.25;
    e2e "alloc_words_per_frame" "words" 0.02;
    e2e "peak_heap_mb" "MB" 0.20;
    e2e "sim_cycles_per_frame" "cycles" 0.01;
  ]

(* Only layers every workload exercises: a per-layer number must exist on
   each workload. Layer numbers particular to one workload (the shard
   speed-up, SVM translate time, churn cost, simulated latency
   percentiles, the Figure 7 error) are diagnostics in the trace file. *)
let per_layer =
  [
    layer "world.pump.ns_p50" "ns";
    layer "world.pump.ns_p99" "ns";
    layer "world.share.transmit" "frac";
    layer "world.share.inject_rx" "frac";
    layer "world.share.pump" "frac";
    layer "world.share.tick" "frac";
    layer "world.share.churn" "frac";
    layer "world.alloc_words.pump" "words";
    layer "world.create_ms" "ms";
    layer ~better:Higher "world.span_coverage" "frac";
    layer "rewriter.derive_ms" "ms";
    layer "cpu.steps_per_frame" "1/frame";
    layer "cpu.host_ns_per_step" "ns";
    layer ~better:Higher "cpu.compiled_hits_per_frame" "1/frame";
    layer ~better:Higher "cpu.block_hits_per_frame" "1/frame";
    layer "cpu.compiled_bailouts_per_frame" "1/frame";
    layer "cpu.bailout_ratio" "frac";
    layer ~better:Higher "svm.stlb_hit_per_frame" "1/frame";
    layer "svm.stlb_miss_per_frame" "1/frame";
    layer ~better:Higher "svm.stlb_hit_ratio" "frac";
    layer "svm.window_reclaims" "count";
    layer "xen.ledger.dom0_cycles_per_frame" "cycles";
    layer "xen.ledger.domU_cycles_per_frame" "cycles";
    layer "xen.ledger.xen_cycles_per_frame" "cycles";
    layer "xen.ledger.driver_cycles_per_frame" "cycles";
    layer "xen.hypercalls_per_frame" "1/frame";
    layer "xen.virqs_per_frame" "1/frame";
    layer "xen.world_switches_per_frame" "1/frame";
    layer "xen.grant_maps_per_frame" "1/frame";
    layer "xen.grant_copy_bytes_per_frame" "B/frame";
    layer "xen.sched_slices_per_frame" "1/frame";
    layer "xen.upcalls_per_frame" "1/frame";
    layer "xen.quota_throttled_per_kframe" "1/kframe";
    layer "xen.ledger.latency_samples" "count";
    layer "kernel.netio_flushes_per_frame" "1/frame";
    layer "kernel.doorbell_polls_per_frame" "1/frame";
    layer "kernel.suppressed_hypercalls_per_frame" "1/frame";
    layer "kernel.skb_allocs_per_frame" "1/frame";
    layer "kernel.skb_pool_allocs_per_frame" "1/frame";
    layer ~better:Higher "kernel.skb_pool_hit_ratio" "frac";
    layer "kernel.ring_full" "count";
    layer "kernel.rx_dropped" "count";
    layer "nic.irqs_per_frame" "1/frame";
    layer "nic.dma_bytes_per_frame" "B/frame";
    layer "nic.rx_dropped" "count";
    layer "fault.injected" "count";
    layer "fault.recoveries" "count";
    layer "fault.lost_frames" "count";
    layer "gc.minor_collections_per_kframe" "1/kframe";
    layer "gc.major_collections" "count";
    layer "gc.promoted_words_per_frame" "words";
    layer "obs.trace_overhead_frac" "frac";
    layer "host.chunk_p50_ns_per_frame" "ns";
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

