(** Deterministic fan-out of independent simulation jobs over OCaml 5
    domains.

    [run ~shards jobs] evaluates every job and returns their results in
    job order. With [shards <= 1] (or a single job) the jobs run
    sequentially on the calling domain; otherwise they are distributed
    round-robin over [w = min shards (Array.length jobs)] workers: the
    calling domain runs jobs [0, w, 2w, ...] and helper domain [k] runs
    [k, k+w, ...]. Both paths produce identical results for jobs that
    are deterministic and share no mutable state — the contract {!Mq}
    builds its bit-identical ledger merge on.

    On the parallel path every job runs, and a job's exception lands in
    its slot like a result; once all jobs are done the exception of the
    lowest-index failed job is re-raised (with its backtrace). The
    sequential path stops at that same job.

    Helper domains are host resources, not simulation state. They are
    spawned on first need, grown to the largest [w - 1] any run has
    asked for, and kept for the life of the process, blocked on a
    condition variable between runs; a run hands each its share without
    spawning or joining. One run uses them at a time: a [run] nested in
    a job, or one made from another domain while they are busy, runs its
    jobs sequentially on its own domain, with the same results.

    Observability ({!Td_obs.Control}) is disabled for the duration of
    the run on both paths (the metric registry is not thread-safe, and
    the sequential engine must match the parallel one), and restored
    afterwards. *)

val run : shards:int -> (unit -> 'a) array -> 'a array

val available_parallelism : unit -> int
(** [Stdlib.Domain.recommended_domain_count ()] — how many shards the
    host can actually run at once. *)

val helpers_spawned : unit -> int
(** Helper domains spawned by this process so far. Helpers are reused,
    so this stays at the largest [w - 1] requested. *)
