(** A bounded log-linear histogram of non-negative integers: the one
    percentile implementation behind {!Metrics} histograms and the
    ledger's per-direction I/O latencies.

    Values below 128 get one bucket each; each power of two from 128 up
    is split into 64 equal buckets, so a bucket is at most 1/64 of its
    values wide. Each bucket keeps its count and the largest value it has
    seen; the histogram also keeps the exact count, sum, min and max.
    The bucket array is allocated on the first observation and grows
    only to the end of the highest power of two seen, so memory is
    bounded by the value range, not by the number of observations. *)

type t

val create : unit -> t
(** An empty histogram; allocates no bucket array. *)

val observe : t -> int -> unit
(** Record one value: constant time, and allocation-free unless the
    value opens a higher power of two than any seen before. Raises
    [Invalid_argument] on a negative value. *)

val count : t -> int
val sum : t -> int

val min : t -> int
(** Exact smallest value observed; 0 when empty. *)

val max : t -> int
(** Exact largest value observed; 0 when empty. *)

val mean : t -> float
(** [sum / count]; 0.0 when empty. *)

val percentile : t -> float -> int option
(** Nearest rank over the buckets: rank [ceil (p / 100 * count - 1e-9)],
    clamped to [1, count], answered with the largest value seen in the
    bucket holding that rank. The result is never below the exact
    nearest-rank value and never more than 1/64 above it, and it is
    exact when that bucket holds one distinct value. [None] when
    empty. *)

val buckets : t -> (int * int) list
(** The non-empty buckets in ascending order, as (inclusive upper edge,
    count) pairs. *)

val merge_into : into:t -> t -> unit
(** Add [src]'s counts into [into], keeping the larger bucket maximum:
    exact and order-free, so merging per-shard histograms in any order
    answers as if one histogram had seen every value. *)

val reset : t -> unit
(** Empty the histogram, keeping its bucket array for reuse. *)
