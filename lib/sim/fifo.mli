(** A FIFO queue in one array ring: a push writes a slot and a pop
    clears one, so neither allocates once the ring has grown to the
    queue's high-water mark. The ring starts with no array at all, so an
    unused queue costs no heap, and a full ring doubles (from 16 slots),
    unrolled into FIFO order. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty queue. [filler] is written into every
    slot a pop or {!clear} vacates, so the queue keeps no reference to
    an element it has handed back. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** The oldest element. Raises [Invalid_argument] on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue, keeping its array. *)
