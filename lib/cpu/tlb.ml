(* 4-way set-associative, round-robin eviction within a set.

   A flush is an epoch bump: slot [i] holds a live translation only when
   [epochs.(i) = epoch], so a flush is O(1). A stale slot compares as -1,
   the empty value, which makes every hit and miss exactly those of a
   TLB whose flush writes -1 into every slot and resets [rr]:

   - [rr] is not reset. After a flush every slot of a set reads the same,
     so the set is symmetric under rotation; a round-robin pointer started
     anywhere then fills and evicts in FIFO order since the flush, and the
     live contents are a rotation of what a reset pointer would give.
   - The live vpages are compared whole, with no packing, so any int is a
     key (a vpage outside [0, 2{^20}) included).
   - An empty slot holds -1, so vpage -1 hits any set with a stale
     slot, as it hits one with an empty slot there. *)

type t = {
  sets : int;
  ways : int;
  slots : int array;  (** sets * ways vpages, live when the epoch matches *)
  epochs : int array;  (** the epoch each slot was filled in *)
  rr : int array;  (** next way to evict, per set *)
  mutable epoch : int;
  mutable changes : int;  (** fills and flushes so far *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ?(entries = 256) () =
  let ways = 4 in
  let sets = Int.max 1 (entries / ways) in
  {
    sets;
    ways;
    slots = Array.make (sets * ways) (-1);
    epochs = Array.make (sets * ways) 0;
    rr = Array.make sets 0;
    epoch = 1;
    changes = 0;
    hit_count = 0;
    miss_count = 0;
  }

(* Only vpage -1 can hit a stale slot (see above); off the hot path. *)
let stale_in_set t base =
  let w = ref 0 in
  while !w < t.ways && Array.unsafe_get t.epochs (base + !w) = t.epoch do
    incr w
  done;
  !w < t.ways

(* A plain loop over the set's ways: no closure, no option, so an access
   allocates nothing. *)
let[@inline] access t vpage =
  let set = vpage land (t.sets - 1) in
  let base = set * t.ways in
  let w = ref 0 in
  while
    !w < t.ways
    && not
         (Array.unsafe_get t.slots (base + !w) = vpage
         && Array.unsafe_get t.epochs (base + !w) = t.epoch)
  do
    incr w
  done;
  if !w < t.ways || (vpage = -1 && stale_in_set t base) then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    let i = base + t.rr.(set) in
    t.slots.(i) <- vpage;
    t.epochs.(i) <- t.epoch;
    t.rr.(set) <- (t.rr.(set) + 1) land (t.ways - 1);
    t.changes <- t.changes + 1;
    t.miss_count <- t.miss_count + 1;
    false
  end

(* No overflow handling: a slot could only come back to life when the
   epoch returned to the value it was filled in, 2^63 flushes later —
   about 290 years at one flush a nanosecond. *)
let flush t =
  t.epoch <- t.epoch + 1;
  t.changes <- t.changes + 1

let hits t = t.hit_count
let misses t = t.miss_count
let[@inline] changes t = t.changes

(* Only a fill or a flush evicts, so an unchanged counter means the page
   the caller last accessed is still resident. *)
let[@inline] access_since t vpage ~since =
  if since = t.changes then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else access t vpage
