(* The data TLB as it was before flushes became epoch bumps: a flush
   writes the empty value (-1) into every slot and restarts every set's
   round-robin pointer at way 0. [Tlb] must reproduce its hit/miss
   sequence and counters exactly; the equivalence property checks it. *)

type t = {
  sets : int;
  ways : int;
  slots : int array;  (** sets * ways entries; -1 = empty *)
  rr : int array;  (** next way to evict, per set *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ?(entries = 256) () =
  let ways = 4 in
  let sets = max 1 (entries / ways) in
  {
    sets;
    ways;
    slots = Array.make (sets * ways) (-1);
    rr = Array.make sets 0;
    hit_count = 0;
    miss_count = 0;
  }

let access t vpage =
  let set = vpage land (t.sets - 1) in
  let base = set * t.ways in
  let w = ref 0 in
  while !w < t.ways && t.slots.(base + !w) <> vpage do
    incr w
  done;
  if !w < t.ways then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    t.slots.(base + t.rr.(set)) <- vpage;
    t.rr.(set) <- (t.rr.(set) + 1) mod t.ways;
    t.miss_count <- t.miss_count + 1;
    false
  end

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  Array.fill t.rr 0 t.sets 0

let hits t = t.hit_count
let misses t = t.miss_count
