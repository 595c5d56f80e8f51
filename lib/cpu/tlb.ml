(* 4-way set-associative, round-robin eviction within a set. *)

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

(* A plain loop over the set's ways: no closure, no option, so an access
   allocates nothing. *)
let access t vpage =
  let set = vpage land (t.sets - 1) in
  let base = set * t.ways in
  let w = ref 0 in
  while !w < t.ways && Array.unsafe_get t.slots (base + !w) <> vpage do
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
