(** Int-keyed hash table for the per-frame lookups (grant refs, MAC
    keys). Its hash is [Hashtbl.hash], the generic table's own (seed 0),
    so keys land in the same buckets and iterate in the same order as in
    a generic [Hashtbl]; [Int.equal] replaces the polymorphic compare. *)

include Hashtbl.S with type key = int
