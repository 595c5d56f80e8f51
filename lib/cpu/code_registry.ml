(* Programs are kept sorted by base address so instruction fetch is a
   binary search, and every mutation bumps [generation] so the
   interpreter's block cache can tell when a cached (program, index)
   pair may refer to an unregistered image (the supervisor reloading a
   fresh driver over a dead twin's range). *)
type t = {
  mutable programs : Td_misa.Program.t array; (* sorted by base, ascending *)
  mutable generation : int;
}

(* Generation stamps are drawn from one process-global atomic counter,
   not a per-registry counter: two registries that happen to perform the
   same number of mutations must never present the same stamp, or an
   interpreter instance migrated between shards (each shard owns its own
   registry) could accept another shard's cached blocks as fresh. The
   interpreter's unfilled-cache sentinel is 0; stamps start at 1. *)
let stamp = Atomic.make 1
let next_stamp () = Atomic.fetch_and_add stamp 1
let create () = { programs = [||]; generation = next_stamp () }
let generation t = t.generation

let overlaps (a : Td_misa.Program.t) (b : Td_misa.Program.t) =
  let a_end = a.Td_misa.Program.base + Td_misa.Program.size_bytes a in
  let b_end = b.Td_misa.Program.base + Td_misa.Program.size_bytes b in
  a.Td_misa.Program.base < b_end && b.Td_misa.Program.base < a_end

let find_overlap t p =
  let found = ref None in
  Array.iter
    (fun q -> if !found = None && overlaps p q then found := Some q)
    t.programs;
  !found

let insert_sorted t p =
  let old = t.programs in
  let n = Array.length old in
  let arr = Array.make (n + 1) p in
  let i = ref 0 in
  while !i < n && old.(!i).Td_misa.Program.base < p.Td_misa.Program.base do
    arr.(!i) <- old.(!i);
    incr i
  done;
  for j = !i to n - 1 do
    arr.(j + 1) <- old.(j)
  done;
  t.programs <- arr;
  t.generation <- next_stamp ()

let register t p =
  (match find_overlap t p with
  | Some q ->
      invalid_arg
        (Printf.sprintf "Code_registry: %s overlaps %s" p.Td_misa.Program.name
           q.Td_misa.Program.name)
  | None -> ());
  insert_sorted t p

(* Reload semantics: the driver supervisor re-runs the MISA loader at the
   same base after an abort, so any program the newcomer overlaps is the
   dead instance's image and gets unregistered first. *)
let replace t p =
  t.programs <-
    Array.of_list
      (List.filter
         (fun q -> not (overlaps p q))
         (Array.to_list t.programs));
  insert_sorted t p

(* index of the rightmost program whose base is <= addr, if it contains
   addr (programs never overlap, so at most one candidate exists); -1
   otherwise *)
let index_of t addr =
  let arr = t.programs in
  let lo = ref 0 and hi = ref (Array.length arr - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).Td_misa.Program.base <= addr then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best >= 0 && Td_misa.Program.contains arr.(!best) addr then !best else -1

let find t addr =
  let i = index_of t addr in
  if i < 0 then None else Some t.programs.(i)

let find_exn t addr =
  let i = index_of t addr in
  if i < 0 then raise Not_found else t.programs.(i)
