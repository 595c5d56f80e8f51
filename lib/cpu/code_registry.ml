(* Programs are kept sorted by base address so instruction fetch is a
   binary search. A registered program is never replaced or removed, so
   a (program, index) pair the interpreter resolved once stays valid for
   the registry's lifetime. *)
type t = { mutable programs : Td_misa.Program.t array (* sorted by base *) }

let create () = { programs = [||] }

let overlaps (a : Td_misa.Program.t) (b : Td_misa.Program.t) =
  let a_end = a.Td_misa.Program.base + Td_misa.Program.size_bytes a in
  let b_end = b.Td_misa.Program.base + Td_misa.Program.size_bytes b in
  a.Td_misa.Program.base < b_end && b.Td_misa.Program.base < a_end

let register t p =
  (match Array.find_opt (overlaps p) t.programs with
  | Some q ->
      invalid_arg
        (Printf.sprintf "Code_registry: %s overlaps %s" p.Td_misa.Program.name
           q.Td_misa.Program.name)
  | None -> ());
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
  t.programs <- arr

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
