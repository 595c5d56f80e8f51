type fn = State.t -> unit

(* Routine [i] lives at [native_base + 16 * i]: addresses are handed out
   in registration order and never reused, so dispatch is an index. *)
let stride = 16

type t = {
  mutable entries : (string * fn option) array;
      (** slot [i]: the name, and the [Some fn] that {!lookup} returns *)
  mutable count : int;
  by_name : (string, int) Hashtbl.t;  (** name -> slot *)
}

let create () =
  { entries = Array.make 64 ("", None); count = 0; by_name = Hashtbl.create 64 }

let addr_of_slot i = Td_mem.Layout.native_base + (stride * i)

let register t name fn =
  match Hashtbl.find_opt t.by_name name with
  | Some i ->
      t.entries.(i) <- (name, Some fn);
      addr_of_slot i
  | None ->
      let i = t.count in
      if i = Array.length t.entries then begin
        let bigger = Array.make (2 * i) ("", None) in
        Array.blit t.entries 0 bigger 0 i;
        t.entries <- bigger
      end;
      t.entries.(i) <- (name, Some fn);
      t.count <- i + 1;
      Hashtbl.replace t.by_name name i;
      addr_of_slot i

(* The slot a registered routine's address names, or -1. *)
let slot t addr =
  let d = addr - Td_mem.Layout.native_base in
  if d >= 0 && d land (stride - 1) = 0 && d / stride < t.count then d / stride
  else -1

let lookup t addr =
  let i = slot t addr in
  if i < 0 then None else snd (Array.unsafe_get t.entries i)

let name_of t addr =
  let i = slot t addr in
  if i < 0 then None else Some (fst t.entries.(i))

let address_of t name = Option.map addr_of_slot (Hashtbl.find_opt t.by_name name)
let is_native_addr addr = addr >= Td_mem.Layout.native_base
let count t = t.count
