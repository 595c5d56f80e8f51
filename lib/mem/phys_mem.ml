type frame = int

exception Bad_frame of { frame : int }
exception Out_of_frames of { capacity : int }

let () =
  Printexc.register_printer (function
    | Bad_frame { frame } ->
        Some (Printf.sprintf "Td_mem.Phys_mem.Bad_frame(frame %d)" frame)
    | Out_of_frames { capacity } ->
        Some (Printf.sprintf "Td_mem.Phys_mem.Out_of_frames(%d frames)" capacity)
    | _ -> None)

(* Marks a free (or never-allocated) slot. Every live frame owns a
   [page_size] buffer, so a zero-length one can never be confused with
   it. *)
let absent = Bytes.empty

type t = {
  capacity : int;
  mutable pages : bytes array;  (** indexed by frame; grows by doubling *)
  mutable next : frame;
  mutable free : frame list;
  mutable allocated : int;
}

let create ?(frames = 65536) () =
  {
    capacity = frames;
    pages = Array.make (max 1 (min frames 1024)) absent;
    next = 1;
    free = [];
    allocated = 0;
  }

(* [next] steps by one, so doubling once always makes room for it. *)
let grow t =
  let n = Array.length t.pages in
  let pages = Array.make (min (2 * n) t.capacity) absent in
  Array.blit t.pages 0 pages 0 n;
  t.pages <- pages

let alloc_frame t =
  let f =
    match t.free with
    | f :: rest ->
        t.free <- rest;
        f
    | [] ->
        if t.next >= t.capacity then
          raise (Out_of_frames { capacity = t.capacity });
        let f = t.next in
        t.next <- t.next + 1;
        if f >= Array.length t.pages then grow t;
        f
  in
  t.pages.(f) <- Bytes.make Layout.page_size '\000';
  t.allocated <- t.allocated + 1;
  f

let live t f = f > 0 && f < Array.length t.pages && t.pages.(f) != absent

let free_frame t f =
  if live t f then begin
    t.pages.(f) <- absent;
    t.allocated <- t.allocated - 1;
    t.free <- f :: t.free
  end

let frames_allocated t = t.allocated

let page t f =
  if live t f then Array.unsafe_get t.pages f
  else raise (Bad_frame { frame = f })

let check_bounds off w =
  if off < 0 || off + Td_misa.Width.bytes w > Layout.page_size then
    invalid_arg (Printf.sprintf "Phys_mem: offset %d crosses frame boundary" off)

let read t f off w =
  check_bounds off w;
  let b = page t f in
  match w with
  | Td_misa.Width.W8 -> Char.code (Bytes.get b off)
  | Td_misa.Width.W16 -> Bytes.get_uint16_le b off
  | Td_misa.Width.W32 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let write t f off w v =
  check_bounds off w;
  let b = page t f in
  match w with
  | Td_misa.Width.W8 -> Bytes.set b off (Char.chr (v land 0xff))
  | Td_misa.Width.W16 -> Bytes.set_uint16_le b off (v land 0xffff)
  | Td_misa.Width.W32 -> Bytes.set_int32_le b off (Int32.of_int v)

let read_bytes t f off len =
  if off < 0 || off + len > Layout.page_size then
    invalid_arg "Phys_mem.read_bytes: crosses frame boundary";
  Bytes.sub (page t f) off len

let write_bytes t f off src =
  if off < 0 || off + Bytes.length src > Layout.page_size then
    invalid_arg "Phys_mem.write_bytes: crosses frame boundary";
  Bytes.blit src 0 (page t f) off (Bytes.length src)
