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

(* Marks a free (or never-allocated) slot. Every live frame holds a
   [page_size] buffer, so a zero-length one can never be confused with
   it. *)
let absent = Bytes.empty

(* The one buffer every allocated but never-written frame holds, in every
   [t] and every domain. Nothing writes to it: [page] swaps in a private
   buffer first, so sharing it needs no lock. *)
let zero = Bytes.make Layout.page_size '\000'

type t = {
  capacity : int;
  mutable pages : bytes array;  (** indexed by frame; grows by doubling *)
  mutable next : frame;
  mutable free : frame list;
  mutable allocated : int;
  mutable resident : int;  (** allocated frames with their own buffer *)
}

let create ?(frames = 65536) () =
  {
    capacity = frames;
    pages = Array.make (max 1 (min frames 1024)) absent;
    next = 1;
    free = [];
    allocated = 0;
    resident = 0;
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
  t.pages.(f) <- zero;
  t.allocated <- t.allocated + 1;
  f

let[@inline] live t f = f > 0 && f < Array.length t.pages && t.pages.(f) != absent

let free_frame t f =
  if live t f then begin
    if t.pages.(f) != zero then t.resident <- t.resident - 1;
    t.pages.(f) <- absent;
    t.allocated <- t.allocated - 1;
    t.free <- f :: t.free
  end

let frames_allocated t = t.allocated
let frames_resident t = t.resident

(* Inlined so that [page], like [page_ro], costs one call to [live]. *)
let[@inline] slot t f =
  if live t f then Array.unsafe_get t.pages f
  else raise (Bad_frame { frame = f })

let page_ro t f = slot t f

let[@inline] page t f =
  let b = slot t f in
  if b != zero then b
  else begin
    let b = Bytes.make Layout.page_size '\000' in
    Array.unsafe_set t.pages f b;
    t.resident <- t.resident + 1;
    b
  end

let[@inline] check_bounds off w =
  if off < 0 || off + Td_misa.Width.bytes w > Layout.page_size then
    invalid_arg (Printf.sprintf "Phys_mem: offset %d crosses frame boundary" off)

let[@inline] read t f off w =
  check_bounds off w;
  let b = page_ro t f in
  match w with
  | Td_misa.Width.W8 -> Char.code (Bytes.get b off)
  | Td_misa.Width.W16 -> Bytes.get_uint16_le b off
  | Td_misa.Width.W32 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let[@inline] write t f off w v =
  check_bounds off w;
  let b = page t f in
  match w with
  | Td_misa.Width.W8 -> Bytes.set b off (Char.chr (v land 0xff))
  | Td_misa.Width.W16 -> Bytes.set_uint16_le b off (v land 0xffff)
  | Td_misa.Width.W32 -> Bytes.set_int32_le b off (Int32.of_int v)

let check_range what off len =
  if off < 0 || len < 0 || off + len > Layout.page_size then
    invalid_arg (Printf.sprintf "Phys_mem.%s: crosses frame boundary" what)

let read_bytes t f off len =
  check_range "read_bytes" off len;
  Bytes.sub (page_ro t f) off len

let write_bytes t f off src =
  check_range "write_bytes" off (Bytes.length src);
  Bytes.blit src 0 (page t f) off (Bytes.length src)

(* A zero fill of a never-written frame changes nothing, so it leaves the
   frame on the shared page. *)
let fill t f off len c =
  check_range "fill" off len;
  if c <> '\000' || slot t f != zero then Bytes.fill (page t f) off len c
