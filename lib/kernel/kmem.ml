(* One free stack per power-of-two class, 32 B (class 0) to a page:
   addresses in an int array, popped from the top, so reuse is LIFO. *)
type stack = { mutable addrs : int array; mutable top : int }

exception Bad_free of { addr : int; bytes : int; reason : string }

type t = {
  space : Td_mem.Addr_space.t;
  stacks : stack array;  (** class index -> free addresses *)
  mutable live : int;
  mutable lo : int;  (** the first heap page carved; [max_int] before *)
  mutable hi : int;  (** the end of the last heap page carved *)
  mutable in_use : Bytes.t array;
      (** one bit per 32-B granule from [lo], set while the object that
          starts there is allocated; in [chunk]-byte pieces, one per MiB
          of heap, added as pages are carved *)
}

let min_class = 32
let n_classes = 8 (* 32 B .. 4096 B *)

let create space =
  {
    space;
    stacks = Array.init n_classes (fun _ -> { addrs = [||]; top = 0 });
    live = 0;
    lo = max_int;
    hi = 0;
    in_use = [||];
  }

let () =
  Printexc.register_printer (function
    | Bad_free { addr; bytes; reason } ->
        Some (Printf.sprintf "Kmem.Bad_free(0x%x, %d B: %s)" addr bytes reason)
    | _ -> None)

(* top-level, so a lookup builds no closure *)
let rec class_index_from i bytes =
  if min_class lsl i >= bytes then i else class_index_from (i + 1) bytes

let class_index bytes = class_index_from 0 bytes

let push s addr =
  if s.top = Array.length s.addrs then begin
    let grown = Array.make (Int.max 16 (2 * s.top)) 0 in
    Array.blit s.addrs 0 grown 0 s.top;
    s.addrs <- grown
  end;
  s.addrs.(s.top) <- addr;
  s.top <- s.top + 1

let chunk = 4096 (* bitmap bytes per piece: 32,768 granules, 1 MiB *)

(* a fresh heap region for this allocator: widen [lo, hi) and add the
   bitmap pieces it needs, so the warm path never allocates *)
let carve t bytes =
  let addr = Td_mem.Addr_space.heap_alloc t.space bytes in
  let pages = (bytes + Td_mem.Layout.page_size - 1) / Td_mem.Layout.page_size in
  if t.lo = max_int then t.lo <- addr;
  t.hi <- Int.max t.hi (addr + (pages * Td_mem.Layout.page_size));
  let have = Array.length t.in_use in
  let need = ((t.hi - t.lo) / min_class / 8 / chunk) + 1 in
  if need > have then
    t.in_use <-
      Array.init need (fun i ->
          if i < have then t.in_use.(i) else Bytes.make chunk '\000');
  addr

(* the in-use bit of the granule [g] at [addr]: bit [g land 7] of byte
   [g lsr 3] of the bitmap *)
let granule t addr = (addr - t.lo) / min_class
let piece t g = t.in_use.(g lsr 3 / chunk)

let mark t addr =
  let g = granule t addr in
  let p = piece t g and i = (g lsr 3) land (chunk - 1) in
  Bytes.unsafe_set p i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get p i) lor (1 lsl (g land 7))))

let alloc t bytes =
  if bytes <= 0 then invalid_arg "Kmem.alloc: non-positive size";
  if bytes > Td_mem.Layout.page_size then begin
    let addr = carve t bytes in
    mark t addr;
    t.live <- t.live + bytes;
    addr
  end
  else begin
    let ci = class_index bytes in
    let cls = min_class lsl ci in
    let s = t.stacks.(ci) in
    let addr =
      if s.top > 0 then begin
        s.top <- s.top - 1;
        s.addrs.(s.top)
      end
      else begin
        (* carve a fresh page into objects of this class *)
        let page = carve t Td_mem.Layout.page_size in
        for i = 1 to (Td_mem.Layout.page_size / cls) - 1 do
          push s (page + (i * cls))
        done;
        page
      end
    in
    Td_mem.Addr_space.fill t.space addr cls '\000';
    mark t addr;
    t.live <- t.live + cls;
    addr
  end

let bad_free addr bytes reason = raise (Bad_free { addr; bytes; reason })

(* [addr] comes from driver-writable memory (an sk_buff's head pointer,
   a shadow ring slot), so a bad one is a driver fault: left unchecked, a
   zeroed sk_buff's [free 0 0] put address 0 on the 32-B stack and a
   later allocation handed it out *)
let free t addr bytes =
  if bytes <= 0 then bad_free addr bytes "non-positive size";
  if addr < t.lo || addr >= t.hi then
    bad_free addr bytes "outside the allocator's heap";
  let large = bytes > Td_mem.Layout.page_size in
  let ci = if large then 0 else class_index bytes in
  let align = if large then Td_mem.Layout.page_size else min_class lsl ci in
  if addr land (align - 1) <> 0 then
    bad_free addr bytes "misaligned for its size class";
  let g = granule t addr in
  let p = piece t g and i = (g lsr 3) land (chunk - 1) in
  let b = Char.code (Bytes.unsafe_get p i) in
  if b land (1 lsl (g land 7)) = 0 then bad_free addr bytes "not allocated";
  Bytes.unsafe_set p i (Char.unsafe_chr (b land lnot (1 lsl (g land 7))));
  if large then t.live <- t.live - bytes
  else begin
    push t.stacks.(ci) addr;
    t.live <- t.live - align
  end

let allocated_bytes t = t.live
