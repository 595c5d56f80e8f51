(* One free stack per power-of-two class, 32 B (class 0) to a page:
   addresses in an int array, popped from the top, so reuse is LIFO. *)
type stack = { mutable addrs : int array; mutable top : int }

type t = {
  space : Td_mem.Addr_space.t;
  stacks : stack array;  (** class index -> free addresses *)
  mutable live : int;
}

let min_class = 32
let n_classes = 8 (* 32 B .. 4096 B *)

let create space =
  {
    space;
    stacks = Array.init n_classes (fun _ -> { addrs = [||]; top = 0 });
    live = 0;
  }

(* top-level, so a lookup builds no closure *)
let rec class_index_from i bytes =
  if min_class lsl i >= bytes then i else class_index_from (i + 1) bytes

let class_index bytes = class_index_from 0 bytes

let push s addr =
  if s.top = Array.length s.addrs then begin
    let grown = Array.make (max 16 (2 * s.top)) 0 in
    Array.blit s.addrs 0 grown 0 s.top;
    s.addrs <- grown
  end;
  s.addrs.(s.top) <- addr;
  s.top <- s.top + 1

let alloc t bytes =
  if bytes <= 0 then invalid_arg "Kmem.alloc: non-positive size";
  if bytes > Td_mem.Layout.page_size then begin
    let addr = Td_mem.Addr_space.heap_alloc t.space bytes in
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
        let page = Td_mem.Addr_space.heap_alloc t.space Td_mem.Layout.page_size in
        for i = 1 to (Td_mem.Layout.page_size / cls) - 1 do
          push s (page + (i * cls))
        done;
        page
      end
    in
    Td_mem.Addr_space.fill t.space addr cls '\000';
    t.live <- t.live + cls;
    addr
  end

let free t addr bytes =
  if bytes > Td_mem.Layout.page_size then t.live <- t.live - bytes
  else begin
    let ci = class_index bytes in
    push t.stacks.(ci) addr;
    t.live <- t.live - (min_class lsl ci)
  end

let allocated_bytes t = t.live
