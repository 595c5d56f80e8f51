type device = {
  dev_read : int -> Td_misa.Width.t -> int;
  dev_write : int -> Td_misa.Width.t -> int -> unit;
}

exception Page_fault of { space : string; addr : int }
exception Heap_exhausted of { space : string; requested : int }

let () =
  Printexc.register_printer (function
    | Heap_exhausted { space; requested } ->
        Some
          (Printf.sprintf "Td_mem.Addr_space.Heap_exhausted(%s: %d bytes)"
             space requested)
    | _ -> None)

(* An x86-style two-level page table over the 32-bit space: the top ten
   bits of a vpage pick a directory slot, the low ten an entry in that
   slot's leaf. An entry is an unboxed int: a frame number ([>= 0]),
   [unmapped], or a device: [-2 - i] for slot [i] of the space's device
   table. So a walk is two array loads, and a map stores an int: it
   allocates nothing and needs no write barrier. *)
type entry = int

let unmapped = -1
let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let vpages = Layout.addr_limit lsr Layout.page_shift

(* Stands in for every leaf not yet allocated; never written. *)
let empty_leaf : entry array = Array.make leaf_size unmapped

type t = {
  name : string;
  phys : Phys_mem.t;
  dir : entry array array;
  mutable mapped : int;
  (* The device table: slot [i] holds the device of entry [-2 - i] while
     that entry is mapped. Slots [0 .. dev_used - 1] have been handed
     out; [dev_free.(0 .. dev_nfree - 1)] is the stack of those an unmap
     or a remap gave back, reused first. *)
  mutable devs : device array;
  mutable dev_used : int;
  mutable dev_free : int array;
  mutable dev_nfree : int;
  mutable heap_next : int;
  mutable heap_limit : int;
}

let create ~name phys =
  {
    name;
    phys;
    dir = Array.make (vpages lsr leaf_bits) empty_leaf;
    mapped = 0;
    devs = [||];
    dev_used = 0;
    dev_free = [||];
    dev_nfree = 0;
    heap_next = 0;
    heap_limit = 0;
  }

let name t = t.name
let phys t = t.phys

let in_range vpage = vpage >= 0 && vpage < vpages

let[@inline] lookup t ~vpage =
  if not (in_range vpage) then unmapped
  else
    Array.unsafe_get
      (Array.unsafe_get t.dir (vpage lsr leaf_bits))
      (vpage land leaf_mask)

let[@inline] device t e = Array.unsafe_get t.devs (-2 - e)

(* A slot for [dev]: the most recently freed one, else a fresh one. The
   table doubles when full; the new cells start as [dev] (any device
   would do: a slot is read only while its entry is mapped). *)
let add_device t dev =
  let i =
    if t.dev_nfree > 0 then begin
      t.dev_nfree <- t.dev_nfree - 1;
      t.dev_free.(t.dev_nfree)
    end
    else begin
      let i = t.dev_used in
      if i = Array.length t.devs then begin
        let cap = Int.max 4 (2 * i) in
        let devs = Array.make cap dev in
        Array.blit t.devs 0 devs 0 i;
        t.devs <- devs;
        t.dev_free <- Array.make cap 0
      end;
      t.dev_used <- i + 1;
      i
    end
  in
  t.devs.(i) <- dev;
  -2 - i

(* The free stack is as long as the table, so it never overflows. *)
let free_device t e =
  t.dev_free.(t.dev_nfree) <- -2 - e;
  t.dev_nfree <- t.dev_nfree + 1

let device_slots t = t.dev_used

let check_vpage vpage =
  if not (in_range vpage) then
    invalid_arg (Printf.sprintf "Addr_space.map: vpage %#x out of range" vpage)

(* Store [e] at [vpage] (in range), giving back the device slot of the
   entry it replaces. *)
let set t ~vpage e =
  let d = vpage lsr leaf_bits in
  if t.dir.(d) == empty_leaf then t.dir.(d) <- Array.make leaf_size unmapped;
  let leaf = t.dir.(d) in
  let i = vpage land leaf_mask in
  let old = leaf.(i) in
  if old = unmapped then t.mapped <- t.mapped + 1
  else if old < unmapped then free_device t old;
  leaf.(i) <- e

let map t ~vpage frame =
  check_vpage vpage;
  if frame < 0 then
    invalid_arg (Printf.sprintf "Addr_space.map: frame %d is negative" frame);
  set t ~vpage frame

let map_device t ~vpage dev =
  check_vpage vpage;
  set t ~vpage (add_device t dev)

let unmap t ~vpage =
  let e = lookup t ~vpage in
  if e <> unmapped then begin
    if e < unmapped then free_device t e;
    t.dir.(vpage lsr leaf_bits).(vpage land leaf_mask) <- unmapped;
    t.mapped <- t.mapped - 1
  end

let map_entry t ~vpage ~from e =
  if e >= 0 then map t ~vpage e
  else if e = unmapped then unmap t ~vpage
  else map_device t ~vpage (device from e)

let is_mapped t ~vpage = lookup t ~vpage <> unmapped

let frame_of_vpage t ~vpage =
  let e = lookup t ~vpage in
  if e >= 0 then Some e else None

let mapped_pages t = t.mapped

let alloc_page t ~vpage =
  check_vpage vpage;
  let f = Phys_mem.alloc_frame t.phys in
  map t ~vpage f;
  f

let alloc_region t ~vaddr ~pages =
  if Layout.offset_of vaddr <> 0 then invalid_arg "alloc_region: unaligned";
  for i = 0 to pages - 1 do
    ignore (alloc_page t ~vpage:(Layout.page_of vaddr + i))
  done

let page_fault t addr = raise (Page_fault { space = t.name; addr })

(* The entry of [addr]'s page; faults when it is unmapped. *)
let entry_of t addr =
  let e = lookup t ~vpage:(Layout.page_of addr) in
  if e = unmapped then page_fault t addr else e

(* The one rule for a single-page access through a resolved entry: a
   frame goes to [Phys_mem], a device to its hook, no mapping faults. *)
let[@inline] read_mapped t e addr w =
  if e >= 0 then Phys_mem.read t.phys e (Layout.offset_of addr) w
  else if e = unmapped then page_fault t addr
  else (device t e).dev_read (Layout.offset_of addr) w

let[@inline] write_mapped t e addr w v =
  if e >= 0 then Phys_mem.write t.phys e (Layout.offset_of addr) w v
  else if e = unmapped then page_fault t addr
  else (device t e).dev_write (Layout.offset_of addr) w v

(* Single-page access (never straddles). *)
let[@inline] read_within t addr w =
  read_mapped t (lookup t ~vpage:(Layout.page_of addr)) addr w

let[@inline] write_within t addr w v =
  write_mapped t (lookup t ~vpage:(Layout.page_of addr)) addr w v

let[@inline] straddles addr w =
  Layout.offset_of addr + Td_misa.Width.bytes w > Layout.page_size

(* The page-straddling halves of [read]/[write], kept out of line so the
   in-page path inlines into its callers. *)
let[@inline never] read_split t addr w =
  (* Assemble byte by byte across the boundary, little-endian. *)
  let n = Td_misa.Width.bytes w in
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor read_within t (addr + i) Td_misa.Width.W8
  done;
  !v

let[@inline] read t addr w =
  if not (straddles addr w) then read_within t addr w else read_split t addr w

(* Raise whatever fault an access to [addr] would, without accessing. *)
let resolve t addr =
  let e = entry_of t addr in
  if e >= 0 then ignore (Phys_mem.page_ro t.phys e)

let[@inline never] write_split t addr w v =
  (* Resolve both pages before touching either, so a fault on the
     second leaves the first untouched (a precise x86 fault). *)
  let n = Td_misa.Width.bytes w in
  resolve t addr;
  resolve t (Layout.page_base (addr + n - 1));
  for i = 0 to n - 1 do
    write_within t (addr + i) Td_misa.Width.W8 ((v lsr (8 * i)) land 0xff)
  done

let[@inline] write t addr w v =
  if not (straddles addr w) then write_within t addr w v
  else write_split t addr w v

(* The block copies below go a page at a time, straight between the
   caller's buffer and the frame's, and fault at the first unmapped page
   (after the chunks before it). Written out rather than through a
   shared chunk iterator, whose closure would allocate on every call.
   Reads take [Phys_mem.page_ro], so they leave a never-written frame on
   the zero page; writes take [Phys_mem.page]. *)
let read_into t addr dst ~pos:dst_pos ~len =
  if dst_pos < 0 || len < 0 || dst_pos > Bytes.length dst - len then
    invalid_arg "Addr_space.read_into: range outside the destination";
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Layout.offset_of a in
    let chunk = Int.min (len - !pos) (Layout.page_size - off) in
    let e = entry_of t a in
    if e >= 0 then
      Bytes.blit (Phys_mem.page_ro t.phys e) off dst (dst_pos + !pos) chunk
    else begin
      let d = device t e in
      for i = 0 to chunk - 1 do
        Bytes.set dst (dst_pos + !pos + i)
          (Char.chr (d.dev_read (off + i) Td_misa.Width.W8))
      done
    end;
    pos := !pos + chunk
  done

let read_block t addr len =
  let out = Bytes.create len in
  read_into t addr out ~pos:0 ~len;
  out

let write_string t addr src ~off:src_off ~len =
  if src_off < 0 || len < 0 || src_off > String.length src - len then
    invalid_arg "Addr_space.write_string: range outside the source";
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Layout.offset_of a in
    let chunk = Int.min (len - !pos) (Layout.page_size - off) in
    let e = entry_of t a in
    if e >= 0 then
      Bytes.blit_string src (src_off + !pos) (Phys_mem.page t.phys e) off chunk
    else begin
      let d = device t e in
      for i = 0 to chunk - 1 do
        d.dev_write (off + i) Td_misa.Width.W8
          (Char.code src.[src_off + !pos + i])
      done
    end;
    pos := !pos + chunk
  done

(* [write_string] only reads [src], so viewing it as a string is safe. *)
let write_block t addr src =
  write_string t addr (Bytes.unsafe_to_string src) ~off:0
    ~len:(Bytes.length src)

let fill t addr len c =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Layout.offset_of a in
    let chunk = Int.min (len - !pos) (Layout.page_size - off) in
    let e = entry_of t a in
    if e >= 0 then Phys_mem.fill t.phys e off chunk c
    else begin
      let d = device t e in
      for i = 0 to chunk - 1 do
        d.dev_write (off + i) Td_misa.Width.W8 (Char.code c)
      done
    end;
    pos := !pos + chunk
  done

(* Fault as touching [len] bytes from [addr] would, without touching. *)
let resolve_range t addr len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    resolve t a;
    pos := !pos + Layout.page_size - Layout.offset_of a
  done

let copy t ~src ~dst ~len =
  resolve_range t src len;
  resolve_range t dst len;
  let pos = ref 0 in
  while !pos < len do
    let s = src + !pos and d = dst + !pos in
    let soff = Layout.offset_of s and doff = Layout.offset_of d in
    let chunk = Int.min (len - !pos) (Layout.page_size - Int.max soff doff) in
    let es = entry_of t s and ed = entry_of t d in
    if es >= 0 && ed >= 0 then
      Bytes.blit (Phys_mem.page_ro t.phys es) soff (Phys_mem.page t.phys ed)
        doff chunk
    else
      for i = 0 to chunk - 1 do
        write_within t (d + i) Td_misa.Width.W8
          (read_within t (s + i) Td_misa.Width.W8)
      done;
    pos := !pos + chunk
  done

(* Directory order is vpage order, so traversal (and anything built from
   it, like the free list a bulk release rebuilds) is deterministic. *)
let iter_frames t f =
  Array.iteri
    (fun d leaf ->
      if leaf != empty_leaf then
        Array.iteri
          (fun i e -> if e >= 0 then f ~vpage:((d lsl leaf_bits) lor i) e)
          leaf)
    t.dir

let release t =
  iter_frames t (fun ~vpage:_ fr -> Phys_mem.free_frame t.phys fr);
  Array.fill t.dir 0 (Array.length t.dir) empty_leaf;
  t.mapped <- 0;
  t.devs <- [||];
  t.dev_used <- 0;
  t.dev_free <- [||];
  t.dev_nfree <- 0;
  t.heap_next <- 0;
  t.heap_limit <- 0

let heap_init t ~base ~limit =
  t.heap_next <- base;
  t.heap_limit <- limit

let heap_alloc t bytes =
  if t.heap_limit = 0 then
    invalid_arg "Addr_space.heap_alloc: heap not initialised";
  let pages = Int.max 1 ((bytes + Layout.page_size - 1) / Layout.page_size) in
  let vaddr = t.heap_next in
  if vaddr + (pages * Layout.page_size) > t.heap_limit then
    raise (Heap_exhausted { space = t.name; requested = bytes });
  t.heap_next <- vaddr + (pages * Layout.page_size);
  alloc_region t ~vaddr ~pages;
  vaddr
