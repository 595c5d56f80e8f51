type device = {
  dev_read : int -> Td_misa.Width.t -> int;
  dev_write : int -> Td_misa.Width.t -> int -> unit;
}

type mapping = Frame of Phys_mem.frame | Device of device

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
   slot's leaf. Entries hold the very [mapping option] that [lookup]
   returns, so a walk is two array loads and allocates nothing. *)
let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let vpages = Layout.addr_limit lsr Layout.page_shift

(* Stands in for every leaf not yet allocated; never written. *)
let empty_leaf : mapping option array = Array.make leaf_size None

type t = {
  name : string;
  phys : Phys_mem.t;
  dir : mapping option array array;
  mutable mapped : int;
  mutable heap_next : int;
  mutable heap_limit : int;
}

let create ~name phys =
  {
    name;
    phys;
    dir = Array.make (vpages lsr leaf_bits) empty_leaf;
    mapped = 0;
    heap_next = 0;
    heap_limit = 0;
  }

let name t = t.name
let phys t = t.phys

let in_range vpage = vpage >= 0 && vpage < vpages

let[@inline] lookup t ~vpage =
  if not (in_range vpage) then None
  else
    Array.unsafe_get
      (Array.unsafe_get t.dir (vpage lsr leaf_bits))
      (vpage land leaf_mask)

let check_vpage vpage =
  if not (in_range vpage) then
    invalid_arg (Printf.sprintf "Addr_space.map: vpage %#x out of range" vpage)

let set t ~vpage m =
  check_vpage vpage;
  let d = vpage lsr leaf_bits in
  if t.dir.(d) == empty_leaf then t.dir.(d) <- Array.make leaf_size None;
  let leaf = t.dir.(d) in
  let i = vpage land leaf_mask in
  if Option.is_none leaf.(i) then t.mapped <- t.mapped + 1;
  leaf.(i) <- Some m

let map t ~vpage frame = set t ~vpage (Frame frame)
let map_device t ~vpage dev = set t ~vpage (Device dev)

let unmap t ~vpage =
  if Option.is_some (lookup t ~vpage) then begin
    t.dir.(vpage lsr leaf_bits).(vpage land leaf_mask) <- None;
    t.mapped <- t.mapped - 1
  end

let is_mapped t ~vpage = Option.is_some (lookup t ~vpage)

let frame_of_vpage t ~vpage =
  match lookup t ~vpage with
  | Some (Frame f) -> Some f
  | Some (Device _) | None -> None

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

let mapping_of t addr =
  match lookup t ~vpage:(Layout.page_of addr) with
  | Some m -> m
  | None -> page_fault t addr

(* The one rule for a single-page access through a resolved mapping: a
   frame goes to [Phys_mem], a device to its hook, no mapping faults. *)
let read_mapped t m addr w =
  match m with
  | Some (Frame f) -> Phys_mem.read t.phys f (Layout.offset_of addr) w
  | Some (Device d) -> d.dev_read (Layout.offset_of addr) w
  | None -> page_fault t addr

let write_mapped t m addr w v =
  match m with
  | Some (Frame f) -> Phys_mem.write t.phys f (Layout.offset_of addr) w v
  | Some (Device d) -> d.dev_write (Layout.offset_of addr) w v
  | None -> page_fault t addr

(* Single-page access (never straddles). *)
let read_within t addr w =
  read_mapped t (lookup t ~vpage:(Layout.page_of addr)) addr w

let write_within t addr w v =
  write_mapped t (lookup t ~vpage:(Layout.page_of addr)) addr w v

let straddles addr w =
  Layout.offset_of addr + Td_misa.Width.bytes w > Layout.page_size

let read t addr w =
  if not (straddles addr w) then read_within t addr w
  else begin
    (* Assemble byte by byte across the boundary, little-endian. *)
    let n = Td_misa.Width.bytes w in
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor read_within t (addr + i) Td_misa.Width.W8
    done;
    !v
  end

(* Raise whatever fault an access to [addr] would, without accessing. *)
let resolve t addr =
  match mapping_of t addr with
  | Frame f -> ignore (Phys_mem.page_ro t.phys f)
  | Device _ -> ()

let write t addr w v =
  if not (straddles addr w) then write_within t addr w v
  else begin
    (* Resolve both pages before touching either, so a fault on the
       second leaves the first untouched (a precise x86 fault). *)
    let n = Td_misa.Width.bytes w in
    resolve t addr;
    resolve t (Layout.page_base (addr + n - 1));
    for i = 0 to n - 1 do
      write_within t (addr + i) Td_misa.Width.W8 ((v lsr (8 * i)) land 0xff)
    done
  end

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
    let chunk = min (len - !pos) (Layout.page_size - off) in
    (match mapping_of t a with
    | Frame f ->
        Bytes.blit (Phys_mem.page_ro t.phys f) off dst (dst_pos + !pos) chunk
    | Device d ->
        for i = 0 to chunk - 1 do
          Bytes.set dst (dst_pos + !pos + i)
            (Char.chr (d.dev_read (off + i) Td_misa.Width.W8))
        done);
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
    let chunk = min (len - !pos) (Layout.page_size - off) in
    (match mapping_of t a with
    | Frame f ->
        Bytes.blit_string src (src_off + !pos) (Phys_mem.page t.phys f) off
          chunk
    | Device d ->
        for i = 0 to chunk - 1 do
          d.dev_write (off + i) Td_misa.Width.W8
            (Char.code src.[src_off + !pos + i])
        done);
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
    let chunk = min (len - !pos) (Layout.page_size - off) in
    (match mapping_of t a with
    | Frame f -> Phys_mem.fill t.phys f off chunk c
    | Device d ->
        for i = 0 to chunk - 1 do
          d.dev_write (off + i) Td_misa.Width.W8 (Char.code c)
        done);
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
    let chunk = min (len - !pos) (Layout.page_size - max soff doff) in
    (match (mapping_of t s, mapping_of t d) with
    | Frame fs, Frame fd ->
        Bytes.blit (Phys_mem.page_ro t.phys fs) soff (Phys_mem.page t.phys fd)
          doff chunk
    | _ ->
        for i = 0 to chunk - 1 do
          write_within t (d + i) Td_misa.Width.W8
            (read_within t (s + i) Td_misa.Width.W8)
        done);
    pos := !pos + chunk
  done

(* Directory order is vpage order, so traversal (and anything built from
   it, like the free list a bulk release rebuilds) is deterministic. *)
let iter_frames t f =
  Array.iteri
    (fun d leaf ->
      if leaf != empty_leaf then
        Array.iteri
          (fun i m ->
            match m with
            | Some (Frame fr) -> f ~vpage:((d lsl leaf_bits) lor i) fr
            | Some (Device _) | None -> ())
          leaf)
    t.dir

let release t =
  iter_frames t (fun ~vpage:_ fr -> Phys_mem.free_frame t.phys fr);
  Array.fill t.dir 0 (Array.length t.dir) empty_leaf;
  t.mapped <- 0;
  t.heap_next <- 0;
  t.heap_limit <- 0

let heap_init t ~base ~limit =
  t.heap_next <- base;
  t.heap_limit <- limit

let heap_alloc t bytes =
  if t.heap_limit = 0 then
    invalid_arg "Addr_space.heap_alloc: heap not initialised";
  let pages = max 1 ((bytes + Layout.page_size - 1) / Layout.page_size) in
  let vaddr = t.heap_next in
  if vaddr + (pages * Layout.page_size) > t.heap_limit then
    raise (Heap_exhausted { space = t.name; requested = bytes });
  t.heap_next <- vaddr + (pages * Layout.page_size);
  alloc_region t ~vaddr ~pages;
  vaddr
