(* Tests for physical memory, page tables and address spaces. *)

open Td_misa
open Td_mem

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_layout_invariants () =
  check int_c "page size" 4096 Layout.page_size;
  check bool_c "stlb maps 16MB" true
    (Layout.stlb_entries * Layout.page_size = 16 * 1024 * 1024);
  check bool_c "window is 16MB" true
    (Layout.map_window_pages * Layout.page_size = 16 * 1024 * 1024);
  check bool_c "dom0 heap below driver code" true
    (Layout.dom0_heap_limit <= Layout.vm_driver_code_base);
  check bool_c "code offset constant" true
    (Layout.code_offset = Layout.hyp_driver_code_base - Layout.vm_driver_code_base);
  check bool_c "natives above hyp code" true
    (Layout.native_base > Layout.hyp_driver_code_base);
  check bool_c "dom0 range excludes hyp" false (Layout.in_dom0_range Layout.stlb_base);
  check bool_c "hyp range" true (Layout.in_hyp_range Layout.stlb_base)

let test_phys_alloc_free () =
  let m = Phys_mem.create ~frames:8 () in
  let f1 = Phys_mem.alloc_frame m in
  let f2 = Phys_mem.alloc_frame m in
  check bool_c "distinct" true (f1 <> f2);
  check int_c "allocated" 2 (Phys_mem.frames_allocated m);
  Phys_mem.free_frame m f1;
  check int_c "after free" 1 (Phys_mem.frames_allocated m);
  let f3 = Phys_mem.alloc_frame m in
  check int_c "frame reused" f1 f3

let test_phys_exhaustion () =
  let m = Phys_mem.create ~frames:3 () in
  ignore (Phys_mem.alloc_frame m);
  ignore (Phys_mem.alloc_frame m);
  check bool_c "exhausted" true
    (match Phys_mem.alloc_frame m with
    | exception Phys_mem.Out_of_frames { capacity = 3 } -> true
    | _ -> false)

let test_phys_rw_widths () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  Phys_mem.write m f 0 Width.W32 0xDEADBEEF;
  check int_c "w32" 0xDEADBEEF (Phys_mem.read m f 0 Width.W32);
  check int_c "b0 little-endian" 0xEF (Phys_mem.read m f 0 Width.W8);
  check int_c "b3" 0xDE (Phys_mem.read m f 3 Width.W8);
  check int_c "w16" 0xBEEF (Phys_mem.read m f 0 Width.W16);
  Phys_mem.write m f 100 Width.W8 0x7F;
  check int_c "w8" 0x7F (Phys_mem.read m f 100 Width.W8)

let test_phys_bounds () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  check bool_c "cross-frame read rejected" true
    (match Phys_mem.read m f 4094 Width.W32 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let space () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  Addr_space.heap_init s ~base:Layout.dom0_heap_base ~limit:Layout.dom0_heap_limit;
  s

let test_space_map_translate () =
  let s = space () in
  let va = Addr_space.heap_alloc s 100 in
  check int_c "page aligned" 0 (Layout.offset_of va);
  Addr_space.write s (va + 12) Width.W32 42;
  check int_c "read back" 42 (Addr_space.read s (va + 12) Width.W32);
  check bool_c "mapped" true (Addr_space.is_mapped s ~vpage:(Layout.page_of va))

let test_space_page_fault () =
  let s = space () in
  check bool_c "fault on unmapped" true
    (match Addr_space.read s 0xC7000000 Width.W32 with
    | exception Addr_space.Page_fault { addr = 0xC7000000; _ } -> true
    | _ -> false)

let test_space_straddle () =
  let s = space () in
  (* allocate two consecutive pages and write across the boundary *)
  let va = Addr_space.heap_alloc s (2 * Layout.page_size) in
  let boundary = va + Layout.page_size - 2 in
  Addr_space.write s boundary Width.W32 0x11223344;
  check int_c "straddling read" 0x11223344 (Addr_space.read s boundary Width.W32);
  check int_c "low half in page 1" 0x3344 (Addr_space.read s boundary Width.W16);
  check int_c "high half in page 2" 0x1122
    (Addr_space.read s (boundary + 2) Width.W16)

let test_space_blocks () =
  let s = space () in
  let va = Addr_space.heap_alloc s (2 * Layout.page_size) in
  let data = Bytes.init 6000 (fun i -> Char.chr (i mod 256)) in
  Addr_space.write_block s (va + 100) data;
  let back = Addr_space.read_block s (va + 100) 6000 in
  check bool_c "block roundtrip across pages" true (Bytes.equal data back)

let test_space_aliasing () =
  (* two spaces mapping the same frame see each other's writes: the
     single-data-instance property TwinDrivers depends on *)
  let phys = Phys_mem.create () in
  let a = Addr_space.create ~name:"a" phys in
  let b = Addr_space.create ~name:"b" phys in
  let f = Phys_mem.alloc_frame phys in
  Addr_space.map a ~vpage:0x10000 f;
  Addr_space.map b ~vpage:0x20000 f;
  Addr_space.write a 0x10000078 Width.W32 7;
  check int_c "alias visible" 7 (Addr_space.read b 0x20000078 Width.W32)

let test_device_pages () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  let last_write = ref (-1, -1) in
  let dev =
    {
      Addr_space.dev_read = (fun off _ -> off * 2);
      dev_write = (fun off _ v -> last_write := (off, v));
    }
  in
  Addr_space.map_device s ~vpage:0x30000 dev;
  check int_c "device read" 16 (Addr_space.read s 0x30000008 Width.W32);
  Addr_space.write s 0x30000010 Width.W32 99;
  check bool_c "device write seen" true (!last_write = (16, 99))

(* Device pages live in a per-space table whose slots unmap, remap and
   release give back: cycling devices through one vpage never grows it,
   and [mapped_pages] counts pages, not slots. *)
let test_device_table () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  let dev k =
    { Addr_space.dev_read = (fun off _ -> off + k); dev_write = (fun _ _ _ -> ()) }
  in
  let d0 = dev 0 and d1 = dev 1 in
  let pick i = if i land 1 = 0 then d0 else d1 in
  let exact = ref true in
  let expect_mapped n = exact := !exact && Addr_space.mapped_pages s = n in
  for i = 1 to 10_000 do
    Addr_space.map_device s ~vpage:0x30000 (pick i);
    expect_mapped 1;
    Addr_space.unmap s ~vpage:0x30000;
    expect_mapped 0
  done;
  check int_c "10k map/unmap cycles use one slot" 1
    (Addr_space.device_slots s);
  Addr_space.map_device s ~vpage:0x30000 d0;
  for i = 1 to 10_000 do
    Addr_space.map_device s ~vpage:0x30000 (pick i);
    expect_mapped 1
  done;
  check int_c "10k remaps over a device use two slots" 2
    (Addr_space.device_slots s);
  check int_c "the last device serves" 8 (Addr_space.read s 0x30000008 Width.W8);
  let f = Phys_mem.alloc_frame phys in
  Addr_space.map s ~vpage:0x30000 f;
  expect_mapped 1;
  check bool_c "a frame replaces the device" true
    (Addr_space.frame_of_vpage s ~vpage:0x30000 = Some f);
  Addr_space.map_device s ~vpage:0x30001 d1;
  Addr_space.map_device s ~vpage:0x30002 d0;
  expect_mapped 3;
  check int_c "the frame freed the device's slot" 2 (Addr_space.device_slots s);
  (* another space copies the device into its own table *)
  let t = Addr_space.create ~name:"t" phys in
  Addr_space.map_entry t ~vpage:0x40000 ~from:s
    (Addr_space.lookup s ~vpage:0x30001);
  Addr_space.release s;
  check int_c "release empties the table" 0 (Addr_space.device_slots s);
  expect_mapped 0;
  check int_c "the copy outlives the source" 9
    (Addr_space.read t 0x40000008 Width.W8);
  Addr_space.map_device s ~vpage:0x30000 d1;
  expect_mapped 1;
  check int_c "a released space maps devices again" 1
    (Addr_space.device_slots s);
  check int_c "through its first slot" 5 (Addr_space.read s 0x30000004 Width.W8);
  check bool_c "mapped_pages exact throughout" true !exact

let test_heap_alloc_distinct () =
  let s = space () in
  let a = Addr_space.heap_alloc s 10 in
  let b = Addr_space.heap_alloc s 10 in
  check bool_c "regions disjoint" true (b >= a + Layout.page_size)

let test_straddle_write_fault_is_precise () =
  (* a W32 store at 0xC000_3FFE whose second page is unmapped must fault
     before storing the two bytes that land on the mapped first page *)
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  ignore (Addr_space.alloc_page s ~vpage:0xC0003);
  Addr_space.write s 0xC0003FFE Width.W16 0xABCD;
  check bool_c "faults at the second page" true
    (match Addr_space.write s 0xC0003FFE Width.W32 0x11223344 with
    | exception Addr_space.Page_fault { addr = 0xC0004000; _ } -> true
    | _ -> false);
  check int_c "first page untouched" 0xABCD
    (Addr_space.read s 0xC0003FFE Width.W16)

let test_copy_fault_is_precise () =
  (* the destination runs off its page into an unmapped one: the copy
     faults there before moving a byte onto the mapped first page *)
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  ignore (Addr_space.alloc_page s ~vpage:0xC0003);
  ignore (Addr_space.alloc_page s ~vpage:0xC0010);
  Addr_space.fill s 0xC0010000 16 'x';
  check bool_c "faults at the destination's second page" true
    (match Addr_space.copy s ~src:0xC0010000 ~dst:0xC0003FFC ~len:8 with
    | exception Addr_space.Page_fault { addr = 0xC0004000; _ } -> true
    | _ -> false);
  check int_c "first page untouched" 0
    (Addr_space.read s 0xC0003FFC Width.W32);
  Addr_space.copy s ~src:0xC0010000 ~dst:0xC0003FFC ~len:4;
  check int_c "in-page copy" 0x78787878 (Addr_space.read s 0xC0003FFC Width.W32)

let test_addresses_outside_32_bits () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  ignore (Addr_space.alloc_page s ~vpage:0);
  ignore (Addr_space.alloc_page s ~vpage:0xFFFFF);
  List.iter
    (fun addr ->
      check bool_c (Printf.sprintf "%#x faults" addr) true
        (match Addr_space.read s addr Width.W8 with
        | exception Addr_space.Page_fault _ -> true
        | _ -> false))
    [ -1; -4096; Layout.addr_limit; Layout.addr_limit + 4096 ];
  List.iter
    (fun vpage ->
      check bool_c (Printf.sprintf "map %#x rejected" vpage) true
        (match Addr_space.map s ~vpage 1 with
        | exception Invalid_argument _ -> true
        | () -> false))
    [ -1; Layout.addr_limit lsr Layout.page_shift ];
  check bool_c "negative frame rejected" true
    (match Addr_space.map s ~vpage:1 (-2) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check int_c "rejected maps leave no trace" 2 (Addr_space.mapped_pages s);
  Addr_space.write s 0xFFFFFFFC Width.W32 0x55;
  check int_c "top page usable" 0x55 (Addr_space.read s 0xFFFFFFFC Width.W32)

let test_phys_growth () =
  (* past the initial array, freed slots and frame 0 stay Bad_frame *)
  let m = Phys_mem.create ~frames:5000 () in
  let fs = List.init 3000 (fun _ -> Phys_mem.alloc_frame m) in
  check int_c "allocated" 3000 (Phys_mem.frames_allocated m);
  check int_c "distinct" 3000 (List.length (List.sort_uniq compare fs));
  let last = List.nth fs 2999 in
  Phys_mem.write m last 8 Width.W32 77;
  check int_c "last frame usable" 77 (Phys_mem.read m last 8 Width.W32);
  Phys_mem.free_frame m last;
  Phys_mem.free_frame m last;
  Phys_mem.free_frame m 0;
  Phys_mem.free_frame m 4999;
  check int_c "bogus frees ignored" 2999 (Phys_mem.frames_allocated m);
  List.iter
    (fun f ->
      check bool_c (Printf.sprintf "frame %d is bad" f) true
        (match Phys_mem.page m f with
        | exception Phys_mem.Bad_frame { frame } -> frame = f
        | _ -> false))
    [ 0; last; 4999; -3 ]

(* --- model-based: the page table and frames against reference maps --- *)

type op =
  | Map_fresh of int  (** alloc_page *)
  | Map_alias of int * int  (** map vpage to the frame behind another *)
  | Map_device of int * int
  | Unmap of int
  | Alloc_region of int * int
  | Free_behind of int  (** free the frame behind a vpage, leaving it mapped *)
  | Read of int * Width.t
  | Write of int * Width.t * int
  | Read_block of int * int
  | Write_block of int * int * int
  | Fill of int * int * char
  | Zero_fill of int * int
  | Copy of int * int * int  (** src, dst, len *)
  | Recycle of int * int
      (** write to the frame behind a vpage, free it, alloc_page again *)
  | Release

let show_op = function
  | Map_fresh v -> Printf.sprintf "map_fresh %#x" v
  | Map_alias (v, w) -> Printf.sprintf "map_alias %#x<-%#x" v w
  | Map_device (v, d) -> Printf.sprintf "map_device %#x dev%d" v d
  | Unmap v -> Printf.sprintf "unmap %#x" v
  | Alloc_region (v, n) -> Printf.sprintf "alloc_region %#x x%d" v n
  | Free_behind v -> Printf.sprintf "free_behind %#x" v
  | Read (a, w) -> Printf.sprintf "read %#x w%d" a (Width.bytes w)
  | Write (a, w, x) -> Printf.sprintf "write %#x w%d %#x" a (Width.bytes w) x
  | Read_block (a, n) -> Printf.sprintf "read_block %#x %d" a n
  | Write_block (a, n, seed) -> Printf.sprintf "write_block %#x %d #%d" a n seed
  | Fill (a, n, c) -> Printf.sprintf "fill %#x %d %C" a n c
  | Zero_fill (a, n) -> Printf.sprintf "zero_fill %#x %d" a n
  | Recycle (v, x) -> Printf.sprintf "recycle %#x %#x" v x
  | Copy (a, d, n) -> Printf.sprintf "copy %#x -> %#x %d" a d n
  | Release -> "release"

(* Few vpages so ops collide: both ends of the 32-bit space, a leaf
   boundary, a straddle pair, and vpages outside the space. *)
let vpage_pool =
  [| 0; 1; 0x3FF; 0x400; 0xC0003; 0xC0004; 0xFFFFE; 0xFFFFF; 0x100000; -1 |]

let gen_op =
  let open QCheck.Gen in
  let vpage = oneofa vpage_pool in
  let addr =
    map2
      (fun v off -> (v * Layout.page_size) + off)
      vpage
      (oneof [ oneofl [ 0; 1; 2; 4093; 4094; 4095 ]; int_range 0 4095 ])
  in
  let width = oneofl [ Width.W8; Width.W16; Width.W32 ] in
  let len = oneof [ int_range 0 16; int_range 0 9000 ] in
  frequency
    [
      (4, map (fun v -> Map_fresh v) vpage);
      (2, map2 (fun v w -> Map_alias (v, w)) vpage vpage);
      (1, map2 (fun v d -> Map_device (v, d)) vpage (int_range 0 1));
      (2, map (fun v -> Unmap v) vpage);
      (1, map2 (fun v n -> Alloc_region (v, n)) vpage (int_range 1 3));
      (1, map (fun v -> Free_behind v) vpage);
      (5, map2 (fun a w -> Read (a, w)) addr width);
      (5, map3 (fun a w x -> Write (a, w, x)) addr width (int_bound 0x3FFFFFFF));
      (2, map2 (fun a n -> Read_block (a, n)) addr len);
      (2, map3 (fun a n seed -> Write_block (a, n, seed)) addr len nat);
      (2, map3 (fun a n c -> Fill (a, n, c)) addr len printable);
      (2, map2 (fun a n -> Zero_fill (a, n)) addr len);
      (3, map3 (fun a d n -> Copy (a, d, n)) addr addr len);
      (1, map2 (fun v x -> Recycle (v, x)) vpage (int_range 1 0xFF));
      (1, return Release);
    ]

(* a device page that behaves like a little-endian byte store *)
let byte_device buf =
  let get off n =
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
    done;
    !v
  in
  let set off n v =
    for i = 0 to n - 1 do
      Bytes.set buf (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  {
    Addr_space.dev_read = (fun off w -> get off (Width.bytes w));
    dev_write = (fun off w v -> set off (Width.bytes w) v);
  }

type m_mapping = M_frame of int | M_device of int

type model = {
  pt : (int, m_mapping) Hashtbl.t;  (** vpage -> mapping *)
  frames : (int, bytes) Hashtbl.t;  (** live frame -> contents *)
  devs : bytes array;
}

let in_range v = v >= 0 && v < Layout.addr_limit lsr Layout.page_shift

type outcome =
  | Value of int
  | Block of string
  | Unit
  | Fault of int  (** Page_fault addr *)
  | Bad of int  (** Bad_frame frame *)
  | Invalid

let show_outcome = function
  | Value v -> Printf.sprintf "value %#x" v
  | Block b -> Printf.sprintf "block of %d (md5 %s)" (String.length b)
                 (Digest.to_hex (Digest.string b))
  | Unit -> "unit"
  | Fault a -> Printf.sprintf "page fault %#x" a
  | Bad f -> Printf.sprintf "bad frame %d" f
  | Invalid -> "invalid_argument"

exception M_fault of int
exception M_bad of int

let run_model f =
  match f () with
  | v -> v
  | exception M_fault a -> Fault a
  | exception M_bad fr -> Bad fr
  | exception Invalid_argument _ -> Invalid

let run_real f =
  match f () with
  | v -> v
  | exception Addr_space.Page_fault { addr; _ } -> Fault addr
  | exception Phys_mem.Bad_frame { frame } -> Bad frame
  | exception Invalid_argument _ -> Invalid

(* The byte store behind [addr], or the fault an access raises. *)
let m_resolve md addr =
  match Hashtbl.find_opt md.pt (Layout.page_of addr) with
  | None -> raise (M_fault addr)
  | Some (M_device d) -> md.devs.(d)
  | Some (M_frame f) -> (
      match Hashtbl.find_opt md.frames f with
      | Some b -> b
      | None -> raise (M_bad f))

let m_get md a = Char.code (Bytes.get (m_resolve md a) (Layout.offset_of a))
let m_set md a c = Bytes.set (m_resolve md a) (Layout.offset_of a) c

(* Block ops go a page at a time, faulting at the first bad chunk. *)
let m_chunks md addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let chunk = min (len - !pos) (Layout.page_size - Layout.offset_of a) in
    ignore (m_resolve md a);
    for i = 0 to chunk - 1 do
      f (!pos + i) (a + i)
    done;
    pos := !pos + chunk
  done

(* Every page a block op touches, in order, as the address it starts at. *)
let m_pages addr len =
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      let a = addr + pos in
      go (pos + Layout.page_size - Layout.offset_of a) (a :: acc)
  in
  go 0 []

let block_data n seed = String.init n (fun i -> Char.chr ((i * 31 + seed) land 0xff))

let m_alloc md ~vpage real_frame =
  Hashtbl.replace md.frames real_frame (Bytes.make Layout.page_size '\000');
  Hashtbl.replace md.pt vpage (M_frame real_frame)

let read_block_both s md a n =
  let r =
    run_real (fun () -> Block (Bytes.to_string (Addr_space.read_block s a n)))
  in
  let m =
    run_model (fun () ->
        let out = Bytes.create n in
        m_chunks md a n (fun i addr -> Bytes.set out i (Char.chr (m_get md addr)));
        Block (Bytes.to_string out))
  in
  (r, m)

(* Whether [f] has its own buffer: a never-written frame reads through
   [zero], the shared zero page. *)
let resident phys ~zero f = Phys_mem.page_ro phys f != zero

let step phys ~zero s real_devs md op =
  match op with
  | Map_fresh v ->
      (* the model cannot predict frame numbers: it accepts any frame
         that is neither 0 nor live, and expects no frame taken when the
         vpage is out of range *)
      let r = run_real (fun () -> Value (Addr_space.alloc_page s ~vpage:v)) in
      let m =
        match r with
        | Value f when in_range v && not (Hashtbl.mem md.frames f) && f > 0 ->
            m_alloc md ~vpage:v f;
            r
        | _ -> if in_range v then Value (-1) else Invalid
      in
      (r, m)
  | Map_alias (v, w) -> (
      match Addr_space.frame_of_vpage s ~vpage:w with
      | None -> (Unit, Unit)
      | Some f ->
          let r = run_real (fun () -> Addr_space.map s ~vpage:v f; Unit) in
          let m =
            run_model (fun () ->
                if not (in_range v) then invalid_arg "map";
                Hashtbl.replace md.pt v (M_frame f);
                Unit)
          in
          (r, m))
  | Map_device (v, d) ->
      let r =
        run_real (fun () -> Addr_space.map_device s ~vpage:v real_devs.(d); Unit)
      in
      let m =
        run_model (fun () ->
            if not (in_range v) then invalid_arg "map_device";
            Hashtbl.replace md.pt v (M_device d);
            Unit)
      in
      (r, m)
  | Unmap v ->
      Addr_space.unmap s ~vpage:v;
      Hashtbl.remove md.pt v;
      (Unit, Unit)
  | Alloc_region (v, n) ->
      (* pages before the first out-of-range one are mapped *)
      let frames_before = Phys_mem.frames_allocated phys in
      let r =
        run_real (fun () ->
            Addr_space.alloc_region s ~vaddr:(v * Layout.page_size) ~pages:n;
            Unit)
      in
      let fresh = ref [] in
      let m =
        run_model (fun () ->
            for i = 0 to n - 1 do
              if not (in_range (v + i)) then invalid_arg "alloc_region";
              fresh := (v + i) :: !fresh
            done;
            Unit)
      in
      List.iter
        (fun vp ->
          match Addr_space.frame_of_vpage s ~vpage:vp with
          | Some f -> m_alloc md ~vpage:vp f
          | None -> ())
        !fresh;
      (* exactly one frame per in-range page, none for the rejected one *)
      let grown = Phys_mem.frames_allocated phys - frames_before in
      (r, if grown = List.length !fresh then m else Value grown)
  | Free_behind v -> (
      match Addr_space.frame_of_vpage s ~vpage:v with
      | None -> (Unit, Unit)
      | Some f ->
          Phys_mem.free_frame phys f;
          Hashtbl.remove md.frames f;
          (Unit, Unit))
  | Read (a, w) ->
      let n = Width.bytes w in
      let r = run_real (fun () -> Value (Addr_space.read s a w)) in
      let m =
        run_model (fun () ->
            (* a single-page read faults at [a]; a straddling one goes
               byte by byte from the top *)
            if Layout.offset_of a + n <= Layout.page_size then
              ignore (m_resolve md a);
            let v = ref 0 in
            for i = n - 1 downto 0 do
              v := (!v lsl 8) lor m_get md (a + i)
            done;
            Value !v)
      in
      (r, m)
  | Write (a, w, x) ->
      let n = Width.bytes w in
      let r = run_real (fun () -> Addr_space.write s a w x; Unit) in
      let m =
        run_model (fun () ->
            (* a precise fault: every page resolves before any store *)
            ignore (m_resolve md a);
            ignore (m_resolve md (Layout.page_base (a + n - 1)));
            for i = 0 to n - 1 do
              m_set md (a + i) (Char.chr ((x lsr (8 * i)) land 0xff))
            done;
            Unit)
      in
      (r, m)
  | Read_block (a, n) -> read_block_both s md a n
  | Write_block (a, n, seed) ->
      let data = block_data n seed in
      let r =
        run_real (fun () ->
            if seed land 1 = 0 then
              Addr_space.write_block s a (Bytes.of_string data)
            else Addr_space.write_string s a ("xy" ^ data) ~off:2 ~len:n;
            Unit)
      in
      let m =
        run_model (fun () ->
            m_chunks md a n (fun i addr -> m_set md addr data.[i]);
            Unit)
      in
      (r, m)
  | Fill (a, n, c) ->
      let r = run_real (fun () -> Addr_space.fill s a n c; Unit) in
      let m = run_model (fun () -> m_chunks md a n (fun _ addr -> m_set md addr c); Unit) in
      (r, m)
  | Zero_fill (a, n) ->
      (* besides matching the model, a zero fill gives no frame a buffer *)
      let shared =
        Hashtbl.fold
          (fun f _ acc -> if resident phys ~zero f then acc else f :: acc)
          md.frames []
      in
      let r = run_real (fun () -> Addr_space.fill s a n '\000'; Unit) in
      let m =
        run_model (fun () ->
            m_chunks md a n (fun _ addr -> m_set md addr '\000');
            Unit)
      in
      List.iter
        (fun f ->
          if resident phys ~zero f then
            QCheck.Test.fail_reportf "zero_fill %#x %d gave frame %d a buffer" a n f)
        shared;
      (r, m)
  | Copy (a, d, n) ->
      (* [copy] requires disjoint ranges: skip a copy whose ranges share
         a backing page (the same vpage, an alias or a device) *)
      let stores addr =
        List.filter_map
          (fun p -> match m_resolve md p with b -> Some b | exception _ -> None)
          (m_pages addr n)
      in
      let ds = stores d in
      if List.exists (fun x -> List.exists (fun y -> x == y) ds) (stores a) then
        (Unit, Unit)
      else
        let r = run_real (fun () -> Addr_space.copy s ~src:a ~dst:d ~len:n; Unit) in
        let m =
          run_model (fun () ->
              (* every page of both ranges resolves before a byte moves *)
              List.iter (fun p -> ignore (m_resolve md p)) (m_pages a n);
              List.iter (fun p -> ignore (m_resolve md p)) (m_pages d n);
              for i = 0 to n - 1 do
                m_set md (d + i) (Char.chr (m_get md (a + i)))
              done;
              Unit)
        in
        (r, m)
  | Recycle (v, x) -> (
      match Addr_space.frame_of_vpage s ~vpage:v with
      | Some f when Hashtbl.mem md.frames f ->
          Phys_mem.write phys f 0 Width.W8 x;
          Phys_mem.free_frame phys f;
          Hashtbl.remove md.frames f;
          (* the free list hands the frame straight back, zeroed: every
             alias of it reads zero too *)
          let r = run_real (fun () -> Value (Addr_space.alloc_page s ~vpage:v)) in
          m_alloc md ~vpage:v f;
          (r, Value f)
      | Some _ | None -> (Unit, Unit))
  | Release ->
      Addr_space.release s;
      let frames =
        Hashtbl.fold
          (fun vp m acc -> match m with M_frame f -> (vp, f) :: acc | M_device _ -> acc)
          md.pt []
      in
      List.iter (fun (_, f) -> Hashtbl.remove md.frames f) frames;
      Hashtbl.reset md.pt;
      (Unit, Unit)

let memory_model_prop =
  QCheck.Test.make ~name:"address space matches a reference model" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) gen_op)
       ~print:(fun ops -> String.concat "; " (List.map show_op ops)))
    (fun ops ->
      let phys = Phys_mem.create ~frames:4096 () in
      let s = Addr_space.create ~name:"m" phys in
      (* the shared zero page, seen through a frame allocated and freed
         before any op runs *)
      let zero =
        let f = Phys_mem.alloc_frame phys in
        let z = Phys_mem.page_ro phys f in
        Phys_mem.free_frame phys f;
        z
      in
      let md =
        {
          pt = Hashtbl.create 16;
          frames = Hashtbl.create 16;
          devs = Array.init 2 (fun _ -> Bytes.make Layout.page_size '\000');
        }
      in
      let real_devs =
        Array.init 2 (fun _ -> byte_device (Bytes.make Layout.page_size '\000'))
      in
      (* a backing region larger than the frame array starts with, so
         every case runs on a grown [Phys_mem] *)
      let big = 0x80000 in
      Addr_space.alloc_region s ~vaddr:(big * Layout.page_size) ~pages:1100;
      for i = 0 to 1099 do
        match Addr_space.frame_of_vpage s ~vpage:(big + i) with
        | Some f -> m_alloc md ~vpage:(big + i) f
        | None -> QCheck.Test.fail_reportf "region page %d unmapped" i
      done;
      List.iteri
        (fun k op ->
          let r, m = step phys ~zero s real_devs md op in
          if r <> m then
            QCheck.Test.fail_reportf "op %d (%s): real %s, model %s" k
              (show_op op) (show_outcome r) (show_outcome m);
          (* every page the ops can reach holds what the model holds, so
             a torn or short store shows even if no later op reads it *)
          Hashtbl.iter
            (fun vp _ ->
              if vp < big || vp >= big + 1100 then
                let r, m = read_block_both s md (vp * Layout.page_size) Layout.page_size in
                if r <> m then
                  QCheck.Test.fail_reportf "op %d (%s): page %#x real %s, model %s"
                    k (show_op op) vp (show_outcome r) (show_outcome m))
            md.pt;
          if Addr_space.mapped_pages s <> Hashtbl.length md.pt then
            QCheck.Test.fail_reportf "op %d (%s): mapped_pages %d, model %d" k
              (show_op op) (Addr_space.mapped_pages s) (Hashtbl.length md.pt);
          if Phys_mem.frames_allocated phys <> Hashtbl.length md.frames then
            QCheck.Test.fail_reportf "op %d (%s): frames_allocated %d, model %d"
              k (show_op op)
              (Phys_mem.frames_allocated phys)
              (Hashtbl.length md.frames);
          let resident_frames =
            Hashtbl.fold
              (fun f _ n -> if resident phys ~zero f then n + 1 else n)
              md.frames 0
          in
          if Phys_mem.frames_resident phys <> resident_frames then
            QCheck.Test.fail_reportf "op %d (%s): frames_resident %d, counted %d"
              k (show_op op)
              (Phys_mem.frames_resident phys)
              resident_frames)
        ops;
      if not (Bytes.equal zero (Bytes.make Layout.page_size '\000')) then
        QCheck.Test.fail_reportf "the shared zero page was written";
      let fresh = Phys_mem.alloc_frame phys in
      if Phys_mem.read_bytes phys fresh 0 Layout.page_size <> zero then
        QCheck.Test.fail_reportf "a fresh frame does not read zero";
      let seen = ref [] in
      Addr_space.iter_frames s (fun ~vpage f -> seen := (vpage, f) :: !seen);
      let expected =
        Hashtbl.fold
          (fun vp m acc -> match m with M_frame f -> (vp, f) :: acc | M_device _ -> acc)
          md.pt []
        |> List.sort compare
      in
      List.rev !seen = expected)

let test_walk_allocates_nothing () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  Addr_space.heap_init s ~base:Layout.dom0_heap_base ~limit:Layout.dom0_heap_limit;
  let va = Addr_space.heap_alloc s (4 * Layout.page_size) in
  let km = Td_kernel.Kmem.create s in
  (* warm the 2 KB class so the measured alloc reuses a carved page *)
  Td_kernel.Kmem.free km (Td_kernel.Kmem.alloc km 2048) 2048;
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let a = va + ((i * 4) land 0x3FFC) in
    Addr_space.write s a Width.W32 i;
    sum := !sum + Addr_space.read s a Width.W32
  done;
  Td_kernel.Kmem.free km (Td_kernel.Kmem.alloc km 2048) 2048;
  let words = Gc.minor_words () -. before in
  check int_c "reads saw the writes" (9_999 * 10_000 / 2) !sum;
  check bool_c (Printf.sprintf "%.0f minor words < 100" words) true
    (words < 100.);
  (* an entry is an int: remapping and unmapping store one *)
  let vpage = Layout.page_of va and f = Phys_mem.alloc_frame phys in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Addr_space.unmap s ~vpage:(vpage + (i land 3));
    Addr_space.map s ~vpage:(vpage + (i land 3)) f
  done;
  let words = Gc.minor_words () -. before in
  check bool_c (Printf.sprintf "map: %.0f minor words < 100" words) true
    (words < 100.)

(* --- demand-zero frames: the shared zero page until the first write --- *)

let zeros = Bytes.make Layout.page_size '\000'

let test_fresh_frame_not_resident () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  check int_c "reads zero" 0 (Phys_mem.read m f 4092 Width.W32);
  check bool_c "whole page zero" true
    (Bytes.equal zeros (Phys_mem.read_bytes m f 0 Layout.page_size));
  check int_c "allocated" 1 (Phys_mem.frames_allocated m);
  check int_c "not resident" 0 (Phys_mem.frames_resident m)

let test_zero_fill_not_resident () =
  let m = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" m in
  Addr_space.alloc_region s ~vaddr:0x10000 ~pages:2;
  Addr_space.fill s 0x10000 (2 * Layout.page_size) '\000';
  check int_c "zero fill: none resident" 0 (Phys_mem.frames_resident m);
  Addr_space.fill s 0x10ffc 8 'x';
  check int_c "non-zero fill: both pages resident" 2
    (Phys_mem.frames_resident m);
  Addr_space.fill s 0x10ffc 8 '\000';
  check int_c "zero fill of a written page clears it" 0
    (Addr_space.read s 0x10ffc Width.W32)

let test_first_write_resident () =
  let m = Phys_mem.create () in
  let fs = Array.init 3 (fun _ -> Phys_mem.alloc_frame m) in
  Phys_mem.write m fs.(1) 10 Width.W16 0xBEEF;
  check int_c "exactly one resident" 1 (Phys_mem.frames_resident m);
  check bool_c "the written one" true
    (Phys_mem.page_ro m fs.(1) != Phys_mem.page_ro m fs.(0));
  check bool_c "the others share a page" true
    (Phys_mem.page_ro m fs.(0) == Phys_mem.page_ro m fs.(2));
  check int_c "value" 0xBEEF (Phys_mem.read m fs.(1) 10 Width.W16);
  Phys_mem.write m fs.(1) 12 Width.W8 1;
  check int_c "a second write adds none" 1 (Phys_mem.frames_resident m);
  check bool_c "shared page still zero" true
    (Bytes.equal zeros (Phys_mem.page_ro m fs.(0)))

let test_realloc_reads_zero () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  Phys_mem.write_bytes m f 0 (Bytes.make Layout.page_size '\xff');
  check int_c "resident" 1 (Phys_mem.frames_resident m);
  Phys_mem.free_frame m f;
  check int_c "freed: none resident" 0 (Phys_mem.frames_resident m);
  let g = Phys_mem.alloc_frame m in
  check int_c "same frame back" f g;
  check bool_c "reads zero" true
    (Bytes.equal zeros (Phys_mem.read_bytes m g 0 Layout.page_size));
  check int_c "not resident" 0 (Phys_mem.frames_resident m)

let test_reads_leave_frame_shared () =
  let m = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" m in
  Addr_space.alloc_region s ~vaddr:0x10000 ~pages:2;
  let src = Option.get (Addr_space.frame_of_vpage s ~vpage:0x10) in
  let dst = Option.get (Addr_space.frame_of_vpage s ~vpage:0x11) in
  let shared = Phys_mem.page_ro m src in
  ignore (Phys_mem.read_bytes m src 100 200);
  ignore (Addr_space.read_block s 0x10800 Layout.page_size);
  check int_c "reads: none resident" 0 (Phys_mem.frames_resident m);
  Addr_space.copy s ~src:0x10000 ~dst:0x11000 ~len:64;
  check int_c "copy: one resident" 1 (Phys_mem.frames_resident m);
  check bool_c "the destination" true (Phys_mem.page_ro m dst != shared);
  check bool_c "source still shared" true (Phys_mem.page_ro m src == shared)

let test_shared_frame_two_spaces () =
  (* a grant: one frame mapped into two spaces, neither having written *)
  let m = Phys_mem.create () in
  let a = Addr_space.create ~name:"a" m in
  let b = Addr_space.create ~name:"b" m in
  let f = Addr_space.alloc_page a ~vpage:0x20 in
  Addr_space.map b ~vpage:0x77 f;
  check int_c "b reads zero" 0 (Addr_space.read b 0x77010 Width.W32);
  Addr_space.write a 0x20010 Width.W32 0xCAFE;
  check int_c "b sees a's first write" 0xCAFE (Addr_space.read b 0x77010 Width.W32);
  Addr_space.write_block b 0x77100 (Bytes.of_string "grant");
  check bool_c "a sees b's write" true
    (Bytes.to_string (Addr_space.read_block a 0x20100 5) = "grant");
  check int_c "one resident frame" 1 (Phys_mem.frames_resident m)

let suite =
  [
    Alcotest.test_case "layout invariants" `Quick test_layout_invariants;
    Alcotest.test_case "phys alloc/free" `Quick test_phys_alloc_free;
    Alcotest.test_case "phys exhaustion" `Quick test_phys_exhaustion;
    Alcotest.test_case "phys rw widths" `Quick test_phys_rw_widths;
    Alcotest.test_case "phys bounds" `Quick test_phys_bounds;
    Alcotest.test_case "space map/translate" `Quick test_space_map_translate;
    Alcotest.test_case "space page fault" `Quick test_space_page_fault;
    Alcotest.test_case "space straddle" `Quick test_space_straddle;
    Alcotest.test_case "space blocks" `Quick test_space_blocks;
    Alcotest.test_case "space aliasing" `Quick test_space_aliasing;
    Alcotest.test_case "device pages" `Quick test_device_pages;
    Alcotest.test_case "heap alloc distinct" `Quick test_heap_alloc_distinct;
    Alcotest.test_case "straddling write fault is precise" `Quick
      test_straddle_write_fault_is_precise;
    Alcotest.test_case "addresses outside 32 bits" `Quick
      test_addresses_outside_32_bits;
    Alcotest.test_case "phys growth" `Quick test_phys_growth;
    Alcotest.test_case "walk allocates nothing" `Quick
      test_walk_allocates_nothing;
    Alcotest.test_case "fresh frame reads zero, not resident" `Quick
      test_fresh_frame_not_resident;
    Alcotest.test_case "zero fill leaves frames shared" `Quick
      test_zero_fill_not_resident;
    Alcotest.test_case "first write makes one frame resident" `Quick
      test_first_write_resident;
    Alcotest.test_case "written frame reallocated reads zero" `Quick
      test_realloc_reads_zero;
    Alcotest.test_case "reads leave frames shared" `Quick
      test_reads_leave_frame_shared;
    Alcotest.test_case "frame shared by two spaces" `Quick
      test_shared_frame_two_spaces;
    QCheck_alcotest.to_alcotest memory_model_prop;
    Alcotest.test_case "copy fault is precise" `Quick
      test_copy_fault_is_precise;
    Alcotest.test_case "device table stays bounded" `Quick test_device_table;
  ]
