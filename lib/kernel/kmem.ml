type t = {
  space : Td_mem.Addr_space.t;
  free_lists : (int, int list ref) Hashtbl.t;  (** class size -> addrs *)
  mutable live : int;
}

let create space = { space; free_lists = Hashtbl.create 8; live = 0 }

let class_of bytes =
  let rec go c = if c >= bytes then c else go (c * 2) in
  go 32

let free_list t cls =
  match Hashtbl.find_opt t.free_lists cls with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.free_lists cls l;
      l

let alloc t bytes =
  if bytes <= 0 then invalid_arg "Kmem.alloc: non-positive size";
  if bytes > Td_mem.Layout.page_size then begin
    let addr = Td_mem.Addr_space.heap_alloc t.space bytes in
    t.live <- t.live + bytes;
    addr
  end
  else begin
    let cls = class_of bytes in
    let fl = free_list t cls in
    let addr =
      match !fl with
      | a :: rest ->
          fl := rest;
          a
      | [] ->
          (* carve a fresh page into objects of this class *)
          let page = Td_mem.Addr_space.heap_alloc t.space Td_mem.Layout.page_size in
          let per_page = Td_mem.Layout.page_size / cls in
          for i = 1 to per_page - 1 do
            fl := (page + (i * cls)) :: !fl
          done;
          page
    in
    Td_mem.Addr_space.fill t.space addr cls '\000';
    t.live <- t.live + cls;
    addr
  end

let free t addr bytes =
  if bytes > Td_mem.Layout.page_size then t.live <- t.live - bytes
  else begin
    let cls = class_of bytes in
    let fl = free_list t cls in
    fl := addr :: !fl;
    t.live <- t.live - cls
  end

let allocated_bytes t = t.live
