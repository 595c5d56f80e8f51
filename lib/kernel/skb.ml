type t = { space : Td_mem.Addr_space.t; addr : int }

let struct_bytes = 32
let default_buf_bytes = 2048

(* The fields live in simulated memory, so every operation needs only the
   struct's space and address: a frame path hands the bare address along
   and builds nothing on the host. *)
let rd space addr off =
  Td_mem.Addr_space.read space (addr + off) Td_misa.Width.W32

let wr space addr off v =
  Td_mem.Addr_space.write space (addr + off) Td_misa.Width.W32 v

let data_at space addr = rd space addr 0
let set_data_at space addr v = wr space addr 0 v
let len_at space addr = rd space addr 4
let set_len_at space addr v = wr space addr 4 v
let head_at space addr = rd space addr 8
let end_at space addr = rd space addr 12
let refcnt_at space addr = rd space addr 16
let set_refcnt_at space addr v = wr space addr 16 v
let get_ref_at space addr = set_refcnt_at space addr (refcnt_at space addr + 1)
let set_protocol_at space addr v = wr space addr 20 v
let frag_page_at space addr = rd space addr 24

let set_frag_at space addr ~page ~len =
  wr space addr 24 page;
  wr space addr 28 len

let capacity_at space addr = end_at space addr - head_at space addr

let alloc_at kmem space ~size =
  let addr = Kmem.alloc kmem struct_bytes in
  let buf = Kmem.alloc kmem size in
  wr space addr 0 buf;
  wr space addr 4 0;
  wr space addr 8 buf;
  wr space addr 12 (buf + size);
  wr space addr 16 1;
  set_protocol_at space addr 0;
  wr space addr 24 0;
  wr space addr 28 0;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "skb.alloc";
    Td_obs.Trace.emit (Td_obs.Trace.Skb_alloc { addr; pooled = false })
  end;
  addr

let free_at kmem space addr =
  let r = refcnt_at space addr in
  if r <= 1 then begin
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "skb.free";
      Td_obs.Trace.emit (Td_obs.Trace.Skb_free { addr; pooled = false })
    end;
    Kmem.free kmem (head_at space addr) (capacity_at space addr);
    Kmem.free kmem addr struct_bytes
  end
  else wr space addr 16 (r - 1)

(* put/pull lengths are routinely derived from guest-writable descriptor
   rings, so an out-of-range value is guest-controlled input, not an
   invariant violation: raise a typed, counted Guest_fault (attributed to
   the address space holding the buffer) that the driver supervisor
   contains, never a bare failwith that would take dom0 down. Every put
   runs this overflow check before any byte moves; it returns the tail
   address. *)
let reserve space addr n =
  let d = data_at space addr and l = len_at space addr in
  if d + l + n > end_at space addr then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name space)
      ~op:"Skb.put" "overflow: %d staged + %d new > %d capacity" l n
      (capacity_at space addr);
  d + l

let put_string_at space addr s ~off ~len:n =
  let tail = reserve space addr n in
  Td_mem.Addr_space.write_string space tail s ~off ~len:n;
  set_len_at space addr (len_at space addr + n)

let put_from_at space addr ~src ~len:n =
  let tail = reserve space addr n in
  Td_mem.Addr_space.copy space ~src ~dst:tail ~len:n;
  set_len_at space addr (len_at space addr + n)

let pull_at space addr n =
  let l = len_at space addr in
  if n > l then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name space)
      ~op:"Skb.pull" "underflow: pulling %d of %d bytes" n l;
  wr space addr 0 (data_at space addr + n);
  wr space addr 4 (l - n)

let contents_at space addr =
  Td_mem.Addr_space.read_block space (data_at space addr) (len_at space addr)

let total_len_at space addr = len_at space addr + rd space addr 28
