type t = { space : Td_mem.Addr_space.t; addr : int }

let struct_bytes = 32
let default_buf_bytes = 2048

(* The fields live in simulated memory, so every operation needs only the
   struct's (space, address). The [_at] forms take exactly that, for the
   support routines, which hold a bare address and would otherwise build
   a record per call just to throw it away; the record forms below are
   the same operations. *)
let rd space addr off =
  Td_mem.Addr_space.read space (addr + off) Td_misa.Width.W32

let wr space addr off v =
  Td_mem.Addr_space.write space (addr + off) Td_misa.Width.W32 v

let of_addr space addr = { space; addr }

let data_at space addr = rd space addr 0
let len_at space addr = rd space addr 4
let head_at space addr = rd space addr 8
let end_at space addr = rd space addr 12
let refcnt_at space addr = rd space addr 16
let capacity_at space addr = end_at space addr - head_at space addr
let data t = data_at t.space t.addr
let set_data t v = wr t.space t.addr 0 v
let len t = len_at t.space t.addr
let set_len t v = wr t.space t.addr 4 v
let head t = head_at t.space t.addr
let end_ t = end_at t.space t.addr
let refcnt t = refcnt_at t.space t.addr
let set_refcnt t v = wr t.space t.addr 16 v
let get_ref t = set_refcnt t (refcnt t + 1)
let protocol t = rd t.space t.addr 20
let set_protocol_at space addr v = wr space addr 20 v
let set_protocol t v = set_protocol_at t.space t.addr v
let frag_page t = rd t.space t.addr 24

let set_frag t ~page ~len =
  wr t.space t.addr 24 page;
  wr t.space t.addr 28 len

let frag_len t = rd t.space t.addr 28
let capacity t = capacity_at t.space t.addr

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

let alloc kmem space ~size = { space; addr = alloc_at kmem space ~size }

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

let free kmem t = free_at kmem t.space t.addr

(* put/pull lengths are routinely derived from guest-writable descriptor
   rings, so an out-of-range value is guest-controlled input, not an
   invariant violation: raise a typed, counted Guest_fault (attributed to
   the address space holding the buffer) that the driver supervisor
   contains, never a bare failwith that would take dom0 down. Every put
   runs this overflow check before any byte moves; it returns the tail
   address. *)
let reserve t n =
  let d = data t and l = len t in
  if d + l + n > end_ t then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name t.space)
      ~op:"Skb.put" "overflow: %d staged + %d new > %d capacity" l n
      (capacity t);
  d + l

let put_string t s ~off ~len:n =
  let tail = reserve t n in
  Td_mem.Addr_space.write_string t.space tail s ~off ~len:n;
  set_len t (len t + n)

let put_from t ~src ~len:n =
  let tail = reserve t n in
  Td_mem.Addr_space.copy t.space ~src ~dst:tail ~len:n;
  set_len t (len t + n)

let put t payload =
  put_string t (Bytes.unsafe_to_string payload) ~off:0
    ~len:(Bytes.length payload)

let pull_at space addr n =
  let l = len_at space addr in
  if n > l then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name space)
      ~op:"Skb.pull" "underflow: pulling %d of %d bytes" n l;
  wr space addr 0 (data_at space addr + n);
  wr space addr 4 (l - n)

let pull t n = pull_at t.space t.addr n
let contents t = Td_mem.Addr_space.read_block t.space (data t) (len t)
let total_len t = len t + frag_len t
