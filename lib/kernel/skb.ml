type t = { space : Td_mem.Addr_space.t; addr : int }

let struct_bytes = 32
let default_buf_bytes = 2048

let rd t off = Td_mem.Addr_space.read t.space (t.addr + off) Td_misa.Width.W32
let wr t off v = Td_mem.Addr_space.write t.space (t.addr + off) Td_misa.Width.W32 v

let of_addr space addr = { space; addr }

let data t = rd t 0
let set_data t v = wr t 0 v
let len t = rd t 4
let set_len t v = wr t 4 v
let head t = rd t 8
let end_ t = rd t 12
let refcnt t = rd t 16
let set_refcnt t v = wr t 16 v
let get_ref t = set_refcnt t (refcnt t + 1)
let protocol t = rd t 20
let set_protocol t v = wr t 20 v
let frag_page t = rd t 24

let set_frag t ~page ~len =
  wr t 24 page;
  wr t 28 len

let frag_len t = rd t 28
let capacity t = end_ t - head t

let alloc kmem space ~size =
  let addr = Kmem.alloc kmem struct_bytes in
  let buf = Kmem.alloc kmem size in
  let t = { space; addr } in
  set_data t buf;
  set_len t 0;
  wr t 8 buf;
  wr t 12 (buf + size);
  set_refcnt t 1;
  set_protocol t 0;
  set_frag t ~page:0 ~len:0;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "skb.alloc";
    Td_obs.Trace.emit (Td_obs.Trace.Skb_alloc { addr; pooled = false })
  end;
  t

let free kmem t =
  let r = refcnt t in
  if r <= 1 then begin
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "skb.free";
      Td_obs.Trace.emit (Td_obs.Trace.Skb_free { addr = t.addr; pooled = false })
    end;
    Kmem.free kmem (head t) (capacity t);
    Kmem.free kmem t.addr struct_bytes
  end
  else set_refcnt t (r - 1)

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

let pull t n =
  if n > len t then
    Td_xen.Guest_fault.fail
      ~domain:(Td_mem.Addr_space.name t.space)
      ~op:"Skb.pull" "underflow: pulling %d of %d bytes" n (len t);
  set_data t (data t + n);
  set_len t (len t - n)

let contents t = Td_mem.Addr_space.read_block t.space (data t) (len t)
let total_len t = len t + frag_len t
