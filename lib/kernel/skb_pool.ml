type t = {
  space : Td_mem.Addr_space.t;
  all : int Td_sim.Int_tbl.t;  (** struct addr -> preallocated frag buffer *)
  mutable free : Skb.t list;
  size : int;
  mutable exhaustions : int;
}

let create kmem space ~entries ~buf_size =
  let all = Td_sim.Int_tbl.create entries in
  let free =
    List.init entries (fun _ ->
        let skb = Skb.alloc kmem space ~size:buf_size in
        (* base reference held by the pool: dom0 frees only decrement *)
        Skb.get_ref skb;
        let frag = Kmem.alloc kmem Td_mem.Layout.page_size in
        Td_sim.Int_tbl.replace all skb.Skb.addr frag;
        skb)
  in
  { space; all; free; size = entries; exhaustions = 0 }

let alloc t =
  match t.free with
  | skb :: rest ->
      t.free <- rest;
      Skb.get_ref skb;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "skb.pool.alloc";
        Td_obs.Trace.emit
          (Td_obs.Trace.Skb_alloc { addr = skb.Skb.addr; pooled = true })
      end;
      Some skb
  | [] ->
      t.exhaustions <- t.exhaustions + 1;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "skb.pool.exhaustions";
        Td_obs.Trace.emit (Td_obs.Trace.Nic_drop { reason = "skb pool empty" })
      end;
      None

let owns t skb = Td_sim.Int_tbl.mem t.all skb.Skb.addr

(* reset to a pristine buffer holding only the pool's base reference *)
let make_pristine skb =
  Skb.set_refcnt skb 1;
  Skb.set_data skb (Skb.head skb);
  Skb.set_len skb 0;
  Skb.set_frag skb ~page:0 ~len:0;
  Skb.set_protocol skb 0

let release t skb =
  (* a foreign sk_buff here is driver-supplied data, reachable from a
     corrupted or malicious driver instance: typed fault, not a crash *)
  if not (owns t skb) then
    Td_xen.Guest_fault.fail ~op:"Skb_pool.release" "foreign sk_buff 0x%x"
      skb.Skb.addr;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "skb.pool.release";
    Td_obs.Trace.emit
      (Td_obs.Trace.Skb_free { addr = skb.Skb.addr; pooled = true })
  end;
  make_pristine skb;
  t.free <- skb :: t.free

let iter t f =
  Td_sim.Int_tbl.iter (fun addr _ -> f (Skb.of_addr t.space addr)) t.all

(* Reclaim every slot, in flight or not: when the supervisor tears down
   an aborted driver instance nothing can tell which in-flight buffers
   the dead instance still referenced, so all of them come home and every
   consumer (rx rings and the like) must be re-initialised afterwards. *)
let reset t =
  t.free <- [];
  Td_sim.Int_tbl.iter
    (fun addr _ ->
      let skb = Skb.of_addr t.space addr in
      make_pristine skb;
      t.free <- skb :: t.free)
    t.all

let frag_buffer t skb =
  match Td_sim.Int_tbl.find t.all skb.Skb.addr with
  | frag -> frag
  | exception Not_found ->
      Td_xen.Guest_fault.fail ~op:"Skb_pool.frag_buffer" "foreign sk_buff 0x%x"
        skb.Skb.addr

let available t = List.length t.free
let size t = t.size
let exhaustions t = t.exhaustions
