(* A pool slot: the sk_buff, its [Some] as [alloc] hands it out (built
   once, so an allocation builds nothing), its fragment buffer and
   whether it sits on the free stack. *)
type slot = {
  skb : Skb.t;
  some : Skb.t option;
  frag : int;
  mutable in_pool : bool;
}

type t = {
  slots : slot Td_sim.Int_tbl.t;  (** struct addr -> slot *)
  free : slot array;  (** the free stack: [free.(0 .. nfree - 1)], top last *)
  mutable nfree : int;
  mutable exhaustions : int;
}

let create kmem space ~entries ~buf_size =
  let slots = Td_sim.Int_tbl.create entries in
  let all =
    Array.init entries (fun _ ->
        let addr = Skb.alloc_at kmem space ~size:buf_size in
        let skb = { Skb.space; addr } in
        (* base reference held by the pool: dom0 frees only decrement *)
        Skb.get_ref_at space addr;
        let frag = Kmem.alloc kmem Td_mem.Layout.page_size in
        let slot = { skb; some = Some skb; frag; in_pool = true } in
        Td_sim.Int_tbl.replace slots skb.Skb.addr slot;
        slot)
  in
  (* the first sk_buff allocated is the first handed out *)
  let free = Array.init entries (fun i -> all.(entries - 1 - i)) in
  { slots; free; nfree = entries; exhaustions = 0 }

let alloc t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    let slot = t.free.(t.nfree) in
    slot.in_pool <- false;
    let skb = slot.skb in
    Skb.get_ref_at skb.Skb.space skb.Skb.addr;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "skb.pool.alloc";
      Td_obs.Trace.emit
        (Td_obs.Trace.Skb_alloc { addr = skb.Skb.addr; pooled = true })
    end;
    slot.some
  end
  else begin
    t.exhaustions <- t.exhaustions + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "skb.pool.exhaustions";
      Td_obs.Trace.emit (Td_obs.Trace.Nic_drop { reason = "skb pool empty" })
    end;
    None
  end

let owns t addr = Td_sim.Int_tbl.mem t.slots addr

(* reset to a pristine buffer holding only the pool's base reference *)
let make_pristine { Skb.space; addr } =
  Skb.set_refcnt_at space addr 1;
  Skb.set_data_at space addr (Skb.head_at space addr);
  Skb.set_len_at space addr 0;
  Skb.set_frag_at space addr ~page:0 ~len:0;
  Skb.set_protocol_at space addr 0

let push t slot =
  slot.in_pool <- true;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let release t addr =
  (* a foreign sk_buff here is driver-supplied data, reachable from a
     corrupted or malicious driver instance: typed fault, not a crash *)
  match Td_sim.Int_tbl.find t.slots addr with
  | exception Not_found ->
      Td_xen.Guest_fault.fail ~op:"Skb_pool.release" "foreign sk_buff 0x%x"
        addr
  | slot when slot.in_pool ->
      (* a second free of the same buffer: the free stack holds each
         slot once, so this too is a typed fault *)
      Td_xen.Guest_fault.fail ~op:"Skb_pool.release" "double release of 0x%x"
        addr
  | slot ->
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "skb.pool.release";
        Td_obs.Trace.emit (Td_obs.Trace.Skb_free { addr; pooled = true })
      end;
      make_pristine slot.skb;
      push t slot

let iter t f = Td_sim.Int_tbl.iter (fun _ slot -> f slot.skb) t.slots

(* Reclaim every slot, in flight or not: when the supervisor tears down
   an aborted driver instance nothing can tell which in-flight buffers
   the dead instance still referenced, so all of them come home and every
   consumer (rx rings and the like) must be re-initialised afterwards. *)
let reset t =
  t.nfree <- 0;
  Td_sim.Int_tbl.iter
    (fun _ slot ->
      make_pristine slot.skb;
      push t slot)
    t.slots

let frag_buffer t addr =
  match Td_sim.Int_tbl.find t.slots addr with
  | slot -> slot.frag
  | exception Not_found ->
      Td_xen.Guest_fault.fail ~op:"Skb_pool.frag_buffer" "foreign sk_buff 0x%x"
        addr

let available t = t.nfree
let size t = Array.length t.free
let exhaustions t = t.exhaustions
