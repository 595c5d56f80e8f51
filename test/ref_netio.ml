(* The Xen I/O channel as it was when each notification scheme had its
   own code: the batch-coalescing channel, and beside it the optional
   doorbell page with a NAPI-style state machine written once for tx and
   again for rx ([flush_tx]/[flush_rx], [poll_tx]/[poll_rx]). [Xen_netio]
   must reproduce its ledger charges, latency samples, counters, modes
   and delivered bytes exactly; the equivalence property checks it. *)

open Td_xen
open Td_kernel

type mode = Interrupt | Polling

type doorbell_cfg = {
  poll_entry_kicks : int;
  idle_hysteresis : int;
  poll_budget : int;
}

(* Per-direction adaptive state. [seq]/[seen] mirror the 32-bit sequence
   word in the shared doorbell page: the producer increments [seq] and
   stores it; the consumer compares the loaded word against [seen]. *)
type dir_state = {
  dir_name : string;
  mutable mode : mode;
  mutable seq : int;
  mutable seen : int;
  mutable window_kicks : int;  (** notification boundaries this tick window *)
  mutable idle_windows : int;  (** consecutive windows with no boundary *)
  mutable since_notify : int;  (** frames staged since the last boundary *)
  mutable polls : int;
  mutable suppressed : int;
  mutable mode_switches : int;
}

type doorbell = {
  cfg : doorbell_cfg;
  page : int;  (** guest vaddr of the shared doorbell page *)
  dom0_vaddr : int;  (** persistent dom0 mapping of the same frame *)
  db_gref : Grant_table.grant_ref;
  tx : dir_state;
  rx : dir_state;
}

(* A FIFO ring of I/O requests in one growable int array, like Xen's
   shared ring: an entry is four ints — grant, guest vaddr, length, stage
   stamp — and [pop] returns the base index of the head entry in [buf],
   valid until the next [push]. A full ring doubles, unrolled into FIFO
   order. *)
module Ring = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 64 0; head = 0; len = 0 }
  let length r = r.len
  let is_empty r = r.len = 0
  let slots r = Array.length r.buf / 4

  let push r gref gvaddr len stamp =
    let n = slots r in
    if r.len = n then begin
      let grown = Array.make (8 * n) 0 and h = 4 * r.head in
      Array.blit r.buf h grown 0 ((4 * n) - h);
      Array.blit r.buf 0 grown ((4 * n) - h) h;
      r.buf <- grown;
      r.head <- 0
    end;
    let i = 4 * ((r.head + r.len) mod slots r) in
    r.buf.(i) <- gref;
    r.buf.(i + 1) <- gvaddr;
    r.buf.(i + 2) <- len;
    r.buf.(i + 3) <- stamp;
    r.len <- r.len + 1

  let pop r =
    let i = 4 * r.head in
    r.head <- (r.head + 1) mod slots r;
    r.len <- r.len - 1;
    i
end

let nop () = ()

type t = {
  hyp : Hypervisor.t;
  dom0 : Domain.t;
  guest : Domain.t;
  kmem : Kmem.t;
  driver_tx : int -> unit;
  quota : Quota.state option;
      (** checks notifications, doorbells and rx deliveries; also handed
          to [grants] *)
  grants : Grant_table.t;
  batch : int;  (** notifications coalesced per kick (1 = every frame) *)
  tx_pages : (int * Grant_table.grant_ref) array;
      (** granted guest pages used to stage transmitted frames; sized
          [batch] without a doorbell, wider with one so budget-limited
          drains never reuse a still-staged slot *)
  tx_staged : Ring.t;
      (** granted frames pushed on the ring, kick pending; the stamp is
          the simulated clock at staging, for the per-direction latency
          samples *)
  mutable tx_prod : int;  (** producer cursor into [tx_pages] *)
  mutable map_cursor : int;  (** dom0 vaddr window for grant maps *)
  rx_posted : Ring.t;  (** empty receive buffers (grant, guest vaddr) *)
  rx_staged : Ring.t;  (** frames copied in, notification pending *)
  mutable guest_rx : int -> int -> unit;
  mutable tx_budget : int;  (** frames the next [tx_drain] forwards *)
  mutable tx_drain : unit -> unit;
      (** the backend drain, run in dom0; built once per channel *)
  mutable rx_budget : int;  (** completions the next [rx_drain] delivers *)
  mutable rx_drain : unit -> unit;
      (** the frontend drain and virq handler, run in the guest; built
          once per channel *)
  mutable tx_count : int;
  mutable rx_count : int;
  mutable rx_dropped : int;
  mutable rx_throttled : int;  (** deliveries denied by the rx quota *)
  mutable flush_count : int;
  mutable tx_staged_total : int;
  mutable rx_staged_total : int;
  doorbell : doorbell option;
  mutable closed : bool;
}

(* dom0 virtual window where granted guest pages are temporarily mapped *)
let grant_map_base = 0xC7F0_0000

(* dom0 window for persistent doorbell-page mappings, just below the
   transient grant-map window; one page per channel *)
let doorbell_map_base = 0xC7E0_0000
let doorbell_window = (doorbell_map_base, grant_map_base)

(* doorbell page layout: two little-endian 32-bit sequence words — the
   tx word (guest stores, dom0 loads) at byte 0, the rx word (dom0
   stores, guest loads) at byte 4 *)
let tx_off = 0
let rx_off = 4

(* window exhaustion is reachable by a guest opening channels in a loop,
   so it faults typed and attributed instead of invalid_arg *)
let alloc_doorbell_vaddr ~guest dom0_space =
  let rec go vaddr =
    if vaddr >= grant_map_base then
      Guest_fault.fail ~domain:(Domain.name guest)
        ~op:"Xen_netio.alloc_doorbell_vaddr" "doorbell map window exhausted"
    else if
      Td_mem.Addr_space.is_mapped dom0_space
        ~vpage:(Td_mem.Layout.page_of vaddr)
    then go (vaddr + Td_mem.Layout.page_size)
    else vaddr
  in
  go doorbell_map_base

let grant_guest_page gspace grants =
  let page = Td_mem.Addr_space.heap_alloc gspace Td_mem.Layout.page_size in
  let frame =
    match
      Td_mem.Addr_space.frame_of_vpage gspace
        ~vpage:(Td_mem.Layout.page_of page)
    with
    | Some f -> f
    | None ->
        (* heap_alloc maps what it returns, so an unbacked page means the
           guest's page table was tampered with mid-allocation: a typed,
           attributed fault, not a simulation crash *)
        Guest_fault.fail
          ~domain:(Td_mem.Addr_space.name gspace)
          ~op:"netio.grant_guest_page" "heap page 0x%x has no backing frame"
          page
  in
  (page, Grant_table.grant grants ~frame)

let charge_dom0 t n = Hypervisor.charge_domain t.hyp t.dom0 n
let charge_guest t n = Hypervisor.charge_domain t.hyp t.guest n

(* simulated clock for the latency samples: total cycles charged so far *)
let now t = Ledger.grand_total (Hypervisor.ledger t.hyp)

(* The backend's per-frame work, always run in dom0: map the granted
   frame, rebuild a dom0 sk_buff, hand it to the NIC driver, unmap. *)
let backend_tx_one t costs =
  let i = Ring.pop t.tx_staged in
  let b = t.tx_staged.Ring.buf in
  let gref = b.(i) and len = b.(i + 2) and stamp = b.(i + 3) in
  let vaddr = t.map_cursor in
  Grant_table.map t.grants ~hyp:t.hyp ~into:t.dom0
    ~at_vpage:(Td_mem.Layout.page_of vaddr)
    gref;
  charge_dom0 t costs.Sys_costs.netback;
  let space = Domain.space t.dom0 in
  let skb = Skb.alloc_at t.kmem space ~size:(len + 64) in
  Skb.put_from_at space skb ~src:vaddr ~len;
  charge_dom0 t costs.Sys_costs.bridge;
  t.driver_tx skb;
  Grant_table.unmap t.grants ~hyp:t.hyp ~from:t.dom0
    ~at_vpage:(Td_mem.Layout.page_of vaddr)
    gref;
  t.tx_count <- t.tx_count + 1;
  Ledger.note_latency (Hypervisor.ledger t.hyp) `Tx (now t - stamp);
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "netio.tx";
    Td_obs.Trace.emit (Td_obs.Trace.Netio_tx { bytes = len })
  end

(* [tx_drain]: forward up to [tx_budget] staged frames, in dom0 *)
let backend_drain t =
  let costs = Hypervisor.costs t.hyp in
  for _ = 1 to min t.tx_budget (Ring.length t.tx_staged) do
    backend_tx_one t costs
  done

(* The frontend's work, run in the guest: for up to [budget] completions
   at the head of [ring], hand the frame in the granted buffer to the
   stack and re-post the buffer. *)
let frontend_deliver t ring budget =
  let costs = Hypervisor.costs t.hyp in
  for _ = 1 to min budget (Ring.length ring) do
    let i = Ring.pop ring in
    let b = ring.Ring.buf in
    let gref = b.(i) and gvaddr = b.(i + 1) and len = b.(i + 2) in
    let stamp = b.(i + 3) in
    charge_guest t costs.Sys_costs.netfront;
    t.rx_count <- t.rx_count + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "netio.rx";
      Td_obs.Trace.emit (Td_obs.Trace.Netio_rx { bytes = len })
    end;
    t.guest_rx gvaddr len;
    Ledger.note_latency (Hypervisor.ledger t.hyp) `Rx (now t - stamp);
    Ring.push t.rx_posted gref gvaddr 0 0
  done

let create ?(batch = 1) ?doorbell ?quota ~hyp ~dom0 ~guest ~kmem ~driver_tx
    () =
  if batch < 1 then invalid_arg "Xen_netio: batch must be >= 1";
  let gspace = Domain.space guest in
  let grants = Grant_table.create ?quota ~owner:guest () in
  (* Without a doorbell the staging ring is exactly [batch] pages and the
     producer cursor walks it in lockstep with the (always fully drained)
     staged queue — page-for-page the historical layout. With one, drains
     are budget-limited, so the ring is widened to keep the cursor from
     lapping frames a partial drain left behind. *)
  let ring_slots =
    match doorbell with
    | None -> batch
    | Some cfg -> max batch (2 * max 1 cfg.poll_budget)
  in
  let tx_pages = Array.init ring_slots (fun _ -> grant_guest_page gspace grants) in
  let doorbell =
    match doorbell with
    | None -> None
    | Some cfg ->
        if cfg.poll_budget < 1 then
          invalid_arg "Xen_netio: poll_budget must be >= 1";
        if cfg.idle_hysteresis < 1 then
          invalid_arg "Xen_netio: idle_hysteresis must be >= 1";
        let page, db_gref = grant_guest_page gspace grants in
        Td_mem.Addr_space.write gspace (page + tx_off) Td_misa.Width.W32 0;
        Td_mem.Addr_space.write gspace (page + rx_off) Td_misa.Width.W32 0;
        let dom0_vaddr = alloc_doorbell_vaddr ~guest (Domain.space dom0) in
        Grant_table.map grants ~hyp ~into:dom0
          ~at_vpage:(Td_mem.Layout.page_of dom0_vaddr)
          db_gref;
        (* poll_entry_kicks <= 0 selects always-poll: start in Polling and
           never fall back (the bench's upper-bound configuration) *)
        let initial = if cfg.poll_entry_kicks <= 0 then Polling else Interrupt in
        let mk dir_name =
          {
            dir_name;
            mode = initial;
            seq = 0;
            seen = 0;
            window_kicks = 0;
            idle_windows = 0;
            since_notify = 0;
            polls = 0;
            suppressed = 0;
            mode_switches = 0;
          }
        in
        Some
          {
            cfg;
            page;
            dom0_vaddr;
            db_gref;
            tx = mk "tx";
            rx = mk "rx";
          }
  in
  let t =
    {
      hyp;
      dom0;
      guest;
      kmem;
      driver_tx;
      quota;
      grants;
      batch;
      tx_pages;
      tx_staged = Ring.create ();
      tx_prod = 0;
      map_cursor = grant_map_base;
      rx_posted = Ring.create ();
      rx_staged = Ring.create ();
      guest_rx = (fun _ _ -> ());
      tx_budget = 0;
      tx_drain = nop;
      rx_budget = 0;
      rx_drain = nop;
      tx_count = 0;
      rx_count = 0;
      rx_dropped = 0;
      rx_throttled = 0;
      flush_count = 0;
      tx_staged_total = 0;
      rx_staged_total = 0;
      doorbell;
      closed = false;
    }
  in
  t.tx_drain <- (fun () -> backend_drain t);
  t.rx_drain <- (fun () -> frontend_deliver t t.rx_staged t.rx_budget);
  t

let set_guest_rx t fn = t.guest_rx <- fn

let backend_drain_tx t ~budget =
  if not (Ring.is_empty t.tx_staged) then begin
    t.tx_budget <- budget;
    Hypervisor.run_in t.hyp t.dom0 t.tx_drain
  end

let frontend_drain_rx t ~budget =
  if not (Ring.is_empty t.rx_staged) then begin
    t.rx_budget <- budget;
    Hypervisor.run_in t.hyp t.guest t.rx_drain
  end

(* One kick drains every staged request: the backend runs once in dom0,
   mapping, forwarding and unmapping each granted frame in ring order. *)
let flush_tx t =
  if not (Ring.is_empty t.tx_staged) then begin
    t.flush_count <- t.flush_count + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.flush";
    (match t.doorbell with
    | Some db ->
        db.tx.window_kicks <- db.tx.window_kicks + 1;
        db.tx.since_notify <- 0
    | None -> ());
    Hypervisor.hypercall t.hyp ();
    backend_drain_tx t ~budget:max_int
  end

(* Producer side of a doorbell: bump the sequence number and store it in
   the shared page — a cache-line write in place of a hypercall/virq. *)
let ring_doorbell t d ~space ~vaddr ~charge =
  let costs = Hypervisor.costs t.hyp in
  d.seq <- (d.seq + 1) land 0xFFFF_FFFF;
  Td_mem.Addr_space.write space vaddr Td_misa.Width.W32 d.seq;
  charge t costs.Sys_costs.doorbell_write;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.doorbell_writes"

(* Count the notification that coalescing would have sent at each [batch]
   boundary; in polling mode the doorbell makes it unnecessary. *)
let note_suppressed t d ~metric =
  d.since_notify <- d.since_notify + 1;
  if d.since_notify >= t.batch then begin
    d.since_notify <- 0;
    d.suppressed <- d.suppressed + 1;
    d.window_kicks <- d.window_kicks + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump metric
  end

(* Consumer side: load the shared sequence word; on any advance (or
   leftovers from a budget-limited previous visit) drain up to the poll
   budget. Charged [doorbell_poll] whether or not there is work — the
   price of polling, and why idle channels fall back to interrupts. *)
let poll_tx t db =
  db.tx.polls <- db.tx.polls + 1;
  charge_dom0 t (Hypervisor.costs t.hyp).Sys_costs.doorbell_poll;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.doorbell_polls";
  let seq =
    Td_mem.Addr_space.read (Domain.space t.dom0)
      (db.dom0_vaddr + tx_off) Td_misa.Width.W32
  in
  if seq <> db.tx.seen || not (Ring.is_empty t.tx_staged) then begin
    db.tx.seen <- seq;
    backend_drain_tx t ~budget:db.cfg.poll_budget
  end

let guest_transmit t ~hdr payload =
  if t.closed then
    Guest_fault.fail ~domain:(Domain.name t.guest)
      ~op:"Xen_netio.guest_transmit" "channel closed";
  let costs = Hypervisor.costs t.hyp in
  let hlen = String.length hdr in
  let len = hlen + String.length payload in
  if len > Td_mem.Layout.page_size then
    Guest_fault.fail ~domain:(Domain.name t.guest)
      ~op:"Xen_netio.guest_transmit" "frame of %d bytes exceeds the page" len;
  (* frontend: stage the frame in a granted guest page and push a request
     on the I/O channel; the notifying hypercall is sent only when the
     ring holds [batch] requests (or at the next explicit flush) — or, in
     polling mode, never: the stored sequence number is the signal *)
  (* quota gate at the very top of the frontend: a throttled frame costs
     (almost) nothing — the guest's credit check happens before the skb
     is even built, so dom0 and Xen never see it, which is what keeps a
     hostile neighbour from taxing the victim *)
  (match t.quota with
  | Some q -> Quota.take q ~domain:t.guest Quota.Notifications
  | None -> ());
  charge_guest t costs.Sys_costs.netfront;
  let slots = Array.length t.tx_pages in
  (match t.doorbell with
  | Some db when Ring.length t.tx_staged >= slots ->
      (* ring full: the frontend stalls until the backend polls it *)
      if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.ring_full";
      poll_tx t db
  | _ -> ());
  let page, gref = t.tx_pages.(t.tx_prod mod slots) in
  t.tx_prod <- t.tx_prod + 1;
  let gspace = Domain.space t.guest in
  Td_mem.Addr_space.write_string gspace page hdr ~off:0 ~len:hlen;
  Td_mem.Addr_space.write_string gspace (page + hlen) payload ~off:0
    ~len:(String.length payload);
  Hypervisor.charge_xen_for t.hyp ~domain:t.guest costs.Sys_costs.io_channel;
  Ring.push t.tx_staged gref page len (now t);
  t.tx_staged_total <- t.tx_staged_total + 1;
  match t.doorbell with
  | Some db when db.tx.mode = Polling ->
      (* doorbell kicks are rate-limited gracefully: a dry bucket skips
         the store, and the consumer's leftover check (staged queue
         non-empty) still drains the frame on the next poll *)
      if
        match t.quota with
        | Some q -> Quota.try_take q ~domain:t.guest Quota.Doorbells
        | None -> true
      then
        ring_doorbell t db.tx ~space:(Domain.space t.guest)
          ~vaddr:(db.page + tx_off) ~charge:charge_guest;
      note_suppressed t db.tx ~metric:"netio.suppressed_hypercalls"
  | _ ->
      if Ring.length t.tx_staged >= t.batch then flush_tx t
      else
        Hypervisor.charge_xen_for t.hyp ~domain:t.guest
          costs.Sys_costs.notify_coalesce

let post_rx_buffers t n =
  if t.closed then
    Guest_fault.fail ~domain:(Domain.name t.guest)
      ~op:"Xen_netio.post_rx_buffers" "channel closed";
  let gspace = Domain.space t.guest in
  for _ = 1 to n do
    let page, r = grant_guest_page gspace t.grants in
    Ring.push t.rx_posted r page 0 0
  done

let rx_buffers_posted t = Ring.length t.rx_posted

(* One virtual interrupt announces every copied-in frame: the frontend
   handler walks the completions in order, handing each frame to the guest
   stack and re-posting its buffer. The handler is the channel's one
   [rx_drain], told to take exactly the frames staged now. A masked guest
   defers the handler, and an unmasked virq may run before it, so a
   deferred batch leaves the ring as a snapshot of its own. *)
let flush_rx t =
  if not (Ring.is_empty t.rx_staged) then begin
    t.flush_count <- t.flush_count + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.flush";
    (match t.doorbell with
    | Some db ->
        db.rx.window_kicks <- db.rx.window_kicks + 1;
        db.rx.since_notify <- 0
    | None -> ());
    let n = Ring.length t.rx_staged in
    if Domain.interrupts_masked t.guest then begin
      let batch = Ring.create () in
      for _ = 1 to n do
        let i = Ring.pop t.rx_staged in
        let b = t.rx_staged.Ring.buf in
        Ring.push batch b.(i) b.(i + 1) b.(i + 2) b.(i + 3)
      done;
      Hypervisor.send_virq t.hyp t.guest (fun () -> frontend_deliver t batch n)
    end
    else begin
      t.rx_budget <- n;
      Hypervisor.send_virq t.hyp t.guest t.rx_drain
    end
  end

let poll_rx t db =
  db.rx.polls <- db.rx.polls + 1;
  charge_guest t (Hypervisor.costs t.hyp).Sys_costs.doorbell_poll;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.doorbell_polls";
  let seq =
    Td_mem.Addr_space.read (Domain.space t.guest)
      (db.page + rx_off) Td_misa.Width.W32
  in
  if seq <> db.rx.seen || not (Ring.is_empty t.rx_staged) then begin
    db.rx.seen <- seq;
    frontend_drain_rx t ~budget:db.cfg.poll_budget
  end

(* a delivery denied by the rx or grant-copy quota is dropped here, at
   the netback boundary, before the expensive copy: the wire has no one
   to fault to, so the frame is counted and freed — never an exception
   out of the rx path (which would read as a driver abort upstream) *)
let rx_throttle_drop t skb =
  t.rx_throttled <- t.rx_throttled + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "netio.rx_throttled";
    Td_obs.Trace.emit (Td_obs.Trace.Nic_drop { reason = "rx quota throttled" })
  end;
  Skb.free_at t.kmem (Domain.space t.dom0) skb

let deliver_to_guest t skb =
  let space = Domain.space t.dom0 in
  let costs = Hypervisor.costs t.hyp in
  charge_dom0 t (costs.Sys_costs.bridge + costs.Sys_costs.netback);
  if Ring.is_empty t.rx_posted then begin
    t.rx_dropped <- t.rx_dropped + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "netio.rx_dropped";
      Td_obs.Trace.emit
        (Td_obs.Trace.Nic_drop { reason = "no rx buffer posted" })
    end;
    Skb.free_at t.kmem space skb
  end
  else if
    match t.quota with
    | Some q ->
        not (Quota.try_take q ~domain:t.guest Quota.Rx_deliveries)
    | None -> false
  then rx_throttle_drop t skb
  else begin
    let i = Ring.pop t.rx_posted in
    let gref = t.rx_posted.Ring.buf.(i) and gvaddr = t.rx_posted.Ring.buf.(i + 1) in
    let len = Skb.len_at space skb in
    (* hypervisor-mediated copy from the sk_buff straight into the
       guest's granted frame; a dry grant-copy byte bucket re-posts the
       untouched buffer and drops *)
    match
      Grant_table.copy_mem_to t.grants ~hyp:t.hyp gref ~offset:0
        ~space ~addr:(Skb.data_at space skb) ~len
    with
    | exception Quota.Quota_exceeded _ ->
        Ring.push t.rx_posted gref gvaddr 0 0;
        rx_throttle_drop t skb
    | () -> (
        Hypervisor.charge_xen_for t.hyp ~domain:t.guest
          costs.Sys_costs.io_channel;
        Skb.free_at t.kmem space skb;
        Ring.push t.rx_staged gref gvaddr len (now t);
        t.rx_staged_total <- t.rx_staged_total + 1;
        match t.doorbell with
        | Some db when db.rx.mode = Polling ->
            (* rx doorbell is dom0-produced service work, never throttled —
               consumer-side paths must always make progress (teardown
               loops) *)
            ring_doorbell t db.rx ~space:(Domain.space t.dom0)
              ~vaddr:(db.dom0_vaddr + rx_off) ~charge:charge_dom0;
            note_suppressed t db.rx ~metric:"netio.suppressed_virqs"
        | _ ->
            if Ring.length t.rx_staged >= t.batch then flush_rx t
            else
              Hypervisor.charge_xen_for t.hyp ~domain:t.guest
                costs.Sys_costs.notify_coalesce)
  end

let flush t =
  flush_tx t;
  flush_rx t

(* Mode-appropriate pump step: in interrupt mode force the pending batch
   out (the historical flush); in polling mode visit the doorbell and
   drain up to the poll budget. *)
let service t =
  match t.doorbell with
  | None -> flush t
  | Some db ->
      (match db.tx.mode with
      | Interrupt -> flush_tx t
      | Polling -> poll_tx t db);
      (match db.rx.mode with
      | Interrupt -> flush_rx t
      | Polling -> poll_rx t db)

let switch_mode d to_mode =
  if d.mode <> to_mode then begin
    d.mode <- to_mode;
    d.mode_switches <- d.mode_switches + 1;
    d.idle_windows <- 0;
    d.since_notify <- 0;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "netio.mode_switches";
      Td_obs.Trace.emit
        (Td_obs.Trace.Custom
           {
             name = Printf.sprintf "netio.%s_mode" d.dir_name;
             value = (match to_mode with Interrupt -> 0 | Polling -> 1);
           })
    end
  end

(* NAPI-style window decision, once per timer tick and per direction:
   enough notification boundaries in the window pushes the direction into
   polling; [idle_hysteresis] consecutive empty windows drops it back.
   With poll_entry_kicks <= 0 (always-poll) the mode is pinned. *)
let step_window db d =
  (match d.mode with
  | Interrupt ->
      if db.cfg.poll_entry_kicks > 0 && d.window_kicks >= db.cfg.poll_entry_kicks
      then switch_mode d Polling
  | Polling ->
      if db.cfg.poll_entry_kicks > 0 then
        if d.window_kicks = 0 then begin
          d.idle_windows <- d.idle_windows + 1;
          if d.idle_windows >= db.cfg.idle_hysteresis then
            switch_mode d Interrupt
        end
        else d.idle_windows <- 0);
  d.window_kicks <- 0

let on_tick t =
  service t;
  match t.doorbell with
  | None -> ()
  | Some db ->
      step_window db db.tx;
      step_window db db.rx

(* Channel teardown: a partial batch staged when the guest quiesces must
   still reach the wire (tx) or the guest stack (rx), whatever mode each
   direction is in. Idempotent; loops because polling drains are
   budget-limited. *)
let teardown t =
  match t.doorbell with
  | None -> flush t
  | Some db ->
      while
        not (Ring.is_empty t.tx_staged && Ring.is_empty t.rx_staged)
      do
        if not (Ring.is_empty t.tx_staged) then
          (match db.tx.mode with
          | Interrupt -> flush_tx t
          | Polling -> poll_tx t db);
        if not (Ring.is_empty t.rx_staged) then
          match db.rx.mode with
          | Interrupt -> flush_rx t
          | Polling -> poll_rx t db
      done

(* Channel destruction: drain, then release every dom0-side mapping and
   guest-side grant the channel ever took — after [close] the grant table
   holds nothing and the doorbell window page is free for reuse. A closed
   channel rejects new frontend work (typed, attributed) and its counters
   stay readable. Idempotent. *)
let close t =
  if not t.closed then begin
    teardown t;
    (match t.doorbell with
    | Some db ->
        Grant_table.unmap t.grants ~hyp:t.hyp ~from:t.dom0
          ~at_vpage:(Td_mem.Layout.page_of db.dom0_vaddr)
          db.db_gref;
        Grant_table.revoke t.grants db.db_gref
    | None -> ());
    Array.iter (fun (_page, gref) -> Grant_table.revoke t.grants gref) t.tx_pages;
    while not (Ring.is_empty t.rx_posted) do
      Grant_table.revoke t.grants t.rx_posted.Ring.buf.(Ring.pop t.rx_posted)
    done;
    t.closed <- true
  end

let closed t = t.closed
let grants_active t = Grant_table.active t.grants

let staged t = Ring.length t.tx_staged + Ring.length t.rx_staged
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let rx_dropped t = t.rx_dropped
let rx_throttled t = t.rx_throttled
let flushes t = t.flush_count
let tx_staged_total t = t.tx_staged_total

(* Frame conservation: everything staged was either completed or is still
   queued — nothing silently dropped between frontend and backend. *)
let conserved t =
  t.tx_staged_total = t.tx_count + Ring.length t.tx_staged
  && t.rx_staged_total = t.rx_count + Ring.length t.rx_staged

let doorbell_vaddr t = Option.map (fun db -> db.page) t.doorbell

let mode_of t dir =
  match t.doorbell with
  | None -> Interrupt
  | Some db -> (match dir with `Tx -> db.tx.mode | `Rx -> db.rx.mode)

let tx_mode t = mode_of t `Tx
let rx_mode t = mode_of t `Rx

let dir_stat t f =
  match t.doorbell with None -> 0 | Some db -> f db

let doorbell_polls t = dir_stat t (fun db -> db.tx.polls + db.rx.polls)
let suppressed_hypercalls t = dir_stat t (fun db -> db.tx.suppressed)
let suppressed_virqs t = dir_stat t (fun db -> db.rx.suppressed)

let mode_switches t =
  dir_stat t (fun db -> db.tx.mode_switches + db.rx.mode_switches)
