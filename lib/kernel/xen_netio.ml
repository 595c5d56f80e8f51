open Td_xen

type mode = Interrupt | Polling

type notify =
  | Interrupts of { batch : int }
  | Adaptive of { batch : int; entry_kicks : int; poll_budget : int }
  | Always_poll of { batch : int; poll_budget : int }

(* consecutive empty tick windows before an adaptive direction falls
   back to interrupts *)
let idle_hysteresis = 3

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

(* How a direction's producer notifies its consumer at a batch boundary:
   tx hypercalls and the backend drains every staged request; rx raises a
   virq whose handler delivers every completion staged now. *)
type kick = Hypercall | Virq

(* One direction of the channel: the producer stages frames on [staged]
   and either kicks the consumer at each [batch] boundary (Interrupt) or
   bumps its sequence word in the shared doorbell page, which the
   consumer compares against [seen] when it polls (Polling). [drain] is
   the consumer's work on up to [budget] frames, built once per channel
   and run in the consumer's domain. A channel without a doorbell page
   never leaves Interrupt, so its word addresses are never touched. *)
type dir = {
  producer : Domain.t;  (** writes the word, pays for the write *)
  consumer : Domain.t;  (** drains, polls and pays for the poll *)
  kick : kick;
  producer_word : int;  (** the sequence word in the producer's space *)
  consumer_word : int;  (** the same word in the consumer's space *)
  staged : Ring.t;
      (** frames awaiting the consumer; the stamp is the simulated clock
          at staging, for the per-direction latency samples *)
  mutable staged_total : int;
  mutable completed : int;
  mutable dropped : int;  (** popped, but raised before completing *)
  mutable budget : int;  (** frames the next [drain] takes *)
  mutable drain : unit -> unit;
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

type t = {
  hyp : Hypervisor.t;
  dom0 : Domain.t;
  guest : Domain.t;
  kmem : Kmem.t;
  driver_tx : int -> unit;  (** takes the sk_buff's dom0 address *)
  quota : Quota.state option;
      (** checks notifications, doorbells and rx deliveries; also handed
          to [grants]. The driver domain is exempt, so only the guest's
          doorbell writes are rate-limited: rx doorbells are dom0 service
          work, never throttled. *)
  grants : Grant_table.t;
  notify : notify;
  batch : int;  (** notifications coalesced per kick (1 = every frame) *)
  poll_budget : int;  (** frames one doorbell visit drains *)
  tx_pages : (int * Grant_table.grant_ref) array;
      (** granted guest pages used to stage transmitted frames; sized
          [batch] without a doorbell, wider with one so budget-limited
          drains never reuse a still-staged slot *)
  mutable tx_prod : int;  (** producer cursor into [tx_pages] *)
  stall_at : int;
      (** staged tx frames at which the frontend stalls on a backend
          poll: the page count with a doorbell; never without one, where
          every batch boundary drains the whole ring *)
  rx_posted : Ring.t;  (** empty receive buffers (grant, guest vaddr) *)
  mutable guest_rx : int -> int -> unit;
  tx : dir;
  rx : dir;
  mutable rx_dropped : int;
  mutable rx_throttled : int;  (** deliveries denied by the rx quota *)
  mutable flush_count : int;
  doorbell : Grant_table.grant_ref option;
      (** the shared doorbell page's grant; the page sits at the tx
          word's addresses, in the guest and in dom0 *)
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

(* netback's part between the grant map and the unmap: rebuild a dom0
   sk_buff from the mapped page and hand its address to the NIC driver,
   which owns it once [driver_tx] returns; on a raise netback still owns
   it, so it frees it before the exception goes on *)
let forward t costs vaddr len =
  charge_dom0 t costs.Sys_costs.netback;
  let space = Domain.space t.dom0 in
  let skb = Skb.alloc_at t.kmem space ~size:(len + 64) in
  match
    Skb.put_from_at space skb ~src:vaddr ~len;
    charge_dom0 t costs.Sys_costs.bridge;
    t.driver_tx skb
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Skb.free_at t.kmem space skb;
      Printexc.raise_with_backtrace e bt

(* A popped frame that raised before completing: counted as dropped, so
   conservation still balances, and the exception goes on up. *)
let drop_tx t e bt =
  t.tx.dropped <- t.tx.dropped + 1;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.tx_dropped";
  Printexc.raise_with_backtrace e bt

(* The backend's per-frame work, always run in dom0: map the granted
   frame, rebuild a dom0 sk_buff, hand it to the NIC driver, unmap. A
   map, alloc or driver exception unmaps what was mapped (the window page
   is free for the next frame) and drops the frame. *)
let backend_tx_one t costs =
  let ring = t.tx.staged in
  let i = Ring.pop ring in
  let b = ring.Ring.buf in
  let gref = b.(i) and len = b.(i + 2) and stamp = b.(i + 3) in
  let vaddr = grant_map_base in
  let at_vpage = Td_mem.Layout.page_of vaddr in
  match Grant_table.map t.grants ~hyp:t.hyp ~into:t.dom0 ~at_vpage gref with
  | exception e -> drop_tx t e (Printexc.get_raw_backtrace ())
  | () -> (
      match forward t costs vaddr len with
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Grant_table.unmap t.grants ~hyp:t.hyp ~from:t.dom0 ~at_vpage gref;
          drop_tx t e bt
      | () ->
          Grant_table.unmap t.grants ~hyp:t.hyp ~from:t.dom0 ~at_vpage gref;
          t.tx.completed <- t.tx.completed + 1;
          Ledger.note_latency (Hypervisor.ledger t.hyp) `Tx (now t - stamp);
          if Td_obs.Control.enabled () then begin
            Td_obs.Metrics.bump "netio.tx";
            Td_obs.Trace.emit (Td_obs.Trace.Netio_tx { bytes = len })
          end)

(* tx [drain]: forward up to [budget] staged frames, in dom0 *)
let backend_drain t =
  let costs = Hypervisor.costs t.hyp in
  for _ = 1 to Int.min t.tx.budget (Ring.length t.tx.staged) do
    backend_tx_one t costs
  done

(* The frontend's work, run in the guest: for up to [budget] completions
   at the head of [ring], hand the frame in the granted buffer to the
   stack and re-post the buffer. *)
let frontend_deliver t ring budget =
  let costs = Hypervisor.costs t.hyp in
  for _ = 1 to Int.min budget (Ring.length ring) do
    let i = Ring.pop ring in
    let b = ring.Ring.buf in
    let gref = b.(i) and gvaddr = b.(i + 1) and len = b.(i + 2) in
    let stamp = b.(i + 3) in
    charge_guest t costs.Sys_costs.netfront;
    t.rx.completed <- t.rx.completed + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "netio.rx";
      Td_obs.Trace.emit (Td_obs.Trace.Netio_rx { bytes = len })
    end;
    t.guest_rx gvaddr len;
    Ledger.note_latency (Hypervisor.ledger t.hyp) `Rx (now t - stamp);
    Ring.push t.rx_posted gref gvaddr 0 0
  done

let make_dir ~producer ~consumer ~kick ~producer_word ~consumer_word ~mode =
  {
    producer;
    consumer;
    kick;
    producer_word;
    consumer_word;
    staged = Ring.create ();
    staged_total = 0;
    completed = 0;
    dropped = 0;
    budget = 0;
    drain = nop;
    mode;
    seq = 0;
    seen = 0;
    window_kicks = 0;
    idle_windows = 0;
    since_notify = 0;
    polls = 0;
    suppressed = 0;
    mode_switches = 0;
  }

let create ?(notify = Interrupts { batch = 1 }) ?quota ~hyp ~dom0 ~guest ~kmem
    ~driver_tx () =
  let batch, poll_budget, initial =
    match notify with
    | Interrupts { batch } -> (batch, max_int, Interrupt)
    | Adaptive { batch; entry_kicks; poll_budget } ->
        if entry_kicks < 1 then
          invalid_arg "Xen_netio: entry_kicks must be >= 1";
        (batch, poll_budget, Interrupt)
    | Always_poll { batch; poll_budget } -> (batch, poll_budget, Polling)
  in
  if batch < 1 then invalid_arg "Xen_netio: batch must be >= 1";
  if poll_budget < 1 then invalid_arg "Xen_netio: poll_budget must be >= 1";
  let gspace = Domain.space guest in
  let grants = Grant_table.create ?quota ~owner:guest () in
  (* Without a doorbell the staging ring is exactly [batch] pages and the
     producer cursor walks it in lockstep with the (always fully drained)
     staged queue. With one, drains are budget-limited, so the ring is
     widened to keep the cursor from lapping frames a partial drain left
     behind. *)
  let slots =
    match notify with
    | Interrupts _ -> batch
    | Adaptive _ | Always_poll _ -> Int.max batch (2 * poll_budget)
  in
  let tx_pages = Array.init slots (fun _ -> grant_guest_page gspace grants) in
  let gword, dom0_word, doorbell =
    match notify with
    | Interrupts _ -> (0, 0, None)
    | Adaptive _ | Always_poll _ ->
        let gvaddr, gref = grant_guest_page gspace grants in
        Td_mem.Addr_space.write gspace (gvaddr + tx_off) Td_misa.Width.W32 0;
        Td_mem.Addr_space.write gspace (gvaddr + rx_off) Td_misa.Width.W32 0;
        let dom0_vaddr = alloc_doorbell_vaddr ~guest (Domain.space dom0) in
        Grant_table.map grants ~hyp ~into:dom0
          ~at_vpage:(Td_mem.Layout.page_of dom0_vaddr)
          gref;
        (gvaddr, dom0_vaddr, Some gref)
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
      notify;
      batch;
      poll_budget;
      tx_pages;
      tx_prod = 0;
      stall_at = (match doorbell with Some _ -> slots | None -> max_int);
      rx_posted = Ring.create ();
      guest_rx = (fun _ _ -> ());
      tx =
        make_dir ~producer:guest ~consumer:dom0 ~kick:Hypercall
          ~producer_word:(gword + tx_off) ~consumer_word:(dom0_word + tx_off)
          ~mode:initial;
      rx =
        make_dir ~producer:dom0 ~consumer:guest ~kick:Virq
          ~producer_word:(dom0_word + rx_off) ~consumer_word:(gword + rx_off)
          ~mode:initial;
      rx_dropped = 0;
      rx_throttled = 0;
      flush_count = 0;
      doorbell;
      closed = false;
    }
  in
  t.tx.drain <- (fun () -> backend_drain t);
  t.rx.drain <- (fun () -> frontend_deliver t t.rx.staged t.rx.budget);
  t

let set_guest_rx t fn = t.guest_rx <- fn

(* the consumer takes up to [budget] staged frames, in its own domain *)
let drain t d ~budget =
  if not (Ring.is_empty d.staged) then begin
    d.budget <- budget;
    Hypervisor.run_in t.hyp d.consumer d.drain
  end

(* One virtual interrupt announces every copied-in frame: the frontend
   handler walks the completions in order, handing each frame to the guest
   stack and re-posting its buffer. The handler is the channel's one rx
   [drain], told to take exactly the frames staged now. A masked guest
   defers the handler, and an unmasked virq may run before it, so a
   deferred batch leaves the ring as a snapshot of its own. *)
let send_virq t d =
  let n = Ring.length d.staged in
  if Domain.interrupts_masked t.guest then begin
    let batch = Ring.create () in
    for _ = 1 to n do
      let i = Ring.pop d.staged in
      let b = d.staged.Ring.buf in
      Ring.push batch b.(i) b.(i + 1) b.(i + 2) b.(i + 3)
    done;
    Hypervisor.send_virq t.hyp t.guest (fun () -> frontend_deliver t batch n)
  end
  else begin
    d.budget <- n;
    Hypervisor.send_virq t.hyp t.guest d.drain
  end

(* A batch boundary in interrupt mode: notify the consumer of everything
   staged. A tx kick is one hypercall after which the backend maps,
   forwards and unmaps each granted frame in ring order. *)
let flush_dir t d =
  if not (Ring.is_empty d.staged) then begin
    t.flush_count <- t.flush_count + 1;
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.flush";
    d.window_kicks <- d.window_kicks + 1;
    d.since_notify <- 0;
    match d.kick with
    | Hypercall ->
        Hypervisor.hypercall t.hyp ();
        drain t d ~budget:max_int
    | Virq -> send_virq t d
  end

(* Producer side of a doorbell: bump the sequence number and store it in
   the shared page — a cache-line write in place of a hypercall/virq. *)
let ring_doorbell t d =
  d.seq <- (d.seq + 1) land 0xFFFF_FFFF;
  Td_mem.Addr_space.write (Domain.space d.producer) d.producer_word
    Td_misa.Width.W32 d.seq;
  Hypervisor.charge_domain t.hyp d.producer
    (Hypervisor.costs t.hyp).Sys_costs.doorbell_write;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.doorbell_writes"

(* Consumer side: load the shared sequence word; on any advance (or
   leftovers from a budget-limited previous visit) drain up to the poll
   budget. Charged [doorbell_poll] whether or not there is work — the
   price of polling, and why idle channels fall back to interrupts. *)
let poll t d =
  d.polls <- d.polls + 1;
  Hypervisor.charge_domain t.hyp d.consumer
    (Hypervisor.costs t.hyp).Sys_costs.doorbell_poll;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.doorbell_polls";
  let seq =
    Td_mem.Addr_space.read (Domain.space d.consumer) d.consumer_word
      Td_misa.Width.W32
  in
  if seq <> d.seen || not (Ring.is_empty d.staged) then begin
    d.seen <- seq;
    drain t d ~budget:t.poll_budget
  end

(* A frame was just staged on [d]. In interrupt mode the notification is
   sent once the ring holds [batch] frames (or at the next flush); in
   polling mode the stored sequence number is the signal, and the
   boundary coalescing would have kicked at is counted as suppressed. A
   dry doorbell bucket skips the store: the consumer's leftover check
   still drains the frame on its next poll. *)
let staged_one t d =
  match d.mode with
  | Interrupt ->
      if Ring.length d.staged >= t.batch then flush_dir t d
      else
        Hypervisor.charge_xen_for t.hyp ~domain:t.guest
          (Hypervisor.costs t.hyp).Sys_costs.notify_coalesce
  | Polling ->
      if
        match t.quota with
        | Some q -> Quota.try_take q ~domain:d.producer Quota.Doorbells
        | None -> true
      then ring_doorbell t d;
      d.since_notify <- d.since_notify + 1;
      if d.since_notify >= t.batch then begin
        d.since_notify <- 0;
        d.suppressed <- d.suppressed + 1;
        d.window_kicks <- d.window_kicks + 1;
        if Td_obs.Control.enabled () then
          match d.kick with
          | Hypercall -> Td_obs.Metrics.bump "netio.suppressed_hypercalls"
          | Virq -> Td_obs.Metrics.bump "netio.suppressed_virqs"
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
  (* quota gate at the very top of the frontend: a throttled frame costs
     (almost) nothing — the guest's credit check happens before the skb
     is even built, so dom0 and Xen never see it, which is what keeps a
     hostile neighbour from taxing the victim *)
  (match t.quota with
  | Some q -> Quota.take q ~domain:t.guest Quota.Notifications
  | None -> ());
  charge_guest t costs.Sys_costs.netfront;
  let d = t.tx in
  if Ring.length d.staged >= t.stall_at then begin
    (* ring full: the frontend stalls until the backend polls it *)
    if Td_obs.Control.enabled () then Td_obs.Metrics.bump "netio.ring_full";
    poll t d
  end;
  (* frontend: stage the frame in a granted guest page and push a request
     on the I/O channel *)
  let page, gref = t.tx_pages.(t.tx_prod mod Array.length t.tx_pages) in
  t.tx_prod <- t.tx_prod + 1;
  let gspace = Domain.space t.guest in
  Td_mem.Addr_space.write_string gspace page hdr ~off:0 ~len:hlen;
  Td_mem.Addr_space.write_string gspace (page + hlen) payload ~off:0
    ~len:(String.length payload);
  Hypervisor.charge_xen_for t.hyp ~domain:t.guest costs.Sys_costs.io_channel;
  Ring.push d.staged gref page len (now t);
  d.staged_total <- d.staged_total + 1;
  staged_one t d

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

(* a delivery denied by the rx or grant-copy quota is dropped here, at
   the netback boundary, before the expensive copy: the wire has no one
   to fault to, so the frame is counted and freed — never an exception
   out of the rx path (which would read as a driver abort upstream) *)
let rx_throttle_drop t space skb =
  t.rx_throttled <- t.rx_throttled + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "netio.rx_throttled";
    Td_obs.Trace.emit (Td_obs.Trace.Nic_drop { reason = "rx quota throttled" })
  end;
  Skb.free_at t.kmem space skb

let deliver_to_guest t skb =
  let costs = Hypervisor.costs t.hyp in
  let space = Domain.space t.dom0 in
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
  then rx_throttle_drop t space skb
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
        rx_throttle_drop t space skb
    | () ->
        Hypervisor.charge_xen_for t.hyp ~domain:t.guest
          costs.Sys_costs.io_channel;
        Skb.free_at t.kmem space skb;
        Ring.push t.rx.staged gref gvaddr len (now t);
        t.rx.staged_total <- t.rx.staged_total + 1;
        staged_one t t.rx
  end

let flush t =
  flush_dir t t.tx;
  flush_dir t t.rx

(* Mode-appropriate pump step: in interrupt mode force the pending batch
   out; in polling mode visit the doorbell and drain up to the poll
   budget. *)
let service_dir t d =
  match d.mode with Interrupt -> flush_dir t d | Polling -> poll t d

let service t =
  service_dir t t.tx;
  service_dir t t.rx

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
             name =
               (match d.kick with
               | Hypercall -> "netio.tx_mode"
               | Virq -> "netio.rx_mode");
             value = (match to_mode with Interrupt -> 0 | Polling -> 1);
           })
    end
  end

(* NAPI-style window decision, once per timer tick and per direction:
   enough notification boundaries in the window pushes an adaptive
   direction into polling; [idle_hysteresis] consecutive empty windows
   drop it back. The other policies pin the mode. *)
let step_window t d =
  (match (t.notify, d.mode) with
  | Adaptive { entry_kicks; _ }, Interrupt ->
      if d.window_kicks >= entry_kicks then switch_mode d Polling
  | Adaptive _, Polling ->
      if d.window_kicks = 0 then begin
        d.idle_windows <- d.idle_windows + 1;
        if d.idle_windows >= idle_hysteresis then switch_mode d Interrupt
      end
      else d.idle_windows <- 0
  | (Interrupts _ | Always_poll _), _ -> ());
  d.window_kicks <- 0

let on_tick t =
  service t;
  step_window t t.tx;
  step_window t t.rx

(* Channel teardown: a partial batch staged when the guest quiesces must
   still reach the wire (tx) or the guest stack (rx), whatever mode each
   direction is in. Idempotent; loops because polling drains are
   budget-limited. *)
let teardown t =
  while not (Ring.is_empty t.tx.staged && Ring.is_empty t.rx.staged) do
    if not (Ring.is_empty t.tx.staged) then service_dir t t.tx;
    if not (Ring.is_empty t.rx.staged) then service_dir t t.rx
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
    | Some gref ->
        Grant_table.unmap t.grants ~hyp:t.hyp ~from:t.dom0
          ~at_vpage:(Td_mem.Layout.page_of t.tx.consumer_word)
          gref;
        Grant_table.revoke t.grants gref
    | None -> ());
    Array.iter (fun (_page, gref) -> Grant_table.revoke t.grants gref) t.tx_pages;
    while not (Ring.is_empty t.rx_posted) do
      Grant_table.revoke t.grants t.rx_posted.Ring.buf.(Ring.pop t.rx_posted)
    done;
    t.closed <- true
  end

let closed t = t.closed
let grants_active t = Grant_table.active t.grants
let staged t = Ring.length t.tx.staged + Ring.length t.rx.staged
let tx_count t = t.tx.completed
let tx_dropped t = t.tx.dropped
let rx_count t = t.rx.completed
let rx_dropped t = t.rx_dropped
let rx_throttled t = t.rx_throttled
let flushes t = t.flush_count
let tx_staged_total t = t.tx.staged_total

(* Frame conservation: everything staged was either completed, counted
   dropped, or is still queued — nothing silently lost between frontend
   and backend. *)
let conserved t =
  let ok d = d.staged_total = d.completed + d.dropped + Ring.length d.staged in
  ok t.tx && ok t.rx

let doorbell_vaddr t = Option.map (fun _ -> t.tx.producer_word) t.doorbell
let tx_mode t = t.tx.mode
let rx_mode t = t.rx.mode
let doorbell_polls t = t.tx.polls + t.rx.polls
let suppressed_hypercalls t = t.tx.suppressed
let suppressed_virqs t = t.rx.suppressed
let mode_switches t = t.tx.mode_switches + t.rx.mode_switches
