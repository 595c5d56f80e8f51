type t = {
  dma : Td_mem.Addr_space.t;
  mac : string;
  tx_frame : bytes -> int -> unit;
  fault_domain : unit -> string option;
      (** attributes guest-reachable faults (ring contents are guest
          memory when the device is driven by a domU) *)
  fault : Td_fault.Engine.state option;
      (** injects stuck DMA, lost IRQs and corrupt rx; counts the rx
          frames it drops *)
  ring_entries : int;
  regs : int array;  (** 1024 32-bit registers = one 4 KiB page *)
  mutable irq_handler : (unit -> unit) option;
  mutable itr_pending : int;  (** cause events since the last assertion *)
  mutable tx_buf : bytes;
      (** DMA buffer the frame is assembled in across descriptors; grows
          by doubling and is reused for every frame *)
  mutable tx_len : int;  (** bytes of [tx_buf] assembled so far *)
  mutable tx_count : int;
  mutable rx_count : int;
  mutable dropped : int;
  mutable dma_stuck : bool;  (** injected: TX DMA engine wedged *)
}

let mmio_vaddr i = 0xC0F0_0000 + (i * Td_mem.Layout.page_size)
let link_rate_bps = 1_000_000_000

let effective_rate_bps ~packet_bytes =
  (* 8B preamble + 12B inter-frame gap + 4B CRC per frame *)
  let overhead = 24 in
  float_of_int link_rate_bps
  *. (float_of_int packet_bytes /. float_of_int (packet_bytes + overhead))

(* register offsets and descriptor contents are guest-reachable input
   when a domU drives the model directly: validation failures are typed,
   attributed faults, not process-killing invalid_args *)
let guest_err t ~op fmt =
  Td_xen.Guest_fault.fail ?domain:(t.fault_domain ()) ~op fmt

let word t off =
  if off land 3 = 0 && off >= 0 && off < 4096 then off / 4
  else guest_err t ~op:"E1000_dev.mmio" "bad register offset 0x%x" off

let get t off = t.regs.(word t off)
let set t off v = t.regs.(word t off) <- v land 0xFFFFFFFF

(* descriptor length cap: the register field is 16 bits on the chip; an
   unvalidated 32-bit value from guest memory must not size an allocation *)
let max_desc_len = 16384

let create ?(ring_entries = 256) ?(fault_domain = fun () -> None) ?fault ~dma
    ~mac ~tx_frame () =
  if String.length mac <> 6 then invalid_arg "E1000_dev.create: mac must be 6 bytes";
  let t =
    {
      dma;
      mac;
      tx_frame;
      fault_domain;
      fault;
      ring_entries;
      regs = Array.make 1024 0;
      irq_handler = None;
      itr_pending = 0;
      tx_buf = Bytes.create 2048;
      tx_len = 0;
      tx_count = 0;
      rx_count = 0;
      dropped = 0;
      dma_stuck = false;
    }
  in
  set t Regs.status 0x3;
  (* link up, full duplex *)
  let b i = Char.code mac.[i] in
  set t Regs.ral (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24));
  set t Regs.rah (b 4 lor (b 5 lsl 8) lor 0x8000_0000 (* address valid *));
  t

let set_irq_handler t fn = t.irq_handler <- Some fn
let mac t = t.mac
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let dropped t = t.dropped
let dma_stuck t = t.dma_stuck

let irq_pending t = get t Regs.icr land get t Regs.ims <> 0

let fires t site =
  match t.fault with Some e -> Td_fault.Engine.fire e site | None -> false

let raise_cause t cause =
  set t Regs.icr (get t Regs.icr lor cause);
  if get t Regs.icr land get t Regs.ims <> 0 then begin
    t.itr_pending <- t.itr_pending + 1;
    let throttle = get t Regs.itr in
    if throttle = 0 || t.itr_pending >= throttle then begin
      t.itr_pending <- 0;
      (* fault-injection site: the assertion edge is dropped on the
         floor — the cause stays latched in ICR ([irq_pending]), so a
         poll can still find and service it, as real drivers do *)
      if fires t Td_fault.Nic_lost_irq then ()
      else begin
        Td_obs.Metrics.bump "nic.irq";
        match t.irq_handler with Some fn -> fn () | None -> ()
      end
    end
  end

(* --- DMA helpers (bus address = dom0 kernel virtual address) --- *)

let dma_read32 t addr = Td_mem.Addr_space.read t.dma addr Td_misa.Width.W32
let dma_write32 t addr v = Td_mem.Addr_space.write t.dma addr Td_misa.Width.W32 v

let desc_addr base i = base + (i * Regs.desc_bytes)

(* descriptors in the ring whose length register is [len_reg], capped at
   the device's ring size *)
let ring_size t len_reg =
  Int.min t.ring_entries (Int.max 1 (get t len_reg / Regs.desc_bytes))

(* --- transmit path --- *)

(* Make room for [need] bytes in the frame buffer, keeping the bytes
   assembled so far. *)
let reserve t need =
  let buf = t.tx_buf in
  if need > Bytes.length buf then begin
    let cap = ref (Bytes.length buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grown = Bytes.create !cap in
    Bytes.blit buf 0 grown 0 t.tx_len;
    t.tx_buf <- grown
  end

let process_tx t =
  (* fault-injection site: the DMA engine wedges — doorbells are ignored
     until the supervisor resets the device, and the frames queued in
     the ring never reach the wire *)
  if (not t.dma_stuck) && fires t Td_fault.Nic_stuck_dma then
    t.dma_stuck <- true;
  if t.dma_stuck then ()
  else begin
  let base = get t Regs.tdbal in
  let tail = get t Regs.tdt in
  let entries = ring_size t Regs.tdlen in
  (* head/tail are guest-reachable ring state: an out-of-range cursor
     would index descriptors past the programmed ring *)
  if tail >= entries then
    guest_err t ~op:"E1000_dev.process_tx" "TDT %d outside ring of %d entries"
      tail entries;
  if get t Regs.tdh >= entries then
    guest_err t ~op:"E1000_dev.process_tx" "TDH %d outside ring of %d entries"
      (get t Regs.tdh) entries;
  let head = ref (get t Regs.tdh) in
  let any = ref false in
  (* a corrupted TDT (e.g. an injected bit-flip upstream of the doorbell
     write) may never equal any in-range head value: bound the walk to
     one full ring so the device cannot spin forever *)
  let budget = ref entries in
  while !head <> tail && !budget > 0 do
    decr budget;
    let d = desc_addr base !head in
    let buf, len, cmd =
      try
        ( dma_read32 t (d + Regs.d_buf),
          dma_read32 t (d + Regs.d_len),
          dma_read32 t (d + Regs.d_cmd) )
      with Td_mem.Addr_space.Page_fault { addr; _ } ->
        guest_err t ~op:"E1000_dev.process_tx"
          "descriptor %d DMA faulted at 0x%x" !head addr
    in
    if len > max_desc_len then
      guest_err t ~op:"E1000_dev.process_tx"
        "descriptor %d length %d exceeds %d" !head len max_desc_len;
    (* a fault leaves the assembled length alone, so the partial frame
       is exactly what it was before this descriptor *)
    let acc = t.tx_len in
    reserve t (acc + len);
    (try
       Td_mem.Addr_space.read_into t.dma buf t.tx_buf ~pos:acc ~len
     with Td_mem.Addr_space.Page_fault { addr; _ } ->
       guest_err t ~op:"E1000_dev.process_tx"
         "descriptor %d buffer DMA faulted at 0x%x" !head addr);
    t.tx_len <- acc + len;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump_by "nic.dma.read_bytes" len;
      Td_obs.Trace.emit (Td_obs.Trace.Nic_dma { dir = `Read; bytes = len })
    end;
    if cmd land Regs.cmd_eop <> 0 then begin
      let frame_bytes = t.tx_len in
      t.tx_frame t.tx_buf frame_bytes;
      t.tx_len <- 0;
      t.tx_count <- t.tx_count + 1;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "nic.tx.frames";
        Td_obs.Metrics.bump_by "nic.tx.bytes" frame_bytes;
        Td_obs.Hist.observe
          (Td_obs.Metrics.histogram "nic.tx.frame_bytes")
          frame_bytes;
        Td_obs.Trace.emit (Td_obs.Trace.Nic_tx { bytes = frame_bytes })
      end;
      set t Regs.gptc (get t Regs.gptc + 1)
    end;
    (try
       dma_write32 t (d + Regs.d_sta)
         (dma_read32 t (d + Regs.d_sta) lor Regs.sta_dd)
     with Td_mem.Addr_space.Page_fault { addr; _ } ->
       guest_err t ~op:"E1000_dev.process_tx"
         "descriptor %d status DMA faulted at 0x%x" !head addr);
    head := (!head + 1) mod entries;
    any := true
  done;
  set t Regs.tdh !head;
  if !any then raise_cause t Regs.icr_txdw
  end

(* --- receive path --- *)

let receive_sub t frame ~len:frame_len =
  let base = get t Regs.rdbal in
  let entries = ring_size t Regs.rdlen in
  let head = get t Regs.rdh in
  let tail = get t Regs.rdt in
  if head = tail || base = 0 then begin
    (* no free descriptors: missed packet *)
    t.dropped <- t.dropped + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "nic.rx.dropped";
      Td_obs.Trace.emit
        (Td_obs.Trace.Nic_drop { reason = "no free rx descriptor" })
    end;
    set t Regs.mpc (get t Regs.mpc + 1)
  end
  else if fires t Td_fault.Nic_corrupt_rx then begin
    (* fault-injection site: the descriptor is corrupted in flight — the
       device discards the frame as a bad packet and counts it missed *)
    t.dropped <- t.dropped + 1;
    Option.iter (fun e -> Td_fault.Engine.note_lost e 1) t.fault;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "nic.rx.dropped";
      Td_obs.Trace.emit
        (Td_obs.Trace.Nic_drop { reason = "injected corrupt rx descriptor" })
    end;
    set t Regs.mpc (get t Regs.mpc + 1)
  end
  else
    (* a descriptor pointing outside mapped memory drops the frame like a
       bad packet (the wire has no one to fault to) rather than letting
       an untyped Page_fault escape the device model *)
    match
      let d = desc_addr base head in
      let buf = dma_read32 t (d + Regs.d_buf) in
      Td_mem.Addr_space.write_string t.dma buf frame ~off:0 ~len:frame_len;
      dma_write32 t (d + Regs.d_len) frame_len;
      dma_write32 t (d + Regs.d_sta) (Regs.sta_dd lor Regs.sta_eop)
    with
    | () ->
        set t Regs.rdh ((head + 1) mod entries);
        t.rx_count <- t.rx_count + 1;
        if Td_obs.Control.enabled () then begin
          Td_obs.Metrics.bump "nic.rx.frames";
          Td_obs.Metrics.bump_by "nic.dma.write_bytes" frame_len;
          Td_obs.Trace.emit
            (Td_obs.Trace.Nic_dma { dir = `Write; bytes = frame_len });
          Td_obs.Trace.emit (Td_obs.Trace.Nic_rx { bytes = frame_len })
        end;
        set t Regs.gprc (get t Regs.gprc + 1);
        raise_cause t Regs.icr_rxt0
    | exception Td_mem.Addr_space.Page_fault _ ->
        t.dropped <- t.dropped + 1;
        if Td_obs.Control.enabled () then begin
          Td_obs.Metrics.bump "nic.rx.dropped";
          Td_obs.Trace.emit
            (Td_obs.Trace.Nic_drop { reason = "rx descriptor DMA fault" })
        end;
        set t Regs.mpc (get t Regs.mpc + 1)

let receive_frame t frame = receive_sub t frame ~len:(String.length frame)

(* --- supervisor reset --- *)

(* Frames still queued between TDH and TDT (wedged DMA, or an abort
   between descriptor writes and doorbell service): these are the
   in-flight frames a device reset discards. *)
let pending_tx_frames t =
  let frames = ref 0 in
  let base = get t Regs.tdbal in
  let entries = ring_size t Regs.tdlen in
  let tail = get t Regs.tdt in
  let head = ref (get t Regs.tdh) in
  let budget = ref entries in
  if base <> 0 then
    while !head <> tail && !budget > 0 do
      decr budget;
      (* tolerant of torn ring state: this runs during supervisor reset
         of a possibly-hostile or wedged device — an unreadable
         descriptor counts as no frame rather than aborting recovery *)
      let cmd =
        try dma_read32 t (desc_addr base !head + Regs.d_cmd)
        with Td_mem.Addr_space.Page_fault _ -> 0
      in
      if cmd land Regs.cmd_eop <> 0 then incr frames;
      head := (!head + 1) mod entries
    done;
  !frames

let reset t =
  let lost = pending_tx_frames t in
  Array.fill t.regs 0 (Array.length t.regs) 0;
  set t Regs.status 0x3;
  let b i = Char.code t.mac.[i] in
  set t Regs.ral (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24));
  set t Regs.rah (b 4 lor (b 5 lsl 8) lor 0x8000_0000);
  t.itr_pending <- 0;
  t.dma_stuck <- false;
  t.tx_len <- 0;
  lost

(* --- MMIO dispatch --- *)

let mmio_read t off (w : Td_misa.Width.t) =
  let v =
    let aligned = off land lnot 3 in
    let word_val =
      if aligned = Regs.icr then begin
        let v = get t Regs.icr in
        set t Regs.icr 0;
        v
      end
      else get t aligned
    in
    word_val lsr (8 * (off land 3))
  in
  v land Td_misa.Width.mask w

let mmio_write t off (w : Td_misa.Width.t) v =
  if w <> Td_misa.Width.W32 || off land 3 <> 0 then
    guest_err t ~op:"E1000_dev.mmio_write"
      "MMIO write at 0x%x must be 32-bit aligned" off;
  if off = Regs.ims then set t Regs.ims (get t Regs.ims lor v)
  else if off = Regs.imc then set t Regs.ims (get t Regs.ims land lnot v)
  else if off = Regs.icr then set t Regs.icr (get t Regs.icr land lnot v)
  else begin
    set t off v;
    if off = Regs.tdt then process_tx t
  end

let device_page t =
  {
    Td_mem.Addr_space.dev_read = (fun off w -> mmio_read t off w);
    dev_write = (fun off w v -> mmio_write t off w v);
  }

let attach t ~space ~vaddr =
  if Td_mem.Layout.offset_of vaddr <> 0 then
    invalid_arg "E1000_dev.attach: vaddr must be page-aligned";
  Td_mem.Addr_space.map_device space
    ~vpage:(Td_mem.Layout.page_of vaddr)
    (device_page t)
