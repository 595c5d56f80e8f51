let tsd n = 0x10 + (4 * n)
let tsad n = 0x20 + (4 * n)
let rbstart = 0x30
let capr = 0x38
let cbr = 0x3C
let imr = 0x40
let isr = 0x44
let cmd = 0x48

let tsd_own = 0x2000
let tsd_tok = 0x8000
let isr_rok = 0x1
let isr_tok = 0x4

let rx_ring_bytes = 16384
let rx_hdr_bytes = 4

type t = {
  dma : Td_mem.Addr_space.t;
  mac : string;
  tx_frame : bytes -> int -> unit;
  fault_domain : unit -> string option;
      (** attributes guest-reachable faults (see {!E1000_dev}) *)
  regs : int array;
  mutable irq_handler : (unit -> unit) option;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable dropped : int;
}

(* register offsets and TSAD buffer pointers are guest-reachable input:
   validation failures are typed, attributed faults *)
let guest_err t ~op fmt =
  Td_xen.Guest_fault.fail ?domain:(t.fault_domain ()) ~op fmt

let word t off =
  if off land 3 <> 0 || off < 0 || off >= 4096 then
    guest_err t ~op:"Rtl_dev.mmio" "bad register offset 0x%x" off
  else off / 4

let get t off = t.regs.(word t off)
let set t off v = t.regs.(word t off) <- v land 0xFFFFFFFF

let create ?(fault_domain = fun () -> None) ~dma ~mac ~tx_frame () =
  if String.length mac <> 6 then invalid_arg "Rtl_dev.create: mac";
  let t =
    {
      dma;
      mac;
      tx_frame;
      fault_domain;
      regs = Array.make 1024 0;
      irq_handler = None;
      tx_count = 0;
      rx_count = 0;
      dropped = 0;
    }
  in
  (* all four transmit slots start free *)
  for n = 0 to 3 do
    set t (tsd n) tsd_own
  done;
  t

let set_irq_handler t fn = t.irq_handler <- Some fn
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let dropped t = t.dropped

let raise_cause t cause =
  set t isr (get t isr lor cause);
  if get t isr land get t imr <> 0 then
    match t.irq_handler with Some fn -> fn () | None -> ()

(* writing a size into TSDn (without OWN) starts transmission *)
let start_tx t n size =
  let buf = get t (tsad n) in
  let frame =
    try Td_mem.Addr_space.read_block t.dma buf (size land 0x1FFF)
    with Td_mem.Addr_space.Page_fault { addr; _ } ->
      guest_err t ~op:"Rtl_dev.start_tx"
        "TSAD%d buffer DMA faulted at 0x%x" n addr
  in
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "nic.tx.frames";
    Td_obs.Metrics.bump_by "nic.dma.read_bytes" (Bytes.length frame);
    Td_obs.Metrics.bump_by "nic.tx.bytes" (Bytes.length frame);
    Td_obs.Hist.observe
      (Td_obs.Metrics.histogram "nic.tx.frame_bytes")
      (Bytes.length frame);
    Td_obs.Trace.emit
      (Td_obs.Trace.Nic_dma { dir = `Read; bytes = Bytes.length frame });
    Td_obs.Trace.emit (Td_obs.Trace.Nic_tx { bytes = Bytes.length frame })
  end;
  t.tx_frame frame (Bytes.length frame);
  t.tx_count <- t.tx_count + 1;
  (* slot becomes free again, transmit-OK *)
  set t (tsd n) (tsd_own lor tsd_tok);
  raise_cause t isr_tok

(* Packets are written contiguously (never split across the ring edge, as
   on the real chip, whose driver over-allocates a spill area). When the
   tail has no room: restart from offset 0 if the driver has consumed
   everything, drop otherwise. *)
let receive_frame t frame =
  let base = get t rbstart in
  let len = String.length frame in
  let need = (rx_hdr_bytes + len + 3) land lnot 3 in
  let drop reason =
    t.dropped <- t.dropped + 1;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "nic.rx.dropped";
      Td_obs.Trace.emit (Td_obs.Trace.Nic_drop { reason })
    end
  in
  if base = 0 then drop "rx ring not programmed"
  else begin
    (if get t cbr + need > rx_ring_bytes then
       if get t capr = get t cbr then begin
         set t cbr 0;
         set t capr 0
       end);
    let w = get t cbr in
    if w + need > rx_ring_bytes then drop "rx ring full"
    else begin
      let put_u8 o v =
        Td_mem.Addr_space.write t.dma (base + w + o) Td_misa.Width.W8
          (v land 0xff)
      in
      (* status16 (bit 0 = ROK), length16, frame bytes, dword padding *)
      match
        put_u8 0 1;
        put_u8 1 0;
        put_u8 2 (len land 0xff);
        put_u8 3 (len lsr 8);
        String.iteri (fun i c -> put_u8 (rx_hdr_bytes + i) (Char.code c)) frame
      with
      | () ->
          set t cbr (w + need);
          t.rx_count <- t.rx_count + 1;
          if Td_obs.Control.enabled () then begin
            Td_obs.Metrics.bump "nic.rx.frames";
            Td_obs.Metrics.bump_by "nic.dma.write_bytes" len;
            Td_obs.Trace.emit
              (Td_obs.Trace.Nic_dma { dir = `Write; bytes = len });
            Td_obs.Trace.emit (Td_obs.Trace.Nic_rx { bytes = len })
          end;
          raise_cause t isr_rok
      | exception Td_mem.Addr_space.Page_fault _ ->
          (* RBSTART pointing outside mapped memory drops the frame like
             a bad packet instead of letting an untyped fault escape *)
          drop "rx ring DMA fault"
    end
  end

let mmio_read t off (w : Td_misa.Width.t) =
  let aligned = off land lnot 3 in
  let v = get t aligned lsr (8 * (off land 3)) in
  v land Td_misa.Width.mask w

let mmio_write t off (w : Td_misa.Width.t) v =
  if w <> Td_misa.Width.W32 || off land 3 <> 0 then
    guest_err t ~op:"Rtl_dev.mmio_write"
      "MMIO write at 0x%x must be 32-bit aligned" off;
  if off = isr then
    (* write-1-to-clear, unlike the e1000 *)
    set t isr (get t isr land lnot v)
  else begin
    set t off v;
    if off = tsd 0 || off = tsd 1 || off = tsd 2 || off = tsd 3 then begin
      if v land tsd_own = 0 then
        start_tx t ((off - tsd 0) / 4) (v land 0x1FFF)
    end
  end

let attach t ~space ~vaddr =
  if Td_mem.Layout.offset_of vaddr <> 0 then invalid_arg "Rtl_dev.attach";
  Td_mem.Addr_space.map_device space
    ~vpage:(Td_mem.Layout.page_of vaddr)
    {
      Td_mem.Addr_space.dev_read = (fun off w -> mmio_read t off w);
      dev_write = (fun off w v -> mmio_write t off w v);
    }
