(** A second, structurally different NIC model, in the style of the
    Realtek RTL8139 — used to demonstrate that the TwinDrivers derivation
    is not specific to the e1000 driver.

    Differences from {!E1000_dev} that the driver code feels:
    - transmit uses four fixed descriptor slots (TSAD0-3 buffer address
      registers, TSD0-3 command/status registers) and requires the frame
      to be staged in one contiguous buffer — the driver must copy;
    - receive writes packets into a single contiguous ring buffer
      ([status16, length16, frame, dword padding]) that the driver walks
      with its read pointer (CAPR) — the driver must copy packets out;
    - the interrupt status register is write-1-to-clear, not
      read-to-clear. *)

(** Register offsets (32-bit registers within one 4 KiB page):
    [tsd n] is the transmit status of slot [n] (bit 13 = OWN/slot-free,
    bit 15 = transmit-OK), [tsad n] its buffer address; [rbstart] the
    receive-ring base; [capr] the driver's read pointer and [cbr] the
    device's write pointer into the ring; [imr]/[isr] the interrupt mask
    and (write-1-to-clear) status. *)

val tsd : int -> int
val tsad : int -> int
val rbstart : int
val capr : int
val cbr : int
val imr : int
val isr : int
val cmd : int

val tsd_own : int
val isr_rok : int
val isr_tok : int

val rx_ring_bytes : int
(** Size of the receive ring the driver must allocate (16 KiB). *)

val rx_hdr_bytes : int
(** Per-packet ring header: status16 + length16. *)

type t

val create :
  ?fault_domain:(unit -> string option) ->
  dma:Td_mem.Addr_space.t ->
  mac:string ->
  tx_frame:(bytes -> int -> unit) ->
  unit ->
  t
(** [fault_domain] as in {!E1000_dev.create}: guest-reachable validation
    failures raise the typed {!Td_xen.Guest_fault.Fault}, attributed to
    the named domain. [tx_frame buf len] follows the {!E1000_dev.create}
    contract: the frame is the first [len] bytes of [buf], valid only
    during the call. *)

val attach : t -> space:Td_mem.Addr_space.t -> vaddr:int -> unit
val set_irq_handler : t -> (unit -> unit) -> unit
val receive_frame : t -> string -> unit
val tx_count : t -> int
val rx_count : t -> int
val dropped : t -> int
