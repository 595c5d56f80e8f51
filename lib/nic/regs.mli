(** Register map of the simulated e1000-style NIC (byte offsets within the
    4 KiB MMIO page), plus interrupt-cause and descriptor bit definitions.

    The register map is compressed into a single 4 KiB page (the real
    PRO/1000 BAR is 128 KiB); otherwise it follows the Intel conventions
    closely enough that
    the driver code reads naturally: transmit/receive descriptor rings with
    base/length/head/tail registers, an interrupt cause register ([icr])
    that clears on read, and a mask set/clear pair ([ims]/[imc]).
    [ral]/[rah] hold the MAC address; [gptc]/[gprc]/[mpc] are the
    transmitted / received / missed packet statistics counters. *)

val status : int
val icr : int
val ims : int
val imc : int

(** Interrupt throttle: when non-zero, the device asserts at most one
    interrupt per [itr] cause events (interrupt coalescing — the
    complementary software mitigation of the paper's related work). *)

val itr : int
val tdbal : int
val tdlen : int
val tdh : int
val tdt : int
val rdbal : int
val rdlen : int
val rdh : int
val rdt : int
val ral : int
val rah : int
val gptc : int
val gprc : int
val mpc : int

(** Receive control ([rctl]; bit 3 = promiscuous) and the multicast table
    array ([mta], 32 words) the configuration path programs. *)

val rctl : int
val mta : int
val mta_entries : int

(** Interrupt cause bits: transmit writeback, receive, link change. *)

val icr_txdw : int
val icr_rxt0 : int

(** Descriptor geometry: 16-byte descriptors with buffer address, length,
    command and status words. *)

val desc_bytes : int
val d_buf : int
val d_len : int
val d_cmd : int
val d_sta : int

(** Command bits (end-of-packet, report-status) and the descriptor-done /
    end-of-packet status bits. *)

val cmd_eop : int
val cmd_rs : int
val sta_dd : int
val sta_eop : int
