(** The driver's private state (struct e1000_adapter), living in dom0
    memory. Field offsets are shared between the MISA driver code and the
    OCaml harness (which reads statistics and asserts invariants).

    {v
      +0  mmio        NIC register page base
      +4  tx_ring     descriptor ring base
      +8  tx_size     entries
      +12 tx_tail     next descriptor to fill
      +16 tx_clean    next descriptor to reclaim
      +20 rx_ring
      +24 rx_size
      +28 rx_next     next receive descriptor to process
      +32 lock        transmit spinlock word
      +36 netdev      back pointer
      +40 tx_packets  +44 tx_bytes  +48 rx_packets  +52 rx_bytes
      +56 tx_dropped  +60 rx_alloc_fail
      +64 watchdog_runs  +68 stats_mpc  +72 irq_seen
      +76 tx_skb      shadow array base (tx_size words)
      +80 rx_skb      shadow array base (rx_size words)
      +84 rx_buf_size
      +88 link_up
      +92 link_fn      function pointer: link-check routine (VM address)
    v} *)

val struct_bytes : int

(* field offsets *)

val o_mmio : int
val o_tx_ring : int
val o_tx_size : int
val o_tx_tail : int
val o_tx_clean : int
val o_rx_ring : int
val o_rx_size : int
val o_rx_next : int
val o_lock : int
val o_netdev : int
val o_tx_packets : int
val o_tx_bytes : int
val o_rx_packets : int
val o_rx_bytes : int
val o_tx_dropped : int
val o_rx_alloc_fail : int
val o_watchdog_runs : int
val o_stats_mpc : int
val o_irq_seen : int
val o_tx_skb : int
val o_rx_skb : int
val o_rx_buf_size : int
val o_link_up : int
val o_link_fn : int

type t = { space : Td_mem.Addr_space.t; addr : int }

val of_netdev : Td_kernel.Netdev.t -> t
val field : t -> int -> int
val set_field : t -> int -> int -> unit

val tx_packets : t -> int
val tx_bytes : t -> int
val rx_packets : t -> int
val rx_bytes : t -> int
val tx_dropped : t -> int
val rx_alloc_fail : t -> int
val watchdog_runs : t -> int
val lock_held : t -> bool
