let struct_bytes = 96

let o_mmio = 0
let o_tx_ring = 4
let o_tx_size = 8
let o_tx_tail = 12
let o_tx_clean = 16
let o_rx_ring = 20
let o_rx_size = 24
let o_rx_next = 28
let o_lock = 32
let o_netdev = 36
let o_tx_packets = 40
let o_tx_bytes = 44
let o_rx_packets = 48
let o_rx_bytes = 52
let o_tx_dropped = 56
let o_rx_alloc_fail = 60
let o_watchdog_runs = 64
let o_stats_mpc = 68
let o_irq_seen = 72
let o_tx_skb = 76
let o_rx_skb = 80
let o_rx_buf_size = 84
let o_link_up = 88
let o_link_fn = 92

type t = { space : Td_mem.Addr_space.t; addr : int }

let of_netdev nd =
  { space = nd.Td_kernel.Netdev.space; addr = Td_kernel.Netdev.priv nd }

let field t off = Td_mem.Addr_space.read t.space (t.addr + off) Td_misa.Width.W32

let set_field t off v =
  Td_mem.Addr_space.write t.space (t.addr + off) Td_misa.Width.W32 v

let tx_packets t = field t o_tx_packets
let tx_bytes t = field t o_tx_bytes
let rx_packets t = field t o_rx_packets
let rx_bytes t = field t o_rx_bytes
let tx_dropped t = field t o_tx_dropped
let rx_alloc_fail t = field t o_rx_alloc_fail
let watchdog_runs t = field t o_watchdog_runs
let lock_held t = Td_kernel.Spinlock.held t.space (t.addr + o_lock)
