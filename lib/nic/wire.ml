type counters = { mutable frames : int; mutable bytes : int }

let fresh_counters () = { frames = 0; bytes = 0 }

let sink c _frame len =
  c.frames <- c.frames + 1;
  c.bytes <- c.bytes + len

let null _ _ = ()

let wire_limit_mbps ~packet_bytes ~nics =
  E1000_dev.effective_rate_bps ~packet_bytes *. float_of_int nics /. 1e6
