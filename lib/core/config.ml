type t = Native_linux | Xen_dom0 | Xen_domU | Xen_twin

let name = function
  | Native_linux -> "Linux"
  | Xen_dom0 -> "dom0"
  | Xen_domU -> "domU"
  | Xen_twin -> "domU-twin"

let all = [ Xen_domU; Xen_twin; Xen_dom0; Native_linux ]

let of_string = function
  | "linux" | "Linux" -> Some Native_linux
  | "dom0" -> Some Xen_dom0
  | "domU" | "domu" -> Some Xen_domU
  | "domU-twin" | "twin" -> Some Xen_twin
  | _ -> None

type recovery = Fail_stop | Restart | Restart_replay

let recovery_name = function
  | Fail_stop -> "fail-stop"
  | Restart -> "restart"
  | Restart_replay -> "restart-replay"

let recovery_of_string = function
  | "fail-stop" | "fail_stop" | "failstop" -> Some Fail_stop
  | "restart" -> Some Restart
  | "restart-replay" | "restart_replay" | "replay" -> Some Restart_replay
  | _ -> None

let all_recoveries = [ Fail_stop; Restart; Restart_replay ]

type tuning = {
  map_window_pages : int;
  notify_batch : int;
  recovery : recovery;
  doorbell : bool;
  poll_entry_kicks : int;
  quota : Td_xen.Quota.limits option;
  fault_plan : Td_fault.plan option;
  queues : int;
  shards : int;
  rss_seed : int;
}

let default_tuning =
  {
    map_window_pages = Td_mem.Layout.map_window_pages;
    notify_batch = 1;
    recovery = Fail_stop;
    doorbell = false;
    poll_entry_kicks = 8;
    quota = None;
    fault_plan = None;
    queues = 1;
    shards = 1;
    rss_seed = 0x2A8F;
  }
