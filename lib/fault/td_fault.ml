type site =
  | Svm_wild_access
  | Interp_bitflip
  | Nic_stuck_dma
  | Nic_lost_irq
  | Nic_corrupt_rx
  | Upcall_fail

let all_sites =
  [
    Svm_wild_access;
    Interp_bitflip;
    Nic_stuck_dma;
    Nic_lost_irq;
    Nic_corrupt_rx;
    Upcall_fail;
  ]

let site_index = function
  | Svm_wild_access -> 0
  | Interp_bitflip -> 1
  | Nic_stuck_dma -> 2
  | Nic_lost_irq -> 3
  | Nic_corrupt_rx -> 4
  | Upcall_fail -> 5

let n_sites = List.length all_sites

let site_name = function
  | Svm_wild_access -> "svm_wild_access"
  | Interp_bitflip -> "interp_bitflip"
  | Nic_stuck_dma -> "nic_stuck_dma"
  | Nic_lost_irq -> "nic_lost_irq"
  | Nic_corrupt_rx -> "nic_corrupt_rx"
  | Upcall_fail -> "upcall_fail"

type plan = {
  seed : int;
  svm_wild_access : float;
  interp_bitflip : float;
  nic_stuck_dma : float;
  nic_lost_irq : float;
  nic_corrupt_rx : float;
  upcall_fail : float;
}

let zero_plan =
  {
    seed = 0;
    svm_wild_access = 0.;
    interp_bitflip = 0.;
    nic_stuck_dma = 0.;
    nic_lost_irq = 0.;
    nic_corrupt_rx = 0.;
    upcall_fail = 0.;
  }

let uniform_plan ?(seed = 1) rate =
  {
    seed;
    svm_wild_access = rate;
    interp_bitflip = rate;
    nic_stuck_dma = rate;
    nic_lost_irq = rate;
    nic_corrupt_rx = rate;
    upcall_fail = rate;
  }

let rate plan = function
  | Svm_wild_access -> plan.svm_wild_access
  | Interp_bitflip -> plan.interp_bitflip
  | Nic_stuck_dma -> plan.nic_stuck_dma
  | Nic_lost_irq -> plan.nic_lost_irq
  | Nic_corrupt_rx -> plan.nic_corrupt_rx
  | Upcall_fail -> plan.upcall_fail

(* 62-bit xorshift streams; the seed mix keeps distinct streams distinct
   and non-zero even for seed 0 *)
module Xorshift = struct
  let mask = (1 lsl 62) - 1

  let seed_stream seed i =
    let x = ((seed * 0x9E3779B1) + ((i + 1) * 0x85EBCA77)) land mask in
    if x = 0 then 0x2545F491 + i else x

  let next streams i =
    let x = streams.(i) in
    let x = x lxor ((x lsl 13) land mask) in
    let x = x lxor (x lsr 7) in
    let x = x lxor ((x lsl 17) land mask) in
    streams.(i) <- x;
    x
end

module Engine = struct
  type state = {
    plan : plan;
    streams : int array;
    mutable suspend_depth : int;
    mutable injected_total : int;
    injected_per_site : int array;
    mutable lost : int;
    mutable tx_lost : int;
  }

  let make plan =
    {
      plan;
      streams = Array.init n_sites (Xorshift.seed_stream plan.seed);
      suspend_depth = 0;
      injected_total = 0;
      injected_per_site = Array.make n_sites 0;
      lost = 0;
      tx_lost = 0;
    }

  let uniform streams i =
    float_of_int (Xorshift.next streams i land 0xFFFFFF) /. 16777216.

  let reset_counters e =
    e.injected_total <- 0;
    Array.fill e.injected_per_site 0 n_sites 0;
    e.lost <- 0;
    e.tx_lost <- 0

  let active e = e.suspend_depth = 0
  let armed e site = e.suspend_depth = 0 && rate e.plan site > 0.

  let fire e site =
    e.suspend_depth = 0
    && rate e.plan site > 0.
    &&
    let i = site_index site in
    uniform e.streams i < rate e.plan site
    &&
    (e.injected_total <- e.injected_total + 1;
     e.injected_per_site.(i) <- e.injected_per_site.(i) + 1;
     if Td_obs.Control.enabled () then begin
       Td_obs.Metrics.bump "fault.injected";
       Td_obs.Metrics.bump ("fault.injected." ^ site_name site);
       Td_obs.Trace.emit (Td_obs.Trace.Fault_injected { site = site_name site })
     end;
     true)

  let pick e site bound =
    if bound <= 0 then invalid_arg "Td_fault.Engine.pick";
    Xorshift.next e.streams (site_index site) mod bound

  let suspend e f =
    e.suspend_depth <- e.suspend_depth + 1;
    Fun.protect ~finally:(fun () -> e.suspend_depth <- e.suspend_depth - 1) f

  let injected e = e.injected_total
  let injected_at e site = e.injected_per_site.(site_index site)

  let note_lost e n =
    if n > 0 then begin
      e.lost <- e.lost + n;
      if Td_obs.Control.enabled () then
        Td_obs.Metrics.bump_by "fault.lost_frames" n
    end

  let note_tx_lost e n =
    e.tx_lost <- e.tx_lost + n;
    note_lost e n

  let lost_frames e = e.lost
  let tx_lost_frames e = e.tx_lost
end
