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

let site_of_name name =
  List.find_opt (fun s -> site_name s = name) all_sites

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

module Engine = struct
  type state = {
    plan : plan;
    streams : int array;
    mutable suspend_depth : int;
    mutable injected_total : int;
    injected_per_site : int array;
    mutable lost : int;
  }

  (* 63-bit xorshift; the seed mix keeps distinct sites on distinct,
     non-zero streams even for seed 0 *)
  let mask = (1 lsl 62) - 1

  let seed_stream seed i =
    let x = ((seed * 0x9E3779B1) + ((i + 1) * 0x85EBCA77)) land mask in
    if x = 0 then 0x2545F491 + i else x

  let make plan =
    {
      plan;
      streams = Array.init n_sites (seed_stream plan.seed);
      suspend_depth = 0;
      injected_total = 0;
      injected_per_site = Array.make n_sites 0;
      lost = 0;
    }

  (* The ambient engine slot is per OCaml domain (DLS), so parallel
     shards never observe each other's engines: a spawned shard worker
     starts with no ambient engine, and a World carrying a private
     engine scopes it around its entry points with [with_state]. *)
  let slot : state option ref Stdlib.Domain.DLS.key =
    Stdlib.Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Stdlib.Domain.DLS.get slot)

  let with_state st f =
    let r = Stdlib.Domain.DLS.get slot in
    let saved = !r in
    r := Some st;
    Fun.protect ~finally:(fun () -> r := saved) f

  (* Lost frames are counted even when no engine is armed (organic
     aborts under a Restart policy still drop frames); they land in a
     per-OCaml-domain orphan counter so the accounting stays visible. *)
  let orphan_lost : int ref Stdlib.Domain.DLS.key =
    Stdlib.Domain.DLS.new_key (fun () -> ref 0)

  let next streams i =
    let x = streams.(i) in
    let x = x lxor ((x lsl 13) land mask) in
    let x = x lxor (x lsr 7) in
    let x = x lxor ((x lsl 17) land mask) in
    streams.(i) <- x;
    x

  let uniform streams i = float_of_int (next streams i land 0xFFFFFF) /. 16777216.

  let reset_counters () =
    (match current () with
    | Some e ->
        e.injected_total <- 0;
        Array.fill e.injected_per_site 0 n_sites 0;
        e.lost <- 0
    | None -> ());
    Stdlib.Domain.DLS.get orphan_lost := 0

  let install plan = Stdlib.Domain.DLS.get slot := Some (make plan)
  let clear () = Stdlib.Domain.DLS.get slot := None
  let plan () = Option.map (fun e -> e.plan) (current ())

  let active () =
    match current () with Some e -> e.suspend_depth = 0 | None -> false

  let armed site =
    match current () with
    | Some e -> e.suspend_depth = 0 && rate e.plan site > 0.
    | None -> false

  let fire site =
    match current () with
    | None -> false
    | Some e ->
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
           Td_obs.Trace.emit
             (Td_obs.Trace.Fault_injected { site = site_name site })
         end;
         true)

  let pick site bound =
    if bound <= 0 then invalid_arg "Td_fault.Engine.pick";
    match current () with
    | None -> 0
    | Some e -> next e.streams (site_index site) mod bound

  let suspend f =
    match current () with
    | None -> f ()
    | Some e ->
        e.suspend_depth <- e.suspend_depth + 1;
        Fun.protect ~finally:(fun () -> e.suspend_depth <- e.suspend_depth - 1) f

  let injected () = match current () with Some e -> e.injected_total | None -> 0

  let injected_at site =
    match current () with
    | Some e -> e.injected_per_site.(site_index site)
    | None -> 0

  let note_lost n =
    if n > 0 then begin
      (match current () with
      | Some e -> e.lost <- e.lost + n
      | None ->
          let r = Stdlib.Domain.DLS.get orphan_lost in
          r := !r + n);
      if Td_obs.Control.enabled () then
        Td_obs.Metrics.bump_by "fault.lost_frames" n
    end

  let lost_frames () =
    match current () with
    | Some e -> e.lost
    | None -> !(Stdlib.Domain.DLS.get orphan_lost)
end
