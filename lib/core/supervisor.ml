open Td_misa
open Td_mem
open Td_cpu
open Td_xen
open Td_kernel
open World_state

(* ---- driver invocation ---- *)

let observe_invocation w before =
  if Td_obs.Control.enabled () then
    Td_obs.Hist.observe
      (Td_obs.Metrics.histogram "driver.invoke.cycles")
      (w.cpu.State.cycles - before)

let finish_invocation w before =
  Ledger.charge w.led Ledger.Driver (w.cpu.State.cycles - before);
  observe_invocation w before

(* The reason an exception escaping the driver aborts its instance with,
   or [None] for one the supervisor does not contain. Under fault
   injection a corrupted driver can drive the model into states the
   pristine system never reaches (bogus register numbers, unresolved
   indirect calls); those are contained too, but only when the world has
   a plan, so genuine model bugs still crash loudly. *)
let abort_reason w = function
  | Td_svm.Runtime.Fault { addr; reason } ->
      Some (Printf.sprintf "SVM fault at 0x%x: %s" addr reason)
  | Interp.Timeout _ -> Some "watchdog timeout"
  | Addr_space.Page_fault { space; addr } ->
      Some (Printf.sprintf "page fault in %s at 0x%x" space addr)
  | Upcall.Upcall_failed { routine } ->
      Some (Printf.sprintf "upcall %s failed in dom0" routine)
  | Guest_fault.Fault { op; reason } ->
      w.guest_faults <- w.guest_faults + 1;
      Some (Printf.sprintf "guest fault in %s: %s" op reason)
  | Kmem.Bad_free { addr; bytes; reason } ->
      Some (Printf.sprintf "bad kfree of 0x%x (%d B): %s" addr bytes reason)
  | Quota.Quota_exceeded { domain; resource } ->
      Some (Printf.sprintf "quota exceeded: %s for domain %s" resource domain)
  | ( Invalid_argument _ | Failure _ | Interp.Fault _ | Phys_mem.Bad_frame _
    | Phys_mem.Out_of_frames _ | Addr_space.Heap_exhausted _
    | Hypervisor.No_domains _ ) as e
    when planned w ->
      Some (Printf.sprintf "model fault: %s" (Printexc.to_string e))
  | _ -> None

(* One driver entry point on [stack] in the current domain, with its
   [argc] (1 or 2) arguments [a0] and [a1] passed as words: nothing is
   built on the host per call, and only an abort formats its reason. *)
let run_driver w ~entry ~stack ~argc a0 a1 =
  State.set w.cpu Reg.ESP stack;
  let before = w.cpu.State.cycles in
  match
    if argc = 1 then Interp.call1 w.interp ~entry a0
    else Interp.call2 w.interp ~entry a0 a1
  with
  | result ->
      finish_invocation w before;
      result
  | exception e -> (
      let bt = Printexc.get_raw_backtrace () in
      match abort_reason w e with
      | Some reason ->
          finish_invocation w before;
          raise (Driver_aborted reason)
      | None -> Printexc.raise_with_backtrace e bt)

(* dom0's instance runs in dom0 on the Xen paths: [Hypervisor.run_in]
   written out with its two halves, so no closure is built per call *)
let in_dom0 w ~argc ~entry a0 a1 =
  match w.path with
  | Native -> run_driver w ~entry ~stack:w.dom0_stack_top ~argc a0 a1
  | Dom0 x | Domu (x, _) | Twin (x, _) -> (
      let prev = Hypervisor.enter x.hyp x.dom0 in
      match run_driver w ~entry ~stack:w.dom0_stack_top ~argc a0 a1 with
      | r ->
          Hypervisor.leave x.hyp ~prev x.dom0;
          r
      | exception e ->
          Hypervisor.leave x.hyp ~prev x.dom0;
          raise e)

let run_dom0_driver w ~entry a0 = in_dom0 w ~argc:1 ~entry a0 0
let run_dom0_driver2 w ~entry a0 a1 = in_dom0 w ~argc:2 ~entry a0 a1

(* no domain switch: the hypervisor driver runs from any guest context *)
let run_hyp_driver w ~entry a0 =
  run_driver w ~entry ~stack:Layout.hyp_stack_top ~argc:1 a0 0

let run_hyp_driver2 w ~entry a0 a1 =
  run_driver w ~entry ~stack:Layout.hyp_stack_top ~argc:2 a0 a1

(* ---- driver supervisor (§4.5) ---- *)

(* The port state machine, written only here: every live port goes
   Serving -> Recovering -> Serving across a restart, or -> Failed if its
   rebuild aborts; a Fail_stop abort, or a control call that aborts again
   on the fresh instance, fails its port. Failed is terminal. *)

let serving w ~nic =
  match w.nics.(nic).state with Serving -> true | Recovering | Failed _ -> false

let admit w ~nic = if not (serving w ~nic) then raise (Nic_quarantined { nic })

let fail (q : nic_port) reason =
  q.state <- Failed reason;
  if Td_obs.Control.enabled () then Td_obs.Metrics.bump "fault.ports_failed"

(* e1000_init on the dom0 instance, the link-check ops pointer (shared
   data holds VM-instance code addresses), then the shadow configuration
   through the driver's own entry points, as the guest applied it *)
let init_port w (p : nic_port) =
  ignore (run_dom0_driver w ~entry:w.dom0_driver.e_init p.nd.Netdev.addr);
  Td_driver.Adapter.set_field
    (Td_driver.Adapter.of_netdev p.nd)
    Td_driver.Adapter.o_link_fn
    (Program.addr_of_label w.dom0_driver.prog
       Td_driver.E1000_driver.entry_check_link);
  if p.shadow.s_mtu <> 1500 then
    ignore
      (run_dom0_driver2 w ~entry:w.dom0_driver.e_set_mtu p.nd.Netdev.addr
         p.shadow.s_mtu);
  if p.shadow.s_promisc then
    ignore
      (run_dom0_driver2 w ~entry:w.dom0_driver.e_set_rx_mode p.nd.Netdev.addr
         1)

(* Free the dead instance's kernel memory — adapter, descriptor rings,
   shadow sk_buff arrays and the ring sk_buffs they reference — so
   repeated recoveries cannot exhaust the dom0 heap. Best-effort: the
   walk trusts the adapter only while its ring sizes still hold their
   init-time constants (a corrupted instance may have scribbled
   anywhere); on any doubt it leaks a little instead of poisoning the
   allocator. Pool-owned sk_buffs are skipped — {!Skb_pool.reset}
   reclaims those wholesale. *)
let teardown_driver_memory w (q : nic_port) =
  let pooled addr =
    match w.path with
    | Twin (_, tw) -> Skb_pool.owns tw.pool addr
    | Native | Dom0 _ | Domu _ -> false
  in
  (* a pointer the dead instance scribbled is refused: that block leaks,
     the rest is still freed *)
  let free addr bytes =
    if addr <> 0 then try Kmem.free w.km addr bytes with Kmem.Bad_free _ -> ()
  in
  let free_skb addr =
    if addr <> 0 && not (pooled addr) then
      try
        let space = w.dom0_space in
        let capacity = Skb.capacity_at space addr in
        if capacity > 0 && capacity <= Layout.page_size then begin
          Skb.set_refcnt_at space addr 1;
          Skb.free_at w.km space addr
        end
      with Addr_space.Page_fault _ | Kmem.Bad_free _ -> ()
  in
  try
    let priv = Netdev.priv q.nd in
    if priv <> 0 then begin
      let a = Td_driver.Adapter.of_netdev q.nd in
      let fld = Td_driver.Adapter.field a in
      let tx_size = fld Td_driver.Adapter.o_tx_size
      and rx_size = fld Td_driver.Adapter.o_rx_size in
      if
        tx_size = Td_driver.E1000_driver.tx_ring_entries
        && rx_size = Td_driver.E1000_driver.rx_ring_entries
      then begin
        let rd addr = Addr_space.read w.dom0_space addr Width.W32 in
        let rx_arr = fld Td_driver.Adapter.o_rx_skb
        and tx_arr = fld Td_driver.Adapter.o_tx_skb in
        if rx_arr <> 0 then
          for i = 0 to rx_size - 1 do
            free_skb (rd (rx_arr + (4 * i)))
          done;
        free rx_arr (4 * rx_size);
        if tx_arr <> 0 then
          for i = 0 to tx_size - 1 do
            (* 0 = empty slot, 1 = fragment marker, else an sk_buff *)
            let v = rd (tx_arr + (4 * i)) in
            if v > 1 then free_skb v
          done;
        free tx_arr (4 * tx_size);
        free (fld Td_driver.Adapter.o_tx_ring) (tx_size * Td_nic.Regs.desc_bytes);
        free (fld Td_driver.Adapter.o_rx_ring) (rx_size * Td_nic.Regs.desc_bytes)
      end;
      free priv Td_driver.Adapter.struct_bytes;
      Netdev.set_priv q.nd 0
    end
  with
  (* an unmapped adapter or shadow array: leak what is left *)
  | Addr_space.Page_fault _ -> ()

let rebuild w (q : nic_port) =
  teardown_driver_memory w q;
  Td_fault.Engine.note_tx_lost w.fault (Td_nic.E1000_dev.reset q.dev);
  q.pending_irq <- 0;
  Netdev.repair q.nd ~mmio_base:q.shadow.s_mmio_base ~mac:q.mac
    ~mtu:q.shadow.s_mtu;
  init_port w q

(* Tear the twin down and rebuild it from shadow state. The blast radius
   of a corrupted instance is the shared driver state (both instances run
   the same data structures, §3.1), so every live port is Recovering for
   the duration and rebuilt before service resumes. Injection is masked
   throughout: recovery must make forward progress even under an
   aggressive plan. Total: an abort while rebuilding a port fails that
   port, and the others still come back. *)
let recover w ~nic ~reason =
  Array.iter (fun q -> if q.state = Serving then q.state <- Recovering) w.nics;
  Td_fault.Engine.suspend w.fault (fun () ->
      (* the driver images stay: code lives outside simulated RAM, so no
         driver store can have corrupted it *)
      (match w.path with
      | Twin (_, tw) ->
          (* 1. invalidate all translations and unmap the window pairs *)
          Td_svm.Runtime.flush tw.svm_hyp;
          Td_svm.Runtime.flush tw.svm_vm;
          (* 2. reclaim every sk_buff pool slot, in flight or not *)
          Skb_pool.reset tw.pool;
          (* 3. re-pin the packet-buffer pool into the hypervisor *)
          pin_pool tw.svm_hyp tw.pool
      | Native | Dom0 _ | Domu _ -> ());
      (* 4. per port: rebuild *)
      Array.iter
        (fun q ->
          if q.state = Recovering then
            match rebuild w q with
            | () -> q.state <- Serving
            | exception Driver_aborted r -> fail q ("recovery aborted: " ^ r))
        w.nics);
  w.recoveries <- w.recoveries + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "fault.recoveries";
    Td_obs.Trace.emit (Td_obs.Trace.Driver_recovery { nic; reason })
  end

let on_abort w ~nic reason =
  match w.tuning.Config.recovery with
  | Config.Fail_stop ->
      fail w.nics.(nic) reason;
      raise (Driver_aborted reason)
  | Config.Restart | Config.Restart_replay -> recover w ~nic ~reason

(* one more attempt on the fresh instance after a recovery, with
   injection masked so the plan cannot abort it again *)
let retry w attempt =
  Td_fault.Engine.suspend w.fault (fun () ->
      try Ok (attempt ()) with Driver_aborted reason -> Error reason)

(* The wrappers below take the driver call as a static function and its
   arguments, not as a closure: the call itself builds nothing, and only
   an abort's retry wraps it in one. *)

let invoke w ~nic f a =
  match f w ~nic a with
  | (_ : int) -> ()
  | exception Driver_aborted reason -> on_abort w ~nic reason

let transmit w ~nic attempt a b =
  match attempt w ~nic a b with
  | ok -> ok
  | exception Driver_aborted reason -> (
      on_abort w ~nic reason;
      match w.tuning.Config.recovery with
      | Config.Restart_replay -> (
          w.replayed <- w.replayed + 1;
          if Td_obs.Control.enabled () then Td_obs.Metrics.bump "fault.replayed";
          match retry w (fun () -> attempt w ~nic a b) with
          | Ok ok -> ok
          | Error _ ->
              Td_fault.Engine.note_tx_lost w.fault 1;
              false)
      | Config.Fail_stop | Config.Restart ->
          Td_fault.Engine.note_tx_lost w.fault 1;
          false)

let control w ~nic f =
  admit w ~nic;
  try f ()
  with Driver_aborted reason -> (
    on_abort w ~nic reason;
    match retry w f with
    | Ok out -> out
    | Error reason ->
        fail w.nics.(nic) reason;
        raise (Nic_quarantined { nic }))

let run_watchdog w ~nic () =
  run_dom0_driver w ~entry:w.dom0_driver.e_watchdog w.nics.(nic).nd.Netdev.addr

let watchdog w ~nic =
  let p = w.nics.(nic) in
  if serving w ~nic && Td_nic.E1000_dev.dma_stuck p.dev then
    on_abort w ~nic "watchdog declared hang: TX DMA stuck";
  if serving w ~nic then invoke w ~nic run_watchdog ()
