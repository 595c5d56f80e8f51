type stats = { mutable invocations : int; mutable switches_incurred : int }

let fresh_stats () = { invocations = 0; switches_incurred = 0 }

exception Upcall_failed of { routine : string }

let () =
  Printexc.register_printer (function
    | Upcall_failed { routine } ->
        Some (Printf.sprintf "Td_xen.Upcall.Upcall_failed(%s)" routine)
    | _ -> None)

let make_stub ?quota ?fault ~hyp ~dom0 ~name ~impl stats : Td_cpu.Native.fn =
  (* pre-register the counters so snapshots report an explicit zero for
     runs that never leave the fast path (the paper's headline case) *)
  if Td_obs.Control.enabled () then begin
    ignore (Td_obs.Metrics.counter "upcall.invocations");
    ignore (Td_obs.Metrics.counter "upcall.switches")
  end;
  fun st ->
  stats.invocations <- stats.invocations + 1;
  let costs = Hypervisor.costs hyp in
  (* the stub saves parameters and switches off the hypervisor stack
     (whose contents are not preserved across the domain transition);
     the Xen work is attributed to the domain whose driver invoked it *)
  let prev = Hypervisor.current ~op:"upcall" hyp in
  Hypervisor.charge_xen_for hyp ~domain:prev
    costs.Sys_costs.upcall_stack_switch;
  let needs_switch = Domain.id prev <> Domain.id dom0 in
  if needs_switch then stats.switches_incurred <- stats.switches_incurred + 2;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "upcall.invocations";
    if needs_switch then Td_obs.Metrics.bump_by "upcall.switches" 2;
    Td_obs.Trace.emit (Td_obs.Trace.Upcall_enter { routine = name })
  end;
  (* fault-injection site: dom0 fails or times out the upcall — the
     world switch was paid, but the support routine never ran and the
     hypervisor driver instance cannot make progress *)
  (match fault with
  | Some e when Td_fault.Engine.fire e Td_fault.Upcall_fail ->
      raise (Upcall_failed { routine = name })
  | Some _ | None -> ());
  (* quota gate: each upcall draws a token from the invoking domain's
     bucket — one tenant hammering support routines cannot monopolise
     dom0 (raises the typed Quota_exceeded when dry) *)
  (match quota with
  | Some q -> Quota.take q ~domain:prev Quota.Upcalls
  | None -> ());
  Hypervisor.run_in hyp dom0 (fun () ->
      (* synchronous virtual interrupt into dom0: the registered handler
         recovers parameters and invokes the support routine *)
      Hypervisor.charge_xen_for hyp ~domain:prev costs.Sys_costs.event_channel;
      Hypervisor.charge_domain hyp dom0 costs.Sys_costs.support_routine;
      impl st;
      (* 'return' to the stub via hypercall *)
      Hypervisor.hypercall hyp ~cost:costs.Sys_costs.upcall_return ());
  if Td_obs.Control.enabled () then
    Td_obs.Trace.emit
      (Td_obs.Trace.Upcall_exit { routine = name; switched = needs_switch })
