(* A guest-reachable validation failure: malformed grant refs, foreign
   sk_buffs, revoke-while-mapped, descriptor-ring lengths outside the
   buffer. The SPEC-RG hypercall-vulnerability survey's lesson is that
   these are *expected events* — a malicious or buggy guest must be able
   to trigger them at will without taking the hypervisor down. So they
   raise a typed exception the caller contains (dropping the offending
   request, aborting the offending driver). The catcher counts what it
   contains (a world counts the faults its supervisor turns into driver
   aborts); while observability is on every occurrence is also counted
   in the metrics, and in the offending domain's when the raiser can
   attribute it. *)

exception Fault of { op : string; reason : string }

let fail ?domain ~op fmt =
  Printf.ksprintf
    (fun reason ->
      if Td_obs.Control.enabled () then begin
        Option.iter
          (fun d ->
            Td_obs.Metrics.bump (Printf.sprintf "xen.guest_faults.%s" d))
          domain;
        Td_obs.Metrics.bump "xen.guest_faults";
        Td_obs.Trace.emit (Td_obs.Trace.Guest_fault { op })
      end;
      raise (Fault { op; reason }))
    fmt

let () =
  Printexc.register_printer (function
    | Fault { op; reason } ->
        Some (Printf.sprintf "Td_xen.Guest_fault.Fault(%s: %s)" op reason)
    | _ -> None)
