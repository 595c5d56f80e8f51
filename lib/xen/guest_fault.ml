(* A guest-reachable validation failure: malformed grant refs, foreign
   sk_buffs, revoke-while-mapped, descriptor-ring lengths outside the
   buffer. The SPEC-RG hypercall-vulnerability survey's lesson is that
   these are *expected events* — a malicious or buggy guest must be able
   to trigger them at will without taking the hypervisor down. So they
   raise a typed exception the caller contains (dropping the offending
   request, aborting the offending driver), and every occurrence is
   counted — globally and, while observability is on and the raiser can
   attribute it, in the offending domain's metric. *)

exception Fault of { op : string; reason : string }

(* The counter stays process-global (a diagnostic, not engine state), so
   it must be shard-safe: parallel shard workers fault concurrently once
   fault plans and quotas are legal across shards. *)
let count = Atomic.make 0
let total () = Atomic.get count
let reset () = Atomic.set count 0

let fail ?domain ~op fmt =
  Printf.ksprintf
    (fun reason ->
      Atomic.incr count;
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
