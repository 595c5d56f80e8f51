(** Typed, counted faults for guest-reachable validation failures.

    Treating every guest-reachable fault path as an expected event with
    typed handling — not a process-killing [failwith] — is the
    containment posture the SPEC-RG hypercall-vulnerability report
    (PAPERS.md) argues for. Raisers go through {!fail}, which bumps the
    [xen.guest_faults] metric and emits a [Guest_fault] trace event;
    catchers contain the blast radius (drop the request, abort the
    driver), count what they contain, and the hypervisor keeps running.
    There is no process-wide count: a world counts the faults its
    supervisor contains ([Twindrivers.World.guest_faults]), the fuzzer
    its own. *)

exception Fault of { op : string; reason : string }

val fail : ?domain:string -> op:string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~op fmt ...] raises {!Fault} with the formatted reason, after
    bumping the [xen.guest_faults] metric while observability is on.
    [op] names the validated operation (["Grant_table.map"],
    ["Skb_pool.release"], ...). [domain], when the
    raiser can attribute the fault to the domain that supplied the bad
    input, additionally counts it in the [xen.guest_faults.<domain>]
    metric while observability is on. *)
