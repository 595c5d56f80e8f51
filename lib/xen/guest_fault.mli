(** Typed, counted faults for guest-reachable validation failures.

    Treating every guest-reachable fault path as an expected event with
    typed handling — not a process-killing [failwith] — is the
    containment posture the SPEC-RG hypercall-vulnerability report
    (PAPERS.md) argues for. Raisers go through {!fail}, which bumps the
    [xen.guest_faults] metric and emits a [Guest_fault] trace event;
    catchers contain the blast radius (drop the request, abort the
    driver) and the hypervisor keeps running. *)

exception Fault of { op : string; reason : string }

val fail : ?domain:string -> op:string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~op fmt ...] counts the fault and raises {!Fault} with the
    formatted reason. [op] names the validated operation
    (["Grant_table.map"], ["Skb_pool.release"], ...). [domain], when the
    raiser can attribute the fault to the domain that supplied the bad
    input, additionally counts it in the [xen.guest_faults.<domain>]
    metric while observability is on. *)

val total : unit -> int
(** Faults counted since start-up (or the last {!reset}) — the plain
    counter behind the [xen.guest_faults] metric, maintained even when
    observability is disabled. *)

val reset : unit -> unit
