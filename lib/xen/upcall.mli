(** The upcall mechanism (§4.2): a synchronous cross-address-space call
    from the hypervisor driver into a dom0 driver support routine.

    A stub saves the call's parameters (in our model the simulated stack
    already carries them — heap state is shared by construction), switches
    to the upcall stack, switches the world to dom0 if a guest is running,
    delivers a synchronous virtual interrupt whose dom0 handler invokes the
    support routine, and returns to the hypervisor via a hypercall,
    switching back to the original domain. *)

type stats = {
  mutable invocations : int;
  mutable switches_incurred : int;
}

exception Upcall_failed of { routine : string }
(** dom0 failed or timed out the upcall (fault injection,
    {!Td_fault.Upcall_fail}): the support routine never ran, so the
    hypervisor driver instance aborts and the supervisor restarts it. *)

val make_stub :
  ?quota:Quota.state ->
  ?fault:Td_fault.Engine.state ->
  hyp:Hypervisor.t ->
  dom0:Domain.t ->
  name:string ->
  impl:Td_cpu.Native.fn ->
  stats ->
  Td_cpu.Native.fn
(** Wrap the dom0 support-routine implementation [impl] into an upcall
    stub suitable for registration under the routine's symbol in the
    hypervisor driver's symbol table. Each call may fail on [fault]
    ({!Td_fault.Upcall_fail}) and draws one [Upcalls] token from the
    invoking domain's bucket on [quota]. *)

val fresh_stats : unit -> stats
