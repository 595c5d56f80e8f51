(** Well-known symbols referenced by rewritten code.

    These are resolved at load time, per instance — the same rewritten
    binary runs as the VM instance (symbols resolved into dom0) and as the
    hypervisor instance (resolved into the hypervisor), which is the
    paper's trick for keeping code addresses at a constant offset. *)

val stlb : string
(** Base address of the instance's stlb table. *)

val scratch : string
(** Base of the spill/scratch slots used by emitted code. *)

val svm_miss : string
(** The SVM slow-path handler (arg: faulting address; returns translated
    address). *)

val svm_translate : string
(** Shared translation helper used by rewritten string operations. *)

val svm_call : string
(** Indirect-call target translation helper (the [stlb_call] front end). *)

val scratch_slot : int -> Td_misa.Operand.t
(** Memory operand addressing slot [n]. *)

val is_reserved : string -> bool
(** True for names the rewriter owns; driver code must not define them. *)
