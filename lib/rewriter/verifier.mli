(** Static inspection of driver code at rewriting time (§4.5.2: bugs like
    "the use of privileged instructions ... can be detected and prevented
    by static inspection of the driver code during binary translation").

    The verifier flags constructs that the SVM rewriting alone does not
    police: halting instructions, suspiciously large stack-frame
    displacements (§4.5.1's statically-checkable class), indirect jumps
    (a control-flow-integrity hazard), direct absolute control transfers,
    and attempts to define the rewriter's reserved symbols. *)

type severity = Reject | Warn

type finding = {
  severity : severity;
  index : int;  (** instruction index; -1 for program-level findings *)
  message : string;
}

val inspect : Td_misa.Program.source -> finding list

val admissible : Td_misa.Program.source -> bool
(** No [Reject]-severity findings. *)

val pp_finding : Format.formatter -> finding -> unit
