open Td_misa

type severity = Reject | Warn

type finding = { severity : severity; index : int; message : string }

(* largest stack-relative displacement accepted as statically safe: the
   simulated driver-stack size minus slack *)
let stack_disp_limit = 8192

let pp_finding fmt f =
  Format.fprintf fmt "%s at instruction %d: %s"
    (match f.severity with Reject -> "reject" | Warn -> "warn")
    f.index f.message

let check_stack_disp idx insn acc =
  let bad m =
    Operand.is_stack_relative m
    && (m.Operand.disp > stack_disp_limit || m.Operand.disp < -stack_disp_limit)
  in
  if List.exists bad (Insn.mem_operands insn) then
    {
      severity = Reject;
      index = idx;
      message =
        Format.asprintf
          "stack-relative access beyond ±%d bytes (overflows the driver \
           stack): %a"
          stack_disp_limit Insn.pp insn;
    }
    :: acc
  else acc

let inspect (src : Program.source) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let idx = ref 0 in
  List.iter
    (function
      | Program.Label l ->
          if Symbols.is_reserved l then
            add
              {
                severity = Reject;
                index = -1;
                message = "driver defines reserved symbol " ^ l;
              }
      | Program.Ins insn ->
          let i = !idx in
          incr idx;
          findings := check_stack_disp i insn !findings;
          (match insn with
          | Insn.Hlt ->
              add
                {
                  severity = Reject;
                  index = i;
                  message = "hlt is a privileged instruction in driver code";
                }
          | Insn.Jmp (Insn.Ind _) ->
              add
                {
                  severity = Warn;
                  index = i;
                  message =
                    "indirect jump: control-flow integrity depends on the \
                     stlb_call translation";
                }
          | Insn.Jmp (Insn.Abs a)
          | Insn.Call (Insn.Abs a)
          | Insn.Jcc (_, Insn.Abs a) ->
              (* native-range addresses are resolved support-routine
                 bindings (normal in pre-linked binaries); the hypervisor's
                 own region below them is never a legitimate target *)
              if
                Td_mem.Layout.in_hyp_range a && a < Td_mem.Layout.native_base
              then
                add
                  {
                    severity = Reject;
                    index = i;
                    message =
                      Printf.sprintf
                        "direct control transfer into the hypervisor (0x%x)" a;
                  }
          | _ -> ()))
    src.Program.items;
  List.rev !findings

let admissible src =
  not (List.exists (fun f -> f.severity = Reject) (inspect src))
