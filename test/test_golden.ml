(* Snapshot test: the exact rewriting of a small fixed driver is pinned,
   so that unintended changes to the emitted SVM sequences show up as a
   diff rather than only as a performance drift. *)

let check = Alcotest.check

let input =
  {|poll:
    movl 4(%esp), %ebx
    incl 0(%ebx)
    movl 4(%ebx), %eax
    ret
|}

(* the paper's Figure 4 shape: lea/mov/and/mov/and/shr/cmp/jne/xor + op *)
(* Figure-4 shape for the first access; the second access spills ESI
   (EAX is its destination, ECX/EDX already scratch) and the slow path
   parks EAX in the spilled ESI across the __svm_miss call. *)
let expected =
  {|# golden.twin
poll:
    movl 4(%esp), %ebx
    leal 0(%ebx), %eax
    movl %eax, %ecx
    andl $4294963200, %eax
    movl %eax, %edx
    andl $16773120, %eax
    shrl $9, %eax
    cmpl __stlb(%eax), %edx
    jne .L_slow_2
    xorl 4+__stlb(%eax), %ecx
.L_go_1:
    incl 0(%ecx)
    jmp .L_end_3
.L_slow_2:
    pushl %ecx
    call __svm_miss
    movl %eax, %ecx
    addl $4, %esp
    jmp .L_go_1
.L_end_3:
    movl %esi, 8+__svm_scratch
    leal 4(%ebx), %ecx
    movl %ecx, %edx
    andl $4294963200, %ecx
    movl %ecx, %esi
    andl $16773120, %ecx
    shrl $9, %ecx
    cmpl __stlb(%ecx), %esi
    jne .L_slow_5
    xorl 4+__stlb(%ecx), %edx
.L_go_4:
    movl 8+__svm_scratch, %esi
    movl 0(%edx), %eax
    jmp .L_end_6
.L_slow_5:
    movl %eax, %esi
    pushl %edx
    call __svm_miss
    movl %eax, %edx
    addl $4, %esp
    movl %esi, %eax
    jmp .L_go_4
.L_end_6:
    ret
|}

let test_golden_rewrite () =
  let twin = Td_rewriter.Twin.derive_text ~name:"golden" input in
  check Alcotest.string "pinned rewriting" expected
    (Td_rewriter.Twin.rewritten_text twin)

(* label numbering is local to one driver build and one rewrite, so a
   second twin world in the same process profiles under the same labels
   as the first *)
let test_labels_per_build () =
  let profile () =
    Td_cpu.Profiler.cycles_by_label
      (Twindrivers.Experiments.profile_tx ~packets:40 ())
  in
  let first = profile () in
  check
    Alcotest.(list (pair string int))
    "second world's profile" first (profile ())

(* a driver label that looks like a probe label ([.L_go_1]) makes the
   rewrite number its own probes past it *)
let test_probe_labels_skip_source_labels () =
  let open Td_misa in
  let b = Builder.create "clash" in
  let out = Builder.fresh b "go" in
  Builder.(
    label b "poll";
    movl b (mem ~base:Reg.EBX 4) (reg Reg.EAX);
    label b out;
    ret b);
  let twin = Td_rewriter.Twin.derive (Builder.finish b) in
  let labels = Program.entry_points twin.Td_rewriter.Twin.rewritten in
  check Alcotest.string "driver's own label" ".L_go_1" out;
  check Alcotest.int "labels unique"
    (List.length labels)
    (List.length (List.sort_uniq compare labels))

let suite =
  [
    Alcotest.test_case "golden rewrite" `Quick test_golden_rewrite;
    Alcotest.test_case "profile labels equal across worlds" `Quick
      test_labels_per_build;
    Alcotest.test_case "probe labels skip the source's labels" `Quick
      test_probe_labels_skip_source_labels;
  ]
