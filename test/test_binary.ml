(* Tests for the binary encode/disassemble path (§5.1's alternative to
   compiling the driver to assembly). *)

open Td_misa

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let assemble_driver () =
  Program.assemble
    ~symbols:(fun _ -> Some Td_mem.Layout.native_base)
    ~base:Td_mem.Layout.vm_driver_code_base
    (Td_driver.E1000_driver.source ())

let test_header () =
  let prog = assemble_driver () in
  let b = Encode.encode prog in
  check bool_c "magic" true (Bytes.sub_string b 0 4 = Encode.magic);
  let src, base = Decode.decode b in
  check int_c "base preserved" Td_mem.Layout.vm_driver_code_base base;
  check int_c "instruction count preserved"
    (Array.length prog.Program.code)
    (Program.instruction_count src)

let test_malformed_rejected () =
  let reject b =
    match Decode.decode b with
    | exception Decode.Malformed _ -> true
    | _ -> false
  in
  check bool_c "short" true (reject (Bytes.create 3));
  check bool_c "bad magic" true (reject (Bytes.make 20 'x'));
  let prog = assemble_driver () in
  let good = Encode.encode prog in
  let truncated = Bytes.sub good 0 (Bytes.length good - 5) in
  check bool_c "truncated" true (reject truncated);
  let trailing = Bytes.cat good (Bytes.of_string "junk") in
  check bool_c "trailing bytes" true (reject trailing);
  (* the count's high byte corrupted: ~3.5 billion instructions *)
  let inflated = Bytes.copy good in
  Bytes.set inflated 15 '\xD1';
  check bool_c "inflated instruction count" true (reject inflated)

let test_driver_roundtrip_structure () =
  let prog = assemble_driver () in
  check bool_c "roundtrips" true (Decode.roundtrips prog);
  (* labels rediscovered at exactly the jump targets *)
  let src, base = Decode.decode (Encode.encode prog) in
  let prog' = Program.assemble ~base src in
  Array.iteri
    (fun i insn ->
      let insn' = prog'.Program.code.(i) in
      match (insn, insn') with
      | Insn.Jcc (c, _), Insn.Jcc (c', _) ->
          check bool_c "condition preserved" true (Cond.equal c c')
      | _ -> check bool_c "instruction preserved" true (Insn.equal insn insn'))
    prog.Program.code

let test_disassembled_driver_runs () =
  (* full circle: assemble the e1000 driver, encode it, disassemble it,
     REWRITE the disassembly, and run the result as the hypervisor
     instance — the paper's binary-input path, end to end.

     We reuse the Twin_harness by treating the disassembly as source. *)
  let prog = assemble_driver () in
  let binary = Encode.encode prog in
  let twin, base = Td_rewriter.Twin.derive_binary ~name:"e1000.bin" binary in
  check int_c "original base recovered" Td_mem.Layout.vm_driver_code_base base;
  check bool_c "rewriting the disassembly finds the same heap sites" true
    (twin.Td_rewriter.Twin.stats.Td_rewriter.Rewrite.heap_sites > 100)

let binary_equivalence_prop =
  (* random straight-line programs: assembling, encoding, disassembling
     and re-assembling yields the same executable behaviour *)
  QCheck.Test.make ~name:"binary roundtrip preserves execution" ~count:40
    (QCheck.make Test_rewriter.gen_straightline
       ~print:Program.to_string_source)
    (fun source ->
      let init =
        Bytes.init Twin_harness.buf_bytes (fun i -> Char.chr ((i * 7) land 0xff))
      in
      let regs st buf = Td_cpu.State.set st Reg.EBX buf in
      let direct =
        Twin_harness.run_incarnation ~source ~init ~regs ~entry:"entry"
          Twin_harness.Original
      in
      (* encode/decode through the binary form *)
      let prog =
        Program.assemble ~base:Td_mem.Layout.vm_driver_code_base source
      in
      let src', _ = Decode.decode (Encode.encode prog) in
      (* [entry] label is lost in the binary (it is just address base);
         reattach it *)
      let src' =
        Program.source "rt" (Program.Label "entry" :: src'.Program.items)
      in
      let redecoded =
        Twin_harness.run_incarnation ~source:src' ~init ~regs ~entry:"entry"
          Twin_harness.Original
      in
      Twin_harness.equivalent direct redecoded)

let suite =
  [
    Alcotest.test_case "header" `Quick test_header;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "driver roundtrip" `Quick test_driver_roundtrip_structure;
    Alcotest.test_case "disassembled driver rewrites" `Quick
      test_disassembled_driver_runs;
    QCheck_alcotest.to_alcotest binary_equivalence_prop;
  ]
