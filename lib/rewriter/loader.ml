exception Undefined_symbol of string

type symtab = string -> int option

let empty _ = None

let of_list l =
  let tbl = Hashtbl.create (List.length l) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) l;
  fun name -> Hashtbl.find_opt tbl name

let overlay a b name = match a name with Some v -> Some v | None -> b name

let assemble ~name ~source ~base ~symbols =
  try Td_misa.Program.assemble ~symbols ~base { source with name }
  with Td_misa.Program.Unresolved s -> raise (Undefined_symbol s)

let load ~name ~source ~base ~symbols ~registry =
  let program = assemble ~name ~source ~base ~symbols in
  Td_cpu.Code_registry.register registry program;
  program

let svm_symbols ~runtime ~natives ~stlb_vaddr ~scratch_vaddr =
  let miss = Td_svm.Runtime.miss_symbol runtime in
  let translate = Td_svm.Runtime.translate_symbol runtime in
  fun name ->
    if name = Symbols.stlb then Some stlb_vaddr
    else if name = Symbols.scratch then Some scratch_vaddr
    else if name = Symbols.svm_miss then Td_cpu.Native.address_of natives miss
    else if name = Symbols.svm_translate then
      Td_cpu.Native.address_of natives translate
    else None
