type t = {
  vm_code_base : int;
  vm_code_size : int;
  resolver : int -> int option;
  cache : int Td_sim.Int_tbl.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~vm_code_base ~vm_code_size ~resolver =
  {
    vm_code_base;
    vm_code_size;
    resolver;
    cache = Td_sim.Int_tbl.create 64;
    hit_count = 0;
    miss_count = 0;
  }

let translate t addr =
  match Td_sim.Int_tbl.find t.cache addr with
  | a ->
      t.hit_count <- t.hit_count + 1;
      a
  | exception Not_found ->
      t.miss_count <- t.miss_count + 1;
      let resolved =
        if addr >= t.vm_code_base && addr < t.vm_code_base + t.vm_code_size
        then Some (addr + Td_mem.Layout.code_offset)
        else t.resolver addr
      in
      let a =
        match resolved with
        | Some a -> a
        | None ->
            raise
              (Runtime.Fault
                 { addr; reason = "indirect call to untranslatable address" })
      in
      Td_sim.Int_tbl.replace t.cache addr a;
      a

let hits t = t.hit_count
let misses t = t.miss_count

let register_native t natives name =
  let fn st =
    let addr = Td_cpu.State.stack_arg st 0 in
    Td_cpu.State.set st Td_misa.Reg.EAX (translate t addr)
  in
  ignore (Td_cpu.Native.register natives name fn)
