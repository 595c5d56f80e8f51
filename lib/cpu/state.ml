type t = {
  regs : int array;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ovf : bool;
  mutable pc : int;
  mutable space : Td_mem.Addr_space.t;
  mutable hyp_space : Td_mem.Addr_space.t option;
  tlb : Tlb.t;
  cache : Cache.t;
  costs : Cost_model.t;
  mutable cycles : int;
  mutable steps : int;
  mutable pair_slot : bool;
  mutable fuel : int;
  mutable fuel_cap : int;
}

let create ?(costs = Cost_model.default) ?hyp_space space =
  {
    regs = Array.make 8 0;
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    pc = 0;
    space;
    hyp_space;
    tlb = Tlb.create ();
    cache = Cache.create ();
    costs;
    cycles = 0;
    steps = 0;
    pair_slot = false;
    fuel = max_int;
    fuel_cap = max_int;
  }

let mask32 v = v land 0xFFFFFFFF

(* [Reg.index] is total over the 8-register file and [regs] always has
   length 8, so the bounds check is provably dead on the hot path *)
let[@inline] get t r = Array.unsafe_get t.regs (Td_misa.Reg.index r)
let[@inline] set t r v = Array.unsafe_set t.regs (Td_misa.Reg.index r) (mask32 v)

let set_narrow t w r v =
  match w with
  | Td_misa.Width.W32 -> set t r v
  | _ ->
      let m = Td_misa.Width.mask w in
      let old = get t r in
      set t r ((old land lnot m) lor (v land m))

let[@inline] space_for t addr =
  match t.hyp_space with
  | Some hs when Td_mem.Layout.in_hyp_range addr -> hs
  | Some _ | None -> t.space

let[@inline] read_mem t addr w = Td_mem.Addr_space.read (space_for t addr) addr w
let[@inline] write_mem t addr w v = Td_mem.Addr_space.write (space_for t addr) addr w v

let push t v =
  let sp = get t Td_misa.Reg.ESP - 4 in
  set t Td_misa.Reg.ESP sp;
  write_mem t sp Td_misa.Width.W32 v

let pop t =
  let sp = get t Td_misa.Reg.ESP in
  let v = read_mem t sp Td_misa.Width.W32 in
  set t Td_misa.Reg.ESP (sp + 4);
  v

let stack_arg t i =
  let sp = get t Td_misa.Reg.ESP in
  read_mem t (sp + 4 + (4 * i)) Td_misa.Width.W32

let add_cycles t n = t.cycles <- t.cycles + n

let switch_space t space =
  t.space <- space;
  Tlb.flush t.tlb
