let index_of addr = (addr land 0xFFF000) lsr Td_mem.Layout.page_shift
let entry_offset addr = (addr land 0xFFF000) lsr 9
let tag_of addr = Td_mem.Layout.page_base addr

type t = { space : Td_mem.Addr_space.t; vaddr : int }

let table_bytes = Td_mem.Layout.stlb_entries * Td_mem.Layout.stlb_entry_bytes

let create ~space ~vaddr =
  let pages = table_bytes / Td_mem.Layout.page_size in
  for i = 0 to pages - 1 do
    let vpage = Td_mem.Layout.page_of vaddr + i in
    if not (Td_mem.Addr_space.is_mapped space ~vpage) then
      ignore (Td_mem.Addr_space.alloc_page space ~vpage)
  done;
  { space; vaddr }

let vaddr t = t.vaddr

let entry_addr t addr = t.vaddr + entry_offset addr

(* the entry's two words read one by one, so a probe builds no pair *)
let probe t addr =
  let ea = entry_addr t addr in
  let tag = Td_mem.Addr_space.read t.space ea Td_misa.Width.W32 in
  if tag <> 0 && tag = tag_of addr then
    addr lxor Td_mem.Addr_space.read t.space (ea + 4) Td_misa.Width.W32
  else -1

let install t ~dom0_page ~mapped_page =
  if Td_mem.Layout.offset_of dom0_page <> 0 then
    invalid_arg "Stlb.install: dom0_page not page-aligned";
  let ea = entry_addr t dom0_page in
  if Td_obs.Control.enabled () then begin
    let old = Td_mem.Addr_space.read t.space ea Td_misa.Width.W32 in
    if old <> 0 && old <> dom0_page then begin
      Td_obs.Metrics.bump "stlb.evict";
      Td_obs.Trace.emit
        (Td_obs.Trace.Stlb_evict { victim_page = old; new_page = dom0_page })
    end
  end;
  Td_mem.Addr_space.write t.space ea Td_misa.Width.W32 dom0_page;
  Td_mem.Addr_space.write t.space (ea + 4) Td_misa.Width.W32
    (dom0_page lxor mapped_page)

let invalidate t ~dom0_page =
  let ea = entry_addr t dom0_page in
  let tag = Td_mem.Addr_space.read t.space ea Td_misa.Width.W32 in
  if tag = dom0_page then begin
    Td_mem.Addr_space.write t.space ea Td_misa.Width.W32 0;
    Td_mem.Addr_space.write t.space (ea + 4) Td_misa.Width.W32 0;
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "stlb.invalidate";
      Td_obs.Trace.emit (Td_obs.Trace.Stlb_invalidate { dom0_page })
    end
  end

let clear t = Td_mem.Addr_space.fill t.space t.vaddr table_bytes '\000'

