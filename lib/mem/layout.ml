let page_size = 4096
let page_shift = 12
let page_mask = page_size - 1
let page_of addr = addr lsr page_shift
let page_base addr = addr land lnot page_mask
let offset_of addr = addr land page_mask
let addr_limit = 0x1_0000_0000

let dom0_kernel_base = 0xC000_0000
let dom0_heap_base = 0xC100_0000
let dom0_heap_limit = 0xC800_0000
let vm_driver_code_base = 0xC800_0000

let guest_heap_base = 0xF010_0000
let guest_heap_limit = 0xF800_0000

let hyp_base = 0xFC00_0000
let stlb_base = 0xFC10_0000
let stlb_entries = 4096
let stlb_entry_bytes = 8
let map_window_base = 0xFD00_0000
let map_window_pages = 4096
let hyp_driver_code_base = 0xFC80_0000
let hyp_stack_top = 0xFCF1_0000
let hyp_stack_pages = 4
let hyp_scratch_base = 0xFC20_0000
let native_base = 0xFE00_0000
let code_offset = hyp_driver_code_base - vm_driver_code_base

let in_dom0_range addr = addr >= dom0_kernel_base && addr < vm_driver_code_base
let in_hyp_range addr = addr >= hyp_base && addr < addr_limit
