let status = 0x0008
let icr = 0x00C0
let ims = 0x00D0
let imc = 0x00D8
let itr = 0x00C4
let tdbal = 0x700
let tdlen = 0x708
let tdh = 0x710
let tdt = 0x718
let rdbal = 0x500
let rdlen = 0x508
let rdh = 0x510
let rdt = 0x518
let ral = 0xA00
let rah = 0xA04
let gptc = 0x880
let gprc = 0x874
let mpc = 0x810
let rctl = 0x100
let mta = 0xB00
let mta_entries = 32

let icr_txdw = 0x01
let icr_rxt0 = 0x80

let desc_bytes = 16
let d_buf = 0
let d_len = 4
let d_cmd = 8
let d_sta = 12

let cmd_eop = 0x1
let cmd_rs = 0x8
let sta_dd = 0x1
let sta_eop = 0x2
