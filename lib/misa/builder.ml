let namer ?(taken = fun _ -> false) () =
  let n = ref 0 in
  let rec fresh prefix =
    incr n;
    let l = Printf.sprintf ".L_%s_%d" prefix !n in
    if taken l then fresh prefix else l
  in
  fresh

type t = {
  name : string;
  mutable items : Program.item list; (* reversed *)
  fresh : string -> string;
}

let create name = { name; items = []; fresh = namer () }
let label b l = b.items <- Program.Label l :: b.items
let ins b i = b.items <- Program.Ins i :: b.items
let finish b = Program.source b.name (List.rev b.items)
let fresh b prefix = b.fresh prefix

let imm n = Operand.Imm n
let reg r = Operand.Reg r
let mem ?base ?index ?sym disp = Operand.Mem (Operand.mem ?base ?index ?sym disp)
let mem_sym s = Operand.Mem (Operand.mem ~sym:s 0)

let movl b src dst = ins b (Insn.Mov (Width.W32, src, dst))
let movb b src dst = ins b (Insn.Mov (Width.W8, src, dst))
let movzxb b src dst = ins b (Insn.Movzx (Width.W8, src, dst))
let movzxw b src dst = ins b (Insn.Movzx (Width.W16, src, dst))
let leal b m dst = ins b (Insn.Lea (m, dst))
let addl b src dst = ins b (Insn.Alu (Insn.Add, src, dst))
let subl b src dst = ins b (Insn.Alu (Insn.Sub, src, dst))
let andl b src dst = ins b (Insn.Alu (Insn.And, src, dst))
let orl b src dst = ins b (Insn.Alu (Insn.Or, src, dst))
let xorl b src dst = ins b (Insn.Alu (Insn.Xor, src, dst))
let shll b cnt dst = ins b (Insn.Shift (Insn.Shl, cnt, dst))
let shrl b cnt dst = ins b (Insn.Shift (Insn.Shr, cnt, dst))
let sarl b cnt dst = ins b (Insn.Shift (Insn.Sar, cnt, dst))
let cmpl b a c = ins b (Insn.Cmp (a, c))
let testl b a c = ins b (Insn.Test (a, c))
let incl b o = ins b (Insn.Inc o)
let decl b o = ins b (Insn.Dec o)
let negl b o = ins b (Insn.Neg o)
let notl b o = ins b (Insn.Not o)
let imull b src dst = ins b (Insn.Imul (src, dst))
let pushl b o = ins b (Insn.Push o)
let popl b o = ins b (Insn.Pop o)
let jmp b l = ins b (Insn.Jmp (Insn.Lbl l))
let jmp_ind b o = ins b (Insn.Jmp (Insn.Ind o))
let jcc b c l = ins b (Insn.Jcc (c, Insn.Lbl l))
let je b l = jcc b Cond.E l
let jne b l = jcc b Cond.NE l
let call b l = ins b (Insn.Call (Insn.Lbl l))
let call_ind b o = ins b (Insn.Call (Insn.Ind o))
let ret b = ins b Insn.Ret
let rep_movsb b = ins b (Insn.Str (Insn.Movs, Width.W8, true))
let rep_movsl b = ins b (Insn.Str (Insn.Movs, Width.W32, true))
let rep_stosl b = ins b (Insn.Str (Insn.Stos, Width.W32, true))
let nop b = ins b Insn.Nop
let hlt b = ins b Insn.Hlt
