type alu = Add | Sub | Adc | Sbb | And | Or | Xor
type shift = Shl | Shr | Sar
type str_op = Movs | Stos | Lods

type target = Lbl of string | Abs of int | Ind of Operand.t

type t =
  | Mov of Width.t * Operand.t * Operand.t
  | Movzx of Width.t * Operand.t * Reg.t
  | Lea of Operand.mem * Reg.t
  | Alu of alu * Operand.t * Operand.t
  | Shift of shift * Operand.t * Operand.t
  | Cmp of Operand.t * Operand.t
  | Test of Operand.t * Operand.t
  | Inc of Operand.t
  | Dec of Operand.t
  | Neg of Operand.t
  | Not of Operand.t
  | Imul of Operand.t * Reg.t
  | Xchg of Operand.t * Reg.t
  | Push of Operand.t
  | Pop of Operand.t
  | Jmp of target
  | Jcc of Cond.t * target
  | Call of target
  | Ret
  | Str of str_op * Width.t * bool
  | Pushf
  | Popf
  | Nop
  | Hlt

let mem_of_operand = function
  | Operand.Mem m -> [ m ]
  | Operand.Imm _ | Operand.Reg _ -> []

let mem_operands = function
  | Mov (_, a, b) | Alu (_, a, b) | Shift (_, a, b) | Cmp (a, b) | Test (a, b)
    ->
      mem_of_operand a @ mem_of_operand b
  | Movzx (_, a, _) | Imul (a, _) | Xchg (a, _) -> mem_of_operand a
  | Inc a | Dec a | Neg a | Not a | Push a | Pop a -> mem_of_operand a
  | Jmp (Ind a) | Call (Ind a) | Jcc (_, Ind a) -> mem_of_operand a
  | Jmp (Lbl _ | Abs _) | Call (Lbl _ | Abs _) | Jcc (_, (Lbl _ | Abs _)) -> []
  | Lea (_, _) | Ret | Str (_, _, _) | Pushf | Popf | Nop | Hlt -> []

let references_heap i =
  List.exists (fun m -> not (Operand.is_stack_relative m)) (mem_operands i)

let op_reads = Operand.regs_read

let op_writes = function
  | Operand.Reg r -> [ r ]
  | Operand.Imm _ | Operand.Mem _ -> []

(* Registers needed to address a destination operand (read even though the
   operand position is a "write"). *)
let op_addr = function
  | Operand.Mem m -> Operand.regs_addr m
  | Operand.Imm _ | Operand.Reg _ -> []

let target_reads = function
  | Lbl _ | Abs _ -> []
  | Ind o -> op_reads o

let regs_read = function
  | Mov (_, src, dst) -> op_reads src @ op_addr dst
  | Movzx (_, src, _) -> op_reads src
  | Lea (m, _) -> Operand.regs_addr m
  | Alu (_, src, dst) | Shift (_, src, dst) -> op_reads src @ op_reads dst
  | Cmp (a, b) | Test (a, b) -> op_reads a @ op_reads b
  | Inc o | Dec o | Neg o | Not o -> op_reads o
  | Imul (src, dst) -> op_reads src @ [ dst ]
  | Xchg (o, r) -> r :: op_reads o
  | Push o -> Reg.ESP :: op_reads o
  | Pop o -> Reg.ESP :: op_addr o
  | Jmp t | Call t | Jcc (_, t) -> target_reads t
  | Ret -> [ Reg.ESP ]
  | Str (Movs, _, rep) ->
      Reg.ESI :: Reg.EDI :: (if rep then [ Reg.ECX ] else [])
  | Str (Stos, _, rep) ->
      Reg.EAX :: Reg.EDI :: (if rep then [ Reg.ECX ] else [])
  | Str (Lods, _, rep) -> Reg.ESI :: (if rep then [ Reg.ECX ] else [])
  | Pushf | Popf -> [ Reg.ESP ]
  | Nop | Hlt -> []

let regs_written = function
  | Mov (_, _, dst) -> op_writes dst
  | Movzx (_, _, r) | Lea (_, r) -> [ r ]
  | Alu (_, _, dst) | Shift (_, _, dst) -> op_writes dst
  | Cmp (_, _) | Test (_, _) -> []
  | Inc o | Dec o | Neg o | Not o -> op_writes o
  | Imul (_, dst) -> [ dst ]
  | Xchg (o, r) -> r :: op_writes o
  | Push _ -> [ Reg.ESP ]
  | Pop o -> Reg.ESP :: op_writes o
  | Jmp _ | Jcc (_, _) -> []
  | Call _ | Ret -> [ Reg.ESP ]
  | Str (Movs, _, rep) ->
      Reg.ESI :: Reg.EDI :: (if rep then [ Reg.ECX ] else [])
  | Str (Stos, _, rep) -> Reg.EDI :: (if rep then [ Reg.ECX ] else [])
  | Str (Lods, _, rep) ->
      Reg.EAX :: Reg.ESI :: (if rep then [ Reg.ECX ] else [])
  | Pushf | Popf -> [ Reg.ESP ]
  | Nop | Hlt -> []

let sets_flags = function
  | Alu (_, _, _) | Shift (_, _, _) | Cmp (_, _) | Test (_, _) | Inc _ | Dec _
  | Neg _ | Imul (_, _) ->
      true
  | Xchg (_, _) -> false
  | Mov (_, _, _) | Movzx (_, _, _) | Lea (_, _) | Not _ | Push _ | Pop _
  | Jmp _ | Jcc (_, _) | Call _ | Ret | Str (_, _, _) | Pushf | Nop | Hlt ->
      false
  | Popf -> true

let reads_flags = function
  | Jcc (_, _) | Pushf -> true
  | Alu ((Adc | Sbb), _, _) -> true
  | Mov (_, _, _) | Movzx (_, _, _) | Lea (_, _) | Alu (_, _, _)
  | Shift (_, _, _) | Cmp (_, _) | Test (_, _) | Inc _ | Dec _ | Neg _ | Not _
  | Imul (_, _) | Xchg (_, _) | Push _ | Pop _ | Jmp _ | Call _ | Ret
  | Str (_, _, _) | Popf | Nop | Hlt ->
      false

let is_control_transfer = function
  | Jmp _ | Jcc (_, _) | Call _ | Ret | Hlt -> true
  | Mov (_, _, _) | Movzx (_, _, _) | Lea (_, _) | Alu (_, _, _)
  | Shift (_, _, _) | Cmp (_, _) | Test (_, _) | Inc _ | Dec _ | Neg _ | Not _
  | Imul (_, _) | Xchg (_, _) | Push _ | Pop _ | Str (_, _, _) | Pushf | Popf
  | Nop ->
      false

let equal (a : t) (b : t) = a = b

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
let str_name = function Movs -> "movs" | Stos -> "stos" | Lods -> "lods"

let pp_target fmt = function
  | Lbl l -> Format.pp_print_string fmt l
  | Abs a -> Format.fprintf fmt "0x%x" a
  | Ind o -> Format.fprintf fmt "*%a" Operand.pp o

let pp fmt insn =
  let two name a b = Format.fprintf fmt "%s %a, %a" name Operand.pp a Operand.pp b in
  let one name a = Format.fprintf fmt "%s %a" name Operand.pp a in
  match insn with
  | Mov (w, src, dst) -> two ("mov" ^ Width.suffix w) src dst
  | Movzx (w, src, r) ->
      Format.fprintf fmt "movzx%s %a, %a" (Width.suffix w) Operand.pp src
        Reg.pp r
  | Lea (m, r) -> Format.fprintf fmt "leal %a, %a" Operand.pp_mem m Reg.pp r
  | Alu (op, src, dst) -> two (alu_name op ^ "l") src dst
  | Shift (op, cnt, dst) -> two (shift_name op ^ "l") cnt dst
  | Cmp (a, b) -> two "cmpl" a b
  | Test (a, b) -> two "testl" a b
  | Inc a -> one "incl" a
  | Dec a -> one "decl" a
  | Neg a -> one "negl" a
  | Not a -> one "notl" a
  | Imul (src, dst) ->
      Format.fprintf fmt "imull %a, %a" Operand.pp src Reg.pp dst
  | Xchg (o, r) -> Format.fprintf fmt "xchgl %a, %a" Operand.pp o Reg.pp r
  | Push a -> one "pushl" a
  | Pop a -> one "popl" a
  | Jmp t -> Format.fprintf fmt "jmp %a" pp_target t
  | Jcc (c, t) -> Format.fprintf fmt "j%s %a" (Cond.to_string c) pp_target t
  | Call t -> Format.fprintf fmt "call %a" pp_target t
  | Ret -> Format.pp_print_string fmt "ret"
  | Str (op, w, rep) ->
      Format.fprintf fmt "%s%s%s"
        (if rep then "rep; " else "")
        (str_name op) (Width.suffix w)
  | Pushf -> Format.pp_print_string fmt "pushf"
  | Popf -> Format.pp_print_string fmt "popf"
  | Nop -> Format.pp_print_string fmt "nop"
  | Hlt -> Format.pp_print_string fmt "hlt"
