exception Malformed of string

type cursor = { data : bytes; mutable pos : int }

let u8 c =
  if c.pos >= Bytes.length c.data then raise (Malformed "truncated");
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let u32 c =
  let a = u8 c in
  let b = u8 c in
  let d = u8 c in
  let e = u8 c in
  a lor (b lsl 8) lor (d lsl 16) lor (e lsl 24)

let width_of = function
  | 0 -> Width.W8
  | 1 -> Width.W16
  | 2 -> Width.W32
  | n -> raise (Malformed (Printf.sprintf "bad width code %d" n))

let alu_of = function
  | 0 -> Insn.Add
  | 1 -> Insn.Sub
  | 2 -> Insn.And
  | 3 -> Insn.Or
  | 4 -> Insn.Xor
  | 5 -> Insn.Adc
  | 6 -> Insn.Sbb
  | n -> raise (Malformed (Printf.sprintf "bad alu code %d" n))

let shift_of = function
  | 0 -> Insn.Shl
  | 1 -> Insn.Shr
  | 2 -> Insn.Sar
  | n -> raise (Malformed (Printf.sprintf "bad shift code %d" n))

let str_of = function
  | 0 -> Insn.Movs
  | 1 -> Insn.Stos
  | 2 -> Insn.Lods
  | n -> raise (Malformed (Printf.sprintf "bad string code %d" n))

let cond_of = function
  | 0 -> Cond.E
  | 1 -> Cond.NE
  | 2 -> Cond.L
  | 3 -> Cond.LE
  | 4 -> Cond.G
  | 5 -> Cond.GE
  | 6 -> Cond.B
  | 7 -> Cond.BE
  | 8 -> Cond.A
  | 9 -> Cond.AE
  | 10 -> Cond.S
  | 11 -> Cond.NS
  | n -> raise (Malformed (Printf.sprintf "bad condition code %d" n))

let scale_of = function
  | 0 -> Operand.S1
  | 1 -> Operand.S2
  | 2 -> Operand.S4
  | 3 -> Operand.S8
  | _ -> assert false

let reg_of c =
  let i = u8 c in
  if i > 7 then raise (Malformed (Printf.sprintf "bad register %d" i));
  Reg.of_index i

let mem_of c =
  let flags = u8 c in
  let base = if flags land 1 <> 0 then Some (reg_of c) else None in
  let index =
    if flags land 2 <> 0 then
      let r = reg_of c in
      Some (r, scale_of ((flags lsr 2) land 3))
    else None
  in
  let disp = u32 c in
  { Operand.base; index; disp; sym = None }

let operand_of c =
  match u8 c with
  | 0 -> Operand.Imm (u32 c)
  | 1 -> Operand.Reg (reg_of c)
  | 2 -> Operand.Mem (mem_of c)
  | n -> raise (Malformed (Printf.sprintf "bad operand tag %d" n))

(* decoded instruction, with raw target addresses where labels will go *)
type raw =
  | Plain of Insn.t
  | Jmp_to of int
  | Jcc_to of Cond.t * int
  | Call_to of int

let insn_of c =
  let two f =
    let a = operand_of c in
    let b = operand_of c in
    f a b
  in
  match u8 c with
  | 0x01 ->
      let w = width_of (u8 c) in
      Plain (two (fun a b -> Insn.Mov (w, a, b)))
  | 0x02 ->
      let w = width_of (u8 c) in
      let a = operand_of c in
      Plain (Insn.Movzx (w, a, reg_of c))
  | 0x03 ->
      let m = mem_of c in
      Plain (Insn.Lea (m, reg_of c))
  | 0x04 ->
      let o = alu_of (u8 c) in
      Plain (two (fun a b -> Insn.Alu (o, a, b)))
  | 0x05 ->
      let o = shift_of (u8 c) in
      Plain (two (fun a b -> Insn.Shift (o, a, b)))
  | 0x06 -> Plain (two (fun a b -> Insn.Cmp (a, b)))
  | 0x07 -> Plain (two (fun a b -> Insn.Test (a, b)))
  | 0x08 -> Plain (Insn.Inc (operand_of c))
  | 0x09 -> Plain (Insn.Dec (operand_of c))
  | 0x0A -> Plain (Insn.Neg (operand_of c))
  | 0x0B -> Plain (Insn.Not (operand_of c))
  | 0x0C ->
      let a = operand_of c in
      Plain (Insn.Imul (a, reg_of c))
  | 0x0D -> Plain (Insn.Push (operand_of c))
  | 0x0E -> Plain (Insn.Pop (operand_of c))
  | 0x0F -> Jmp_to (u32 c)
  | 0x10 -> Plain (Insn.Jmp (Insn.Ind (operand_of c)))
  | 0x11 ->
      let cond = cond_of (u8 c) in
      Jcc_to (cond, u32 c)
  | 0x12 -> Call_to (u32 c)
  | 0x13 -> Plain (Insn.Call (Insn.Ind (operand_of c)))
  | 0x14 -> Plain Insn.Ret
  | 0x15 ->
      let o = str_of (u8 c) in
      let w = width_of (u8 c) in
      let rep = u8 c <> 0 in
      Plain (Insn.Str (o, w, rep))
  | 0x16 -> Plain Insn.Pushf
  | 0x17 -> Plain Insn.Popf
  | 0x18 -> Plain Insn.Nop
  | 0x19 -> Plain Insn.Hlt
  | 0x1A ->
      let a = operand_of c in
      Plain (Insn.Xchg (a, reg_of c))
  | n -> raise (Malformed (Printf.sprintf "bad opcode 0x%x at %d" n (c.pos - 1)))

let decode ?(name = "disassembled") data =
  let c = { data; pos = 0 } in
  if Bytes.length data < 16 then raise (Malformed "too short");
  let m = Bytes.sub_string data 0 4 in
  if m <> Encode.magic then raise (Malformed "bad magic");
  c.pos <- 4;
  let version = u8 c in
  if version <> 1 then raise (Malformed "unsupported version");
  ignore (u8 c);
  ignore (u8 c);
  ignore (u8 c);
  let base = u32 c in
  let count = u32 c in
  (* every instruction takes at least its opcode byte: a corrupted count
     must not size the array *)
  if count > Bytes.length data - c.pos then
    raise (Malformed "instruction count exceeds the data");
  let raws = Array.init count (fun _ -> insn_of c) in
  if c.pos <> Bytes.length data then raise (Malformed "trailing bytes");
  (* rediscover labels: every in-range target becomes a local label *)
  let size = 4 * count in
  let in_range a = a >= base && a < base + size && (a - base) mod 4 = 0 in
  let labelled = Hashtbl.create 32 in
  Array.iter
    (function
      | Jmp_to a | Jcc_to (_, a) | Call_to a when in_range a ->
          Hashtbl.replace labelled ((a - base) / 4) ()
      | Jmp_to _ | Jcc_to _ | Call_to _ | Plain _ -> ())
    raws;
  let label_of idx = Printf.sprintf ".L_%d" idx in
  let resolve a =
    if in_range a then Insn.Lbl (label_of ((a - base) / 4)) else Insn.Abs a
  in
  let items = ref [] in
  Array.iteri
    (fun idx raw ->
      if Hashtbl.mem labelled idx then
        items := Program.Label (label_of idx) :: !items;
      let insn =
        match raw with
        | Plain i -> i
        | Jmp_to a -> Insn.Jmp (resolve a)
        | Call_to a -> Insn.Call (resolve a)
        | Jcc_to (cond, a) ->
            if not (in_range a) then
              raise (Malformed "conditional jump out of program range");
            Insn.Jcc (cond, Insn.Lbl (label_of ((a - base) / 4)))
      in
      items := Program.Ins insn :: !items)
    raws;
  (Program.source name (List.rev !items), base)

let roundtrips prog =
  match decode (Encode.encode prog) with
  | src, base ->
      let prog' = Program.assemble ~base src in
      base = prog.Program.base
      && Array.length prog'.Program.code = Array.length prog.Program.code
  | exception Malformed _ -> false
